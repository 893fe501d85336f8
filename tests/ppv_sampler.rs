//! Differential test of the PPV chip sampler: `PpvModel::sample_chip`
//! against a reference that evaluates every junction's survival factor with
//! `powf`, the model's plain formulation. Both must return the same
//! `ChipSample`, down to each `activation_failure_prob` bit, and leave their
//! RNGs in the same state, on the paper designs and SEC-DED(72,64) under the
//! default model and the spread / margin-scale variations the ablations use.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sfq_ecc::cells::{CellLibrary, ParameterClass};
use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
use sfq_ecc::netlist::{Netlist, NodeKind};
use sfq_ecc::sim::{CellFault, ChipSample, FailureMode, FaultMap, PpvModel};

/// The sampler written with `powf`: the same draws in the same order as
/// `PpvModel::sample_chip`, through the public API only.
fn reference_sample_chip(
    model: &PpvModel,
    netlist: &Netlist,
    library: &CellLibrary,
    rng: &mut StdRng,
) -> ChipSample {
    let mut faults = FaultMap::healthy(netlist);
    let mut hard_failures = 0usize;
    let mut marginal_cells = 0usize;
    for node in netlist.nodes() {
        let NodeKind::Cell(kind) = node.kind else {
            continue;
        };
        let params = library.params(kind);
        let mut survive_prob = 1.0f64;
        let mut hard_failed = false;
        for _ in 0..params.jj_count {
            for class in ParameterClass::ALL {
                let deviation = rng.random_range(-model.spread..=model.spread).abs();
                let nominal_margin = params.margins.for_class(class) * model.margin_scale;
                let noise: f64 = rng.random_range(-1.0..=1.0);
                let threshold = (nominal_margin * (1.0 + model.margin_sigma * noise)).max(1e-6);
                if deviation >= threshold {
                    hard_failed = true;
                } else {
                    let stress = deviation / threshold;
                    let q = model.marginal_failure_prob * stress.powf(12.0);
                    survive_prob *= 1.0 - q.min(1.0);
                }
            }
        }
        let prob = if hard_failed { 1.0 } else { 1.0 - survive_prob };
        if prob >= model.min_failure_prob {
            let mode = if rng.random::<f64>() < model.spurious_fraction {
                FailureMode::SpuriousPulse
            } else {
                FailureMode::DropPulse
            };
            faults.set(
                node.id,
                CellFault {
                    activation_failure_prob: prob,
                    mode,
                },
            );
            if hard_failed {
                hard_failures += 1;
            } else {
                marginal_cells += 1;
            }
        }
    }
    ChipSample {
        faults,
        hard_failures,
        marginal_cells,
    }
}

/// The paper defaults and the spread / margin-scale variations; ±30 %
/// spread pushes junctions past their thresholds (hard failures).
fn models() -> [(&'static str, PpvModel); 5] {
    let paper = PpvModel::paper_defaults();
    [
        ("paper defaults", paper),
        ("spread 0.10", paper.with_spread(0.10)),
        ("spread 0.30", paper.with_spread(0.30)),
        ("margin scale 0.9", paper.with_margin_scale(0.9)),
        ("margin scale 1.2", paper.with_margin_scale(1.2)),
    ]
}

/// Samples `chips` chips of `design` under every model with both samplers
/// and asserts equal samples and equal RNG states; returns the number of
/// hard-failed cells seen.
fn assert_sampler_matches_reference(design: &EncoderDesign, chips: u64, seed: u64) -> usize {
    let library = CellLibrary::coldflux();
    let mut hard_failures = 0;
    for (label, model) in models() {
        for chip in 0..chips {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(chip));
            let mut reference_rng = rng.clone();
            let sample = model.sample_chip(design.netlist(), &library, &mut rng);
            let reference =
                reference_sample_chip(&model, design.netlist(), &library, &mut reference_rng);
            // Healthy cells hold the same constant 0.0 on both sides and
            // faulty ones lie in [min_failure_prob, 1], so `==` on these
            // probabilities is bit equality.
            let context = format!("{} under {label}, chip {chip}", design.name());
            assert_eq!(sample, reference, "{context}");
            assert_eq!(rng.next_u64(), reference_rng.next_u64(), "{context}");
            hard_failures += sample.hard_failures;
        }
    }
    hard_failures
}

fn sweep(paper_chips: u64, wide_chips: u64) {
    let mut hard_failures = 0;
    for kind in EncoderKind::ALL {
        let design = EncoderDesign::build(kind);
        hard_failures += assert_sampler_matches_reference(&design, paper_chips, 0x5f5_ecc);
    }
    let wide = EncoderDesign::build(EncoderKind::SecDed(6));
    hard_failures += assert_sampler_matches_reference(&wide, wide_chips, 0x0726_4ecc);
    assert!(
        hard_failures > 0,
        "the sweep never exercised a hard failure"
    );
}

#[test]
fn ppv_sampler_matches_the_powf_reference() {
    sweep(400, 40);
}

/// The same comparison over 100× more chips (nightly `ppv` tier).
#[test]
#[ignore = "heavy exhaustive tier; run with --include-ignored ppv (nightly CI leg)"]
fn exhaustive_ppv_sampler_matches_the_powf_reference() {
    sweep(40_000, 4_000);
}
