//! End-to-end link tests: encoder circuit + PPV faults + cable + decoder.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfq_ecc::cells::CellLibrary;
use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
use sfq_ecc::gf2::BitVec;
use sfq_ecc::link::{ChannelConfig, CryoLink, ErrorCounting, Fig5Experiment, LinkOutcome};
use sfq_ecc::sim::PpvModel;

/// With no process variations and an ideal channel, every design delivers
/// every message of an exhaustive sweep.
#[test]
fn fault_free_link_is_error_free_for_all_designs_and_messages() {
    let mut rng = StdRng::seed_from_u64(99);
    for kind in EncoderKind::ALL {
        let design = EncoderDesign::build(kind);
        let link = CryoLink::ideal(&design);
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let result = link.transmit(&msg, &mut rng);
            assert_eq!(
                result.outcome,
                LinkOutcome::Correct,
                "{} {m:04b}",
                design.name()
            );
        }
    }
}

/// A moderately noisy channel: the coded links must deliver at least as many
/// messages correctly as the uncoded link, and Hamming(8,4) must flag rather
/// than silently deliver a substantial share of its failures.
#[test]
fn coding_gain_on_a_noisy_channel() {
    let mut rng = StdRng::seed_from_u64(7);
    let channel = ChannelConfig::with_snr_db(11.0);
    let messages: Vec<BitVec> = (0..400).map(|i| BitVec::from_u64(4, i % 16)).collect();

    let run = |kind: EncoderKind, rng: &mut StdRng| {
        let design = EncoderDesign::build(kind);
        let link = CryoLink::new(
            &design,
            sfq_ecc::sim::FaultMap::healthy(design.netlist()),
            channel,
        );
        link.transmit_batch(&messages, rng)
    };

    let (uncoded_ok, _, uncoded_silent) = run(EncoderKind::None, &mut rng);
    let (h84_ok, h84_flagged, h84_silent) = run(EncoderKind::Hamming84, &mut rng);

    assert!(
        h84_ok > uncoded_ok,
        "Hamming(8,4) should deliver more messages than uncoded ({h84_ok} vs {uncoded_ok})"
    );
    assert!(
        h84_silent < uncoded_silent,
        "Hamming(8,4) should have fewer silent errors ({h84_silent} vs {uncoded_silent})"
    );
    // The error flag is doing real work on this channel.
    assert!(h84_flagged > 0);
}

/// A reduced-size Fig. 5 run must reproduce the headline qualitative results
/// of the paper — every encoder beats the uncoded link, and the extended
/// Hamming(8,4) code is the best of the three encoders — *statistically*:
/// each ordering claim is asserted as non-overlap of 95 % Wilson confidence
/// intervals derived from the actual chip count, not as a point comparison
/// tuned to one seed.
#[test]
fn reduced_fig5_preserves_paper_ordering() {
    let library = CellLibrary::coldflux();
    let experiment = Fig5Experiment {
        chips: 400,
        messages_per_chip: 60,
        threads: 4,
        ..Fig5Experiment::paper_setup()
    };
    let result = experiment.run_all(&library);
    let ci = |kind: EncoderKind| result.curve(kind).unwrap().zero_error_wilson_interval(1.96);

    let none = ci(EncoderKind::None);
    let h74 = ci(EncoderKind::Hamming74);
    let h84 = ci(EncoderKind::Hamming84);
    let rm = ci(EncoderKind::Rm13);

    for (name, coded) in [
        ("Hamming(8,4)", h84),
        ("Hamming(7,4)", h74),
        ("RM(1,3)", rm),
    ] {
        assert!(
            coded.0 > none.1,
            "{name} must significantly beat no-encoder ({coded:?} vs {none:?})"
        );
    }
    assert!(
        h84.0 > h74.1 && h84.0 > rm.1,
        "Hamming(8,4) must be significantly the best encoder (h84={h84:?}, h74={h74:?}, rm={rm:?})"
    );
}

/// The Fig. 5 per-chip seeding contract (`seed + chip_index` drives each
/// chip's RNG): curves are **bit-identical** regardless of the worker-thread
/// count, on both the scalar pulse-level path and the bit-sliced batch path.
/// This is the determinism guarantee `montecarlo.rs` documents; here it is
/// asserted at the workspace level for 1 vs 8 threads.
#[test]
fn fig5_curves_are_bit_identical_for_one_and_eight_threads() {
    let library = CellLibrary::coldflux();
    let serial = Fig5Experiment {
        chips: 26, // not a multiple of 8: exercises ragged chunking
        messages_per_chip: 12,
        threads: 1,
        ..Fig5Experiment::paper_setup()
    };
    let eight = Fig5Experiment {
        threads: 8,
        ..serial
    };
    for kind in [EncoderKind::Hamming84, EncoderKind::SecDed(3)] {
        let design = EncoderDesign::build(kind);
        let a = serial.run_design(&design, &library);
        let b = eight.run_design(&design, &library);
        assert_eq!(
            a.errors_per_chip,
            b.errors_per_chip,
            "scalar path diverged across thread counts for {}",
            design.name()
        );
        let a = serial.run_design_batched(&design, &library);
        let b = eight.run_design_batched(&design, &library);
        assert_eq!(
            a.errors_per_chip,
            b.errors_per_chip,
            "batched path diverged across thread counts for {}",
            design.name()
        );
    }
}

/// The wide-word scenario: SEC-DED(72,64) words through the
/// cryo link under ±20 % PPV, on both the scalar pulse-level path and the
/// bit-sliced batch driver. The curves must agree: overlapping 95 % Wilson
/// intervals on the zero-error probability and a small gap between the point
/// estimates (the batch fault model is a correlated approximation, not a
/// bit-exact replay).
#[test]
fn wide_word_secded72_scenario_agrees_between_scalar_and_batched() {
    let library = CellLibrary::coldflux();
    let experiment = Fig5Experiment::wide_word_setup();
    let design = EncoderDesign::build(EncoderKind::SecDed(6));
    assert_eq!((design.n(), design.k()), (72, 64));

    let scalar = experiment.run_design(&design, &library);
    let batched = experiment.run_design_batched(&design, &library);
    assert_eq!(scalar.chips(), experiment.chips);
    assert_eq!(batched.chips(), experiment.chips);

    let s = scalar.zero_error_probability();
    let b = batched.zero_error_probability();
    let s_ci = scalar.zero_error_wilson_interval(1.96);
    let b_ci = batched.zero_error_wilson_interval(1.96);
    assert!(
        s_ci.0 <= b_ci.1 && b_ci.0 <= s_ci.1,
        "Wilson intervals must overlap: scalar {s_ci:?} vs batched {b_ci:?}"
    );
    // The gap budget covers both the systematic approximation error and the
    // sampling noise of two independent draws at this chip count (σ of the
    // difference ≈ 0.07): the cancellation-aware netlists share wider XOR
    // cones, which strengthens the correlated-flip approximation's bias a
    // little compared to the Paar-era netlists.
    assert!(
        (s - b).abs() <= 0.15,
        "zero-error probabilities must track: scalar {s} vs batched {b}"
    );
    // Both paths see a meaningfully faulty process at this scale: the chips
    // are not all perfect, and not all broken.
    assert!(s > 0.5 && s < 1.0, "scalar zero-error {s}");
    assert!(b > 0.5 && b < 1.0, "batched zero-error {b}");
}

/// The multi-error claim, measured across the BCH registry: under the
/// correlated per-cell fault model with no retransmission path
/// ([`ErrorCounting::AnyWrong`]), both multi-error BCH links beat the
/// classic SEC-DED(72,64) link on zero-error probability — asserted as
/// non-overlap of 95 % Wilson intervals, not as point comparisons. A spread
/// sweep locates *where* the win appears: at zero process spread all three
/// links are perfect and indistinguishable; by the paper's ±20 % each BCH
/// lower bound has cleared the SEC-DED upper bound decisively, because a
/// faulty cell whose fan-out cone spans two or three codeword bits is
/// corrected by `t ≥ 2` but only flagged (= erroneous without
/// retransmission) by SEC-DED.
///
/// Between the two BCH members the *smaller circuit* wins: the BCH(63,45)
/// encoder carries ~3× the JJ count of BCH(31,16)'s, so its chips fault
/// proportionally more often, and the extra unit of correction radius does
/// not buy the exposure back under this fault model (measured ≈ 0.42 vs
/// 0.57 zero-error). That is the same circuit-size effect the paper's own
/// Fig. 5 exhibits between RM(1,3) and Hamming(8,4) — two codes with
/// identical weight distributions (see `paper_claims.rs`) — coding power
/// and hardware exposure trade off.
#[test]
fn bch_registry_beats_secded72_with_separated_wilson_intervals() {
    use sfq_ecc::ecc::BchSpec;
    let library = CellLibrary::coldflux();
    let bch63 = EncoderDesign::build(EncoderKind::Bch(BchSpec::BCH_63_45));
    let bch31 = EncoderDesign::build(EncoderKind::Bch(BchSpec::BCH_31_16));
    let secded = EncoderDesign::build(EncoderKind::SecDed(6));
    assert_eq!((bch63.n(), bch63.k()), (63, 45));
    assert_eq!((bch31.n(), bch31.k()), (31, 16));

    let curves = |spread: f64| {
        let experiment = Fig5Experiment {
            ppv: sfq_ecc::sim::PpvModel::paper_defaults().with_spread(spread),
            threads: 4,
            ..Fig5Experiment::multi_error_setup()
        };
        [
            experiment.run_design_batched(&bch63, &library),
            experiment.run_design_batched(&bch31, &library),
            experiment.run_design_batched(&secded, &library),
        ]
    };

    // Sweep point 1 — no process spread: every link delivers everything.
    for curve in curves(0.0) {
        assert!((curve.zero_error_probability() - 1.0).abs() < 1e-12);
    }

    // Sweep point 2 — the paper's ±20 %: both BCH intervals separate from
    // SEC-DED's, with each BCH lower bound clear of the SEC-DED upper bound.
    let [b63, b31, sd] = curves(0.20);
    let b63_ci = b63.zero_error_wilson_interval(1.96);
    let b31_ci = b31.zero_error_wilson_interval(1.96);
    let sd_ci = sd.zero_error_wilson_interval(1.96);
    for (name, ci) in [("BCH(63,45)", b63_ci), ("BCH(31,16)", b31_ci)] {
        assert!(
            ci.0 > sd_ci.1,
            "{name} must significantly beat SEC-DED(72,64) at ±20 % spread \
             ({ci:?} vs secded {sd_ci:?})"
        );
    }
    // And the wins are substantive, not boundary grazes.
    assert!(
        b63.mean_errors() < sd.mean_errors() && b31.mean_errors() < sd.mean_errors(),
        "bch means {} / {} vs secded mean {}",
        b63.mean_errors(),
        b31.mean_errors(),
        sd.mean_errors()
    );
    // The circuit-size effect holds at this chip count with fully separated
    // intervals, so a point comparison is stable: the ~3× larger BCH(63,45)
    // encoder loses zero-error probability to BCH(31,16) despite radius 3.
    assert!(
        b63.zero_error_probability() < b31.zero_error_probability(),
        "expected the smaller circuit to win: bch63 {} vs bch31 {}",
        b63.zero_error_probability(),
        b31.zero_error_probability()
    );
}

/// Counting flagged messages as erroneous can only lower the zero-error
/// probability, and the CDF is monotone non-decreasing in N.
#[test]
fn fig5_cdf_is_monotone_and_counting_policy_behaves() {
    let library = CellLibrary::coldflux();
    let base = Fig5Experiment {
        chips: 150,
        messages_per_chip: 40,
        threads: 4,
        ..Fig5Experiment::paper_setup()
    };
    let design = EncoderDesign::build(EncoderKind::Hamming84);
    let silent = base.run_design(&design, &library);
    let any = Fig5Experiment {
        counting: ErrorCounting::AnyWrong,
        ..base
    }
    .run_design(&design, &library);

    assert!(any.zero_error_probability() <= silent.zero_error_probability() + 1e-12);
    let mut last = 0.0;
    for n in 0..=base.messages_per_chip {
        let value = silent.cdf(n);
        assert!(value + 1e-12 >= last, "CDF must be monotone at N={n}");
        last = value;
    }
    assert!((silent.cdf(base.messages_per_chip) - 1.0).abs() < 1e-12);
}

/// Chips sampled at a tighter spread produce no more faults than chips
/// sampled at the paper's ±20 %, for the same seed.
#[test]
fn ppv_fault_count_scales_with_spread() {
    let library = CellLibrary::coldflux();
    let design = EncoderDesign::build(EncoderKind::Rm13);
    let count_faults = |spread: f64| -> usize {
        let model = PpvModel::paper_defaults().with_spread(spread);
        let mut rng = StdRng::seed_from_u64(1234);
        (0..200)
            .map(|_| {
                model
                    .sample_chip(design.netlist(), &library, &mut rng)
                    .faults
                    .faulty_count()
            })
            .sum()
    };
    let tight = count_faults(0.10);
    let paper = count_faults(0.20);
    let loose = count_faults(0.30);
    assert!(tight <= paper, "{tight} > {paper}");
    assert!(paper <= loose, "{paper} > {loose}");
}
