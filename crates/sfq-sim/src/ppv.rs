//! Process-parameter-variation (PPV) modelling.
//!
//! JoSIM's `spread` function (used by the paper) assigns every circuit
//! parameter — junction critical currents, inductances, resistances — an
//! independent deviation of up to ±20 % of its nominal value; each sampled
//! assignment corresponds to one fabricated chip. This module reproduces the
//! statistical effect of that procedure at the cell level:
//!
//! 1. for every Josephson junction of every cell, deviations are sampled for
//!    the three parameter classes (critical current, inductance, resistance);
//! 2. each cell's margin specification ([`sfq_cells::MarginSpec`]) defines the
//!    deviation envelope inside which the cell still operates; the *critical
//!    threshold* of each junction is itself uncertain (design corners,
//!    local defects), modelled by a lognormal-ish perturbation of the nominal
//!    margin;
//! 3. a junction pushed beyond its threshold hard-fails its cell; a junction
//!    close to the threshold contributes an intermittent (per-activation)
//!    malfunction probability, reflecting thermally assisted switching errors
//!    in a cell with almost-collapsed margins.
//!
//! The outcome is a [`FaultMap`] per sampled chip. Because the probability
//! that *some* junction of a cell leaves its margin grows with the number of
//! junctions, encoders with more JJs fail more often — the physical-size
//! versus code-strength trade-off that Fig. 5 of the paper demonstrates.
//!
//! # Exactness contract
//!
//! [`PpvModel::sample_chip`] is the model written with `powf`, reproduced
//! bit for bit: for a given RNG state it makes the same draws in the same
//! order, and every stored bit — each `activation_failure_prob`, failure
//! mode, and count — equals what the loop `survive *= 1.0 - (m *
//! stress.powf(12.0)).min(1.0)` produces (`m` is
//! [`PpvModel::marginal_failure_prob`]). `powf` costs more than the rest of
//! the sampler, so each junction's survival factor is first formed from
//! `q̂ = m·s¹²` with `s¹² = (s⁴)³` by repeated squaring. For `q̂ ≤ ¼`,
//! Fast2Sum gives `hi = 1 − q̂` and its exact residual `lo`, and `hi` is
//! kept when `|lo| + 10⁻¹³·q̂ < 2⁻⁵⁴`, half the spacing of doubles in
//! `[½, 1)`; otherwise the `powf` expression runs. The squaring chain, the
//! two products with `m`, and a `pow` accurate to 1 ulp put `q̂` within
//! 15·2⁻⁵³ ≈ 1.7·10⁻¹⁵ (about 8 ulps) of the `powf` model's `q`, relative,
//! so the `10⁻¹³` margin is about 60× that gap: the exact `1 − q` then
//! lies less than 2⁻⁵⁴ from `hi` and rounds to it. When `s¹²` falls below
//! the normal range the relative bound does not hold, but then both `q̂`
//! and `q` are far below 2⁻⁵⁴ and both factors are exactly 1. About 97 %
//! of factors at paper defaults are certified; the rest (large stresses
//! and near-ties) take the `powf` path.

use crate::fault::{CellFault, FailureMode, FaultMap};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sfq_cells::{CellLibrary, MarginSpec, ParameterClass};
use sfq_netlist::{Netlist, NodeKind};

/// Exponent of the intermittent-failure law `q = m·stress¹²`: how quickly
/// a junction's malfunction probability falls off below its threshold
/// (larger = only near-critical junctions misbehave). The certified path
/// of [`certified_survival_factor`] computes this power as `(s⁴)³`.
const STRESS_EXPONENT: f64 = 12.0;

/// Relative gap allowed between the squaring chain's `q̂` and the `powf`
/// model's `q` when certifying a survival factor (see the module docs).
const CERTIFY_REL: f64 = 1e-13;

/// Half the spacing of doubles in `[½, 1)`: `2⁻⁵⁴`.
const HALF_ULP_BELOW_ONE: f64 = f64::EPSILON / 4.0;

/// One junction parameter's survival factor `1 − min(m·s¹², 1)`, computed
/// by squaring when its rounding is certified to equal `1.0 - (m *
/// s.powf(12.0)).min(1.0)`; `None` means not certified.
fn certified_survival_factor(m: f64, stress: f64) -> Option<f64> {
    let s2 = stress * stress;
    let s4 = s2 * s2;
    let q = m * (s4 * s4 * s4);
    if !(0.0..=0.25).contains(&q) {
        return None;
    }
    // Fast2Sum (|1| ≥ |q|): `hi + lo` is exactly `1 − q`.
    let hi = 1.0 - q;
    let lo = (1.0 - hi) - q;
    (lo.abs() + CERTIFY_REL * q < HALF_ULP_BELOW_ONE).then_some(hi)
}

/// Parameters of the PPV fault model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpvModel {
    /// Maximum relative parameter deviation (JoSIM `spread`); the paper uses
    /// 0.20 (±20 %).
    pub spread: f64,
    /// Relative uncertainty of each junction's critical margin (how much the
    /// failure surface itself varies from junction to junction); models local
    /// defects and the difference between single-parameter and combined
    /// margins.
    pub margin_sigma: f64,
    /// Per-activation malfunction probability of a cell whose worst junction
    /// sits exactly at its critical threshold.
    pub marginal_failure_prob: f64,
    /// Global scale factor applied to every cell's margin envelope. This is
    /// the single calibration knob used to pin the uncoded 4-bit link to the
    /// paper's 80 % zero-error anchor point (see `cryolink::calibrate`);
    /// values above 1 model more robust cells, values below 1 tighter
    /// margins.
    pub margin_scale: f64,
    /// Fraction of malfunctions that manifest as spurious pulses rather than
    /// dropped pulses.
    pub spurious_fraction: f64,
    /// Cells whose sampled per-activation malfunction probability falls below
    /// this floor are treated as healthy (keeps the fault maps sparse and the
    /// Monte-Carlo loops fast without affecting the statistics).
    pub min_failure_prob: f64,
}

impl PpvModel {
    /// The model configuration used to reproduce Fig. 5: ±20 % spread and the
    /// calibration chosen so that the uncoded 4-bit link lands near the
    /// paper's 80 % zero-error probability anchor (see DESIGN.md §4).
    #[must_use]
    pub fn paper_defaults() -> Self {
        PpvModel {
            spread: 0.20,
            margin_sigma: 0.10,
            marginal_failure_prob: 0.35,
            spurious_fraction: 0.15,
            // Produced by `cargo run --release --example calibrate`: pins the
            // uncoded 4-bit link to the paper's 80.0 % zero-error anchor at
            // 1000 chips x 100 messages (achieved 0.799).
            margin_scale: 1.0699,
            min_failure_prob: 1e-4,
        }
    }

    /// Returns a copy with a different spread (used for the ±10 %/±30 %
    /// ablation sweeps).
    #[must_use]
    pub fn with_spread(mut self, spread: f64) -> Self {
        self.spread = spread;
        self
    }

    /// Returns a copy with a different margin scale (the calibration knob).
    #[must_use]
    pub fn with_margin_scale(mut self, margin_scale: f64) -> Self {
        self.margin_scale = margin_scale;
        self
    }

    /// Samples the malfunction probability of a single cell with `jj_count`
    /// junctions and margin envelope `margins`.
    ///
    /// Returns `(activation_failure_prob, hard_failed)`.
    fn sample_cell<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        jj_count: u32,
        margins: &MarginSpec,
    ) -> (f64, bool) {
        let mut survive_prob = 1.0f64;
        let mut hard_failed = false;
        for _ in 0..jj_count {
            for class in ParameterClass::ALL {
                let deviation = rng.random_range(-self.spread..=self.spread).abs();
                let nominal_margin = margins.for_class(class) * self.margin_scale;
                // The effective threshold of this particular junction: the
                // nominal margin perturbed by design/fabrication uncertainty.
                let noise: f64 = rng.random_range(-1.0..=1.0);
                let threshold = (nominal_margin * (1.0 + self.margin_sigma * noise)).max(1e-6);
                if deviation >= threshold {
                    hard_failed = true;
                } else {
                    let stress = deviation / threshold;
                    let m = self.marginal_failure_prob;
                    survive_prob *= certified_survival_factor(m, stress)
                        .unwrap_or_else(|| 1.0 - (m * stress.powf(STRESS_EXPONENT)).min(1.0));
                }
            }
        }
        if hard_failed {
            (1.0, true)
        } else {
            (1.0 - survive_prob, false)
        }
    }

    /// Samples one fabricated chip: a [`FaultMap`] for every cell of the
    /// netlist, using the per-cell JJ counts and margins of `library`.
    ///
    /// The draws are fixed: per junction and parameter class one deviation
    /// and one threshold draw, then one failure-mode draw per faulty cell,
    /// in netlist order. The result equals the `powf` formulation of the
    /// model bit for bit (see the module docs' exactness contract), and so
    /// does every Fig. 5 count built on it.
    pub fn sample_chip<R: Rng + ?Sized>(
        &self,
        netlist: &Netlist,
        library: &CellLibrary,
        rng: &mut R,
    ) -> ChipSample {
        let mut faults = FaultMap::healthy(netlist);
        let mut hard_failures = 0usize;
        let mut marginal_cells = 0usize;
        for node in netlist.nodes() {
            let NodeKind::Cell(kind) = node.kind else {
                continue;
            };
            let params = library.params(kind);
            let (prob, hard) = self.sample_cell(rng, params.jj_count, &params.margins);
            if prob >= self.min_failure_prob {
                let mode = if rng.random::<f64>() < self.spurious_fraction {
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
                if hard {
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
}

impl Default for PpvModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// One sampled chip: the fault map plus summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipSample {
    /// Per-cell fault assignment.
    pub faults: FaultMap,
    /// Number of cells with a hard (always-failing) fault.
    pub hard_failures: usize,
    /// Number of cells with an intermittent fault.
    pub marginal_cells: usize,
}

impl ChipSample {
    /// Returns `true` if every cell on this chip is healthy.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.faults.is_healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfq_cells::CellKind;
    use sfq_netlist::Netlist;

    fn netlist_with_cells(kind: CellKind, count: usize) -> Netlist {
        let mut nl = Netlist::new("cells");
        for i in 0..count {
            nl.add_cell(kind, format!("cell{i}"));
        }
        nl
    }

    #[test]
    fn zero_spread_produces_healthy_chips() {
        let model = PpvModel::paper_defaults().with_spread(0.0);
        let lib = CellLibrary::coldflux();
        let nl = netlist_with_cells(CellKind::Xor, 20);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let chip = model.sample_chip(&nl, &lib, &mut rng);
            assert!(chip.is_healthy());
        }
    }

    #[test]
    fn larger_spread_means_more_faults() {
        let lib = CellLibrary::coldflux();
        let nl = netlist_with_cells(CellKind::Xor, 50);
        let count_faulty = |spread: f64, seed: u64| -> usize {
            let model = PpvModel::paper_defaults().with_spread(spread);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200)
                .map(|_| model.sample_chip(&nl, &lib, &mut rng).faults.faulty_count())
                .sum()
        };
        let low = count_faulty(0.10, 11);
        let high = count_faulty(0.30, 11);
        assert!(
            high > low,
            "fault count should grow with spread (low={low}, high={high})"
        );
    }

    #[test]
    fn cells_with_more_jjs_fail_more_often() {
        let lib = CellLibrary::coldflux();
        let model = PpvModel::paper_defaults().with_spread(0.30);
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 400;
        let mut count_for = |kind: CellKind| -> usize {
            let nl = netlist_with_cells(kind, 1);
            (0..trials)
                .filter(|_| !model.sample_chip(&nl, &lib, &mut rng).is_healthy())
                .count()
        };
        let xor_failures = count_for(CellKind::Xor); // 11 JJs
        let jtl_failures = count_for(CellKind::Jtl); // 2 JJs
        assert!(
            xor_failures > jtl_failures,
            "XOR (11 JJ) should fail more often than JTL (2 JJ): {xor_failures} vs {jtl_failures}"
        );
    }

    #[test]
    fn sampled_probabilities_are_valid() {
        let lib = CellLibrary::coldflux();
        let model = PpvModel::paper_defaults().with_spread(0.25);
        let nl = netlist_with_cells(CellKind::Dff, 30);
        let mut rng = StdRng::seed_from_u64(5);
        let chip = model.sample_chip(&nl, &lib, &mut rng);
        for (_, fault) in chip.faults.iter_faulty() {
            assert!(fault.activation_failure_prob > 0.0);
            assert!(fault.activation_failure_prob <= 1.0);
        }
        assert_eq!(
            chip.hard_failures + chip.marginal_cells,
            chip.faults.faulty_count()
        );
    }

    #[test]
    fn paper_defaults_spread_is_twenty_percent() {
        let model = PpvModel::paper_defaults();
        assert!((model.spread - 0.20).abs() < 1e-12);
    }

    /// Asserts that every certified factor among `stresses` is bit-equal to
    /// the `powf` formulation; returns how many were certified.
    fn assert_certified_factors_exact(m: f64, stresses: impl IntoIterator<Item = f64>) -> usize {
        let mut certified = 0;
        for stress in stresses {
            if let Some(factor) = certified_survival_factor(m, stress) {
                assert_eq!(
                    factor.to_bits(),
                    (1.0 - (m * stress.powf(12.0)).min(1.0)).to_bits(),
                    "certified factor differs from powf at stress {stress:e}"
                );
                certified += 1;
            }
        }
        certified
    }

    #[test]
    fn certified_factor_matches_powf_on_uniform_stresses() {
        let m = PpvModel::paper_defaults().marginal_failure_prob;
        let mut rng = StdRng::seed_from_u64(0x5eed_0012);
        let trials = 1_000_000;
        let certified = assert_certified_factors_exact(m, (0..trials).map(|_| rng.random::<f64>()));
        // Stresses up to about 0.58 (q̂ below ~5e-4) certify.
        assert!(
            certified > trials / 2,
            "only {certified} of {trials} uniform stresses certified"
        );
    }

    #[test]
    fn certified_factor_matches_powf_next_to_rounding_midpoints() {
        // Aim m·s¹² at a midpoint (j + ½)·2⁻⁵³ between two doubles below 1,
        // where `1 − q` is closest to a tie, then step `s` by ±1…8 ulps.
        let m = PpvModel::paper_defaults().marginal_failure_prob;
        let mut rng = StdRng::seed_from_u64(0x00d1_7a11);
        let mut stresses = Vec::new();
        for _ in 0..20_000 {
            let bits = rng.random_range(1..=51u32);
            let j = rng.random_range(0..1u64 << bits);
            let midpoint = (j as f64 + 0.5) * (f64::EPSILON / 2.0);
            let aimed = (midpoint / m).powf(1.0 / 12.0).to_bits();
            for step in 1..=8 {
                stresses.push(f64::from_bits(aimed + step));
                stresses.push(f64::from_bits(aimed - step));
            }
        }
        assert_certified_factors_exact(m, stresses);
    }

    #[test]
    fn most_paper_default_stresses_take_the_certified_path() {
        // Draw stresses the way `sample_cell` does, over the cells of the
        // paper's Hamming(8,4) encoder (its netlist's cell counts).
        const HAMMING_8_4_CELLS: [(CellKind, usize); 4] = [
            (CellKind::Splitter, 23),
            (CellKind::Dff, 8),
            (CellKind::SfqToDc, 8),
            (CellKind::Xor, 6),
        ];
        let model = PpvModel::paper_defaults();
        let lib = CellLibrary::coldflux();
        let mut rng = StdRng::seed_from_u64(0x0ce1_1500);
        let (mut certified, mut total) = (0usize, 0usize);
        for _ in 0..1_000 {
            for (kind, count) in HAMMING_8_4_CELLS {
                let params = lib.params(kind);
                for _ in 0..count as u32 * params.jj_count {
                    for class in ParameterClass::ALL {
                        let deviation = rng.random_range(-model.spread..=model.spread).abs();
                        let nominal_margin = params.margins.for_class(class) * model.margin_scale;
                        let noise: f64 = rng.random_range(-1.0..=1.0);
                        let threshold =
                            (nominal_margin * (1.0 + model.margin_sigma * noise)).max(1e-6);
                        if deviation < threshold {
                            let stress = deviation / threshold;
                            total += 1;
                            certified += usize::from(
                                certified_survival_factor(model.marginal_failure_prob, stress)
                                    .is_some(),
                            );
                        }
                    }
                }
            }
        }
        let share = certified as f64 / total as f64;
        assert!(
            share >= 0.95,
            "only {certified} of {total} paper-default stresses certified ({share:.3})"
        );
    }
}
