//! Ablation studies around the paper's Fig. 5 experiment.
//!
//! The paper evaluates a single operating point (±20 % spread, silent-error
//! counting, ideal channel). These sweeps explore the design space around it:
//!
//! * [`spread_sweep`] — how the zero-error probability of each encoder scales
//!   with the parameter spread (±10 %, ±20 %, ±30 %, matching the design
//!   guidelines cited in the introduction);
//! * [`counting_comparison`] — silent-error counting (error flags help)
//!   versus any-wrong counting (no retransmission path);
//! * [`channel_noise_sweep`] — adding receiver noise on the cryo cable, which
//!   shifts errors from PPV-induced to channel-induced and shows the coding
//!   gain of each encoder in the regime reference \[14\] targets.

use crate::channel::ChannelConfig;
use crate::montecarlo::{ErrorCounting, Fig5Experiment};
use encoders::EncoderKind;
use serde::{Deserialize, Serialize};
use sfq_cells::CellLibrary;

/// Zero-error probability of every design at one operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Label of the swept parameter value (e.g. `"spread=0.20"`).
    pub label: String,
    /// `(design, zero-error probability)` pairs in the paper's design order.
    pub zero_error: Vec<(EncoderKind, f64)>,
}

impl OperatingPoint {
    /// Zero-error probability of one design at this point.
    #[must_use]
    pub fn probability(&self, kind: EncoderKind) -> Option<f64> {
        self.zero_error
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| *p)
    }
}

fn run_point(base: &Fig5Experiment, label: String, library: &CellLibrary) -> OperatingPoint {
    let result = base.run_all(library);
    OperatingPoint {
        label,
        zero_error: result.zero_error_summary(),
    }
}

/// Sweeps the parameter spread and reports the zero-error probability of all
/// designs at each spread value.
#[must_use]
pub fn spread_sweep(
    base: &Fig5Experiment,
    spreads: &[f64],
    library: &CellLibrary,
) -> Vec<OperatingPoint> {
    spreads
        .iter()
        .map(|&spread| {
            let experiment = Fig5Experiment {
                ppv: base.ppv.with_spread(spread),
                ..*base
            };
            run_point(
                &experiment,
                format!("spread=±{:.0}%", spread * 100.0),
                library,
            )
        })
        .collect()
}

/// Compares the two error-counting policies at the base operating point.
#[must_use]
pub fn counting_comparison(base: &Fig5Experiment, library: &CellLibrary) -> Vec<OperatingPoint> {
    [ErrorCounting::SilentOnly, ErrorCounting::AnyWrong]
        .iter()
        .map(|&counting| {
            let experiment = Fig5Experiment { counting, ..*base };
            let label = match counting {
                ErrorCounting::SilentOnly => "count silent errors only".to_string(),
                ErrorCounting::AnyWrong => "count flagged + silent errors".to_string(),
            };
            run_point(&experiment, label, library)
        })
        .collect()
}

/// Sweeps the receiver signal-to-noise ratio with a *fault-free* encoder, so
/// that the channel is the only error source — the classical coding-gain
/// picture that motivates placing an ECC encoder on the SFQ chip at all.
#[must_use]
pub fn channel_noise_sweep(
    base: &Fig5Experiment,
    snrs_db: &[f64],
    library: &CellLibrary,
) -> Vec<OperatingPoint> {
    snrs_db
        .iter()
        .map(|&snr| {
            let experiment = Fig5Experiment {
                ppv: base.ppv.with_spread(0.0),
                channel: ChannelConfig::with_snr_db(snr),
                ..*base
            };
            run_point(&experiment, format!("SNR={snr:.0} dB"), library)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> Fig5Experiment {
        Fig5Experiment {
            chips: 40,
            messages_per_chip: 20,
            threads: 2,
            ..Fig5Experiment::paper_setup()
        }
    }

    #[test]
    fn spread_sweep_is_monotone_for_uncoded_link() {
        let lib = CellLibrary::coldflux();
        let points = spread_sweep(&tiny_base(), &[0.0, 0.30], &lib);
        let p0 = points[0].probability(EncoderKind::None).unwrap();
        let p30 = points[1].probability(EncoderKind::None).unwrap();
        assert!((p0 - 1.0).abs() < 1e-12);
        assert!(p30 <= p0);
    }

    #[test]
    fn counting_any_wrong_is_never_better_than_silent_only() {
        let lib = CellLibrary::coldflux();
        let points = counting_comparison(&tiny_base(), &lib);
        for kind in EncoderKind::ALL {
            let silent = points[0].probability(kind).unwrap();
            let any = points[1].probability(kind).unwrap();
            assert!(any <= silent + 1e-12, "{kind:?}: {any} > {silent}");
        }
    }

    #[test]
    fn coded_designs_beat_uncoded_on_a_noisy_channel() {
        let lib = CellLibrary::coldflux();
        let points = channel_noise_sweep(&tiny_base(), &[11.0], &lib);
        let point = &points[0];
        let uncoded = point.probability(EncoderKind::None).unwrap();
        let hamming84 = point.probability(EncoderKind::Hamming84).unwrap();
        assert!(
            hamming84 >= uncoded,
            "Hamming(8,4) {hamming84} should not be worse than uncoded {uncoded}"
        );
    }
}
