//! The Fig. 5 Monte-Carlo experiment.
//!
//! The paper's setup: 100 random 4-bit messages are sent through each encoder
//! circuit; the whole experiment is repeated 1000 times, each repetition with
//! an independently sampled set of process-parameter deviations of up to
//! ±20 % ("each iteration can be viewed as a distinct fabricated chip"). The
//! result is the cumulative distribution of the number of erroneous messages
//! per 100 transmissions, one curve per encoder, plus the "no encoder"
//! baseline.

use crate::channel::ChannelConfig;
use crate::link::{CryoLink, LinkOutcome};
use encoders::{EncoderDesign, EncoderKind};
use gf2::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sfq_cells::CellLibrary;
use sfq_sim::PpvModel;

/// How an "erroneous message" is counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCounting {
    /// Only silent errors count: a message flagged by the decoder's error
    /// flag (Fig. 1) is considered handled by the system (e.g. retransmitted)
    /// rather than erroneous. This is the counting that reproduces the
    /// relative ordering of Fig. 5.
    SilentOnly,
    /// Both silent errors and flagged-uncorrectable messages count as
    /// erroneous (no retransmission path). Used by the ablation study.
    AnyWrong,
}

/// Configuration of the Fig. 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5Experiment {
    /// Number of independently sampled chips (the paper uses 1000).
    pub chips: usize,
    /// Number of random messages per chip (the paper uses 100).
    pub messages_per_chip: usize,
    /// PPV model (spread, margins, calibration).
    pub ppv: PpvModel,
    /// Cable / receiver configuration.
    pub channel: ChannelConfig,
    /// Error-counting policy.
    pub counting: ErrorCounting,
    /// Base RNG seed; chip `i` uses `seed + i` so runs are reproducible and
    /// trivially parallelizable.
    pub seed: u64,
    /// Number of worker threads (1 = run serially). The constructors default
    /// this to [`default_thread_count`] (the machine's available
    /// parallelism); set it explicitly to override. Per-chip results are
    /// bit-identical regardless of the value.
    pub threads: usize,
}

impl Fig5Experiment {
    /// The paper's configuration: 1000 chips × 100 messages at ±20 % spread.
    #[must_use]
    pub fn paper_setup() -> Self {
        Fig5Experiment {
            chips: 1000,
            messages_per_chip: 100,
            ppv: PpvModel::paper_defaults(),
            channel: ChannelConfig::ideal(),
            counting: ErrorCounting::SilentOnly,
            seed: 0x5f5_ecc,
            threads: default_thread_count(),
        }
    }

    /// A reduced configuration for unit tests and quick smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Fig5Experiment {
            chips: 120,
            messages_per_chip: 50,
            ..Self::paper_setup()
        }
    }

    /// The wide-word scenario: a Fig. 5-style Monte-Carlo sized for the
    /// SEC-DED(72,64) memory-word link (build the design with
    /// `EncoderKind::SecDed(6)`).
    ///
    /// The synthesized 64-bit encoder has an order of magnitude more cells
    /// than the paper's 4-bit circuits, so chips fault more often and the
    /// pulse-level scalar path costs ~18× more per message; the chip and
    /// message counts are reduced accordingly. Both [`Fig5Experiment::run_design`]
    /// (pulse-level oracle) and [`Fig5Experiment::run_design_batched`]
    /// (bit-sliced driver) accept this configuration; the workspace tests
    /// check their curves agree.
    #[must_use]
    pub fn wide_word_setup() -> Self {
        Fig5Experiment {
            chips: 80,
            messages_per_chip: 25,
            seed: 0x0726_4ecc,
            ..Self::paper_setup()
        }
    }

    /// The multi-error scenario: the BCH registry — radius-3 BCH(63,45) and
    /// radius-2 BCH(31,16) — against the classic SEC-DED(72,64) under the
    /// correlated per-cell fault model.
    ///
    /// Counting is [`ErrorCounting::AnyWrong`] — no retransmission path — so
    /// *correction* power decides the curve, not just detection: a faulty
    /// splitter that flips two codeword bits of one word is corrected by the
    /// radius-2 BCH decoders but can only be flagged by SEC-DED, and a
    /// three-bit burst only by the radius-3 member. Under the paper's
    /// `SilentOnly` counting both outcomes look alike and the comparison
    /// degenerates.
    #[must_use]
    pub fn multi_error_setup() -> Self {
        Fig5Experiment {
            chips: 300,
            messages_per_chip: 40,
            counting: ErrorCounting::AnyWrong,
            seed: 0x3116_2ecc,
            ..Self::paper_setup()
        }
    }

    /// Runs the multi-error comparison through the batch path: one curve
    /// each for BCH(63,45), BCH(31,16), and SEC-DED(72,64), strongest
    /// decoder first (the Fig. 5-style view of where `t = 2` and `t = 3`
    /// pay for their extra parity bits).
    #[must_use]
    pub fn run_multi_error_comparison(&self, library: &CellLibrary) -> Fig5Result {
        use ecc::BchSpec;
        let curves = [
            EncoderKind::Bch(BchSpec::BCH_63_45),
            EncoderKind::Bch(BchSpec::BCH_31_16),
            EncoderKind::SecDed(6),
        ]
        .iter()
        .map(|&kind| {
            let design = EncoderDesign::build(kind);
            self.run_design_batched(&design, library)
        })
        .collect();
        Fig5Result {
            experiment: *self,
            curves,
        }
    }

    /// Runs the experiment for one encoder design.
    #[must_use]
    pub fn run_design(&self, design: &EncoderDesign, library: &CellLibrary) -> Fig5Curve {
        let (errors_per_chip, parallelism) = self.simulate_chips(design, library);
        let mut curve = Fig5Curve::from_error_counts(
            design.kind(),
            design.name().to_string(),
            self.messages_per_chip,
            errors_per_chip,
        );
        curve.parallelism = parallelism;
        curve
    }

    /// Runs the experiment for one design through the bit-sliced batch path
    /// ([`crate::BatchLink`]).
    ///
    /// Chip sampling is identical to [`Fig5Experiment::run_design`] (same
    /// per-chip seeds, same PPV model); the per-message inner loop uses the
    /// batch codec with correlated per-faulty-cell error sources derived
    /// from each chip's fault map instead of pulse-level simulation. This
    /// trades exact pulse timing for orders-of-magnitude higher message
    /// throughput; the scalar path remains the reference oracle.
    #[must_use]
    pub fn run_design_batched(&self, design: &EncoderDesign, library: &CellLibrary) -> Fig5Curve {
        use crate::batch_link::{BatchLink, BatchLinkContext, LinkScratch};
        use gf2::BitSlice64;

        // Everything that depends only on the design — codec, fan-out
        // cones, pipeline depth — is computed once and shared by every
        // worker; each worker keeps one rebindable link plus reusable
        // message/decode buffers, so the per-chip loop allocates nothing
        // beyond the sampled fault map itself.
        let context = BatchLinkContext::new(design);
        struct Worker<'a> {
            link: BatchLink<'a>,
            messages: BitSlice64,
            scratch: LinkScratch,
        }
        let (errors_per_chip, parallelism) = parallel_chip_map(
            self.chips,
            self.threads,
            &|| Worker {
                link: BatchLink::new(design, &context),
                messages: BitSlice64::default(),
                scratch: LinkScratch::new(),
            },
            &|chip_index, worker| {
                let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(chip_index));
                let chip = self.ppv.sample_chip(design.netlist(), library, &mut rng);
                worker.link.rebind(&chip.faults, self.channel);
                worker.link.random_messages_into(
                    self.messages_per_chip,
                    &mut rng,
                    &mut worker.messages,
                );
                let stats = worker.link.transmit_batch_with(
                    &worker.messages,
                    &mut rng,
                    &mut worker.scratch,
                );
                stats.erroneous(self.counting == ErrorCounting::SilentOnly)
            },
        );
        let mut curve = Fig5Curve::from_error_counts(
            design.kind(),
            design.name().to_string(),
            self.messages_per_chip,
            errors_per_chip,
        );
        curve.parallelism = parallelism;
        curve
    }

    /// Runs the batched experiment for all four designs of the paper.
    #[must_use]
    pub fn run_all_batched(&self, library: &CellLibrary) -> Fig5Result {
        let curves = EncoderKind::ALL
            .iter()
            .map(|&kind| {
                let design = EncoderDesign::build(kind);
                self.run_design_batched(&design, library)
            })
            .collect();
        Fig5Result {
            experiment: *self,
            curves,
        }
    }

    /// Runs the experiment for all four designs of the paper (three encoders
    /// plus the uncoded baseline), in the paper's ordering.
    #[must_use]
    pub fn run_all(&self, library: &CellLibrary) -> Fig5Result {
        let curves = EncoderKind::ALL
            .iter()
            .map(|&kind| {
                let design = EncoderDesign::build(kind);
                self.run_design(&design, library)
            })
            .collect();
        Fig5Result {
            experiment: *self,
            curves,
        }
    }

    fn simulate_chips(
        &self,
        design: &EncoderDesign,
        library: &CellLibrary,
    ) -> (Vec<usize>, Parallelism) {
        parallel_chip_map(self.chips, self.threads, &|| (), &|chip, _worker| {
            self.simulate_one_chip(design, library, chip)
        })
    }

    /// Simulates one chip: samples its fault map, sends
    /// `messages_per_chip` random messages, and returns how many of them were
    /// erroneous under the configured counting policy.
    fn simulate_one_chip(
        &self,
        design: &EncoderDesign,
        library: &CellLibrary,
        chip_index: u64,
    ) -> usize {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(chip_index));
        let chip = self.ppv.sample_chip(design.netlist(), library, &mut rng);
        let link = CryoLink::new(design, chip.faults, self.channel);
        let mut erroneous = 0;
        for _ in 0..self.messages_per_chip {
            let message = random_message(design.k(), &mut rng);
            let outcome = link.transmit(&message, &mut rng).outcome;
            let is_error = match self.counting {
                ErrorCounting::SilentOnly => outcome == LinkOutcome::SilentError,
                ErrorCounting::AnyWrong => outcome != LinkOutcome::Correct,
            };
            if is_error {
                erroneous += 1;
            }
        }
        erroneous
    }
}

/// Draws one uniform `k`-bit message.
///
/// For `k ≤ 63` this performs exactly the `random_range(0..2^k)` draw the
/// paper-sized experiments have always used (keeping their RNG streams, and
/// therefore their calibrated curves, bit-identical); wider messages take one
/// full `u64`.
fn random_message<R: Rng + ?Sized>(k: usize, rng: &mut R) -> BitVec {
    assert!(k <= 64, "link messages are at most 64 bits");
    if k < 64 {
        BitVec::from_u64(k, rng.random_range(0..(1u64 << k)))
    } else {
        BitVec::from_u64(64, rng.random::<u64>())
    }
}

/// The default Monte-Carlo worker-thread count: the machine's available
/// parallelism, falling back to 1 when it cannot be queried. Experiment
/// configurations keep an explicit `threads` override; per-chip results are
/// bit-identical regardless of the count (each chip derives its own RNG from
/// its index).
#[must_use]
pub fn default_thread_count() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolved worker layout and measured per-worker load of one experiment
/// run. Reporting-only: nothing downstream consumes it, and the per-chip
/// results it accompanies are bit-identical whatever it contains.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Parallelism {
    /// Number of worker threads that actually ran (after clamping the
    /// configured count to the chip count).
    pub threads: usize,
    /// Chips processed by each worker, in worker order.
    pub chips_per_worker: Vec<usize>,
    /// Wall time each worker spent in its chip loop, nanoseconds. All zeros
    /// when recording is off — utilization is telemetry, never an input to
    /// results.
    pub busy_ns_per_worker: Vec<u64>,
}

impl Parallelism {
    /// Per-worker utilization relative to the busiest worker, in `[0, 1]`
    /// (empty when busy times were not measured).
    #[must_use]
    pub fn utilization(&self) -> Vec<f64> {
        let busiest = self.busy_ns_per_worker.iter().copied().max().unwrap_or(0);
        if busiest == 0 {
            return Vec::new();
        }
        self.busy_ns_per_worker
            .iter()
            .map(|&ns| ns as f64 / busiest as f64)
            .collect()
    }
}

/// Maps chip indices `0..chips` through `per_chip` with the experiment's
/// chunked worker-thread layout. Each worker thread owns one state value
/// from `make_worker` (scratch buffers, rebindable links, …), threaded
/// through every chip it processes — this is what keeps the batched hot
/// path allocation-free. Per-chip results are deterministic regardless of
/// `threads` because each chip derives its own RNG from its index and the
/// worker state carries no chip-to-chip information.
///
/// Each worker also records per-chip wall time into the `fig5.chip_ns`
/// histogram and counts its chips under `fig5.chips` (its own telemetry
/// shards, created inside the worker), and the returned [`Parallelism`]
/// reports the resolved layout and per-worker busy time.
fn parallel_chip_map<S>(
    chips: usize,
    threads: usize,
    make_worker: &(dyn Fn() -> S + Sync),
    per_chip: &(dyn Fn(u64, &mut S) -> usize + Sync),
) -> (Vec<usize>, Parallelism) {
    let threads = threads.max(1).min(chips.max(1));
    // At least 1, so zero chips give the calling thread one empty chunk.
    let chunk = chips.div_ceil(threads).max(1);
    let mut results = vec![0usize; chips];
    // (chips processed, busy ns) per worker; each worker owns one slot, like
    // its disjoint chunk of `results`.
    let mut loads = vec![(0usize, 0u64); chips.div_ceil(chunk).max(1)];
    let work = |first_chip: usize, slice: &mut [usize], load: &mut (usize, u64)| {
        let mut worker = make_worker();
        // Handles created inside the worker are that worker's own shards —
        // no cross-thread contention on the hot path.
        let chip_ns = sfq_telemetry::global().histogram("fig5.chip_ns");
        let chip_count = sfq_telemetry::global().counter("fig5.chips");
        let busy = sfq_telemetry::Stopwatch::start();
        for (i, slot) in slice.iter_mut().enumerate() {
            let watch = sfq_telemetry::Stopwatch::start();
            *slot = per_chip((first_chip + i) as u64, &mut worker);
            chip_ns.record(watch.elapsed_ns());
        }
        chip_count.add(slice.len() as u64);
        *load = (slice.len(), busy.elapsed_ns());
    };
    // The calling thread runs the first chunk and spawns one worker per
    // other chunk, so one thread spawns nothing.
    let (own, rest) = results.split_at_mut(chunk.min(chips));
    let (own_load, rest_loads) = loads.split_first_mut().expect("one worker at least");
    crossbeam::scope(|scope| {
        for (t, (slice, load)) in rest.chunks_mut(chunk).zip(rest_loads).enumerate() {
            scope.spawn(move |_| work((t + 1) * chunk, slice, load));
        }
        work(0, own, own_load);
    })
    .expect("Monte-Carlo worker thread panicked");
    let parallelism = Parallelism {
        threads: loads.len(),
        chips_per_worker: loads.iter().map(|&(n, _)| n).collect(),
        busy_ns_per_worker: loads.iter().map(|&(_, ns)| ns).collect(),
    };
    (results, parallelism)
}

/// The Fig. 5 curve of one encoder: the distribution of erroneous messages
/// per chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Curve {
    /// Which design this curve describes.
    pub kind: EncoderKind,
    /// Display name.
    pub name: String,
    /// Number of messages per chip (the x-axis upper bound).
    pub messages_per_chip: usize,
    /// Number of erroneous messages observed on each simulated chip.
    pub errors_per_chip: Vec<usize>,
    /// Resolved worker layout and per-worker load of the run that produced
    /// this curve (reporting-only; default/empty for hand-built curves).
    pub parallelism: Parallelism,
}

impl Fig5Curve {
    /// Builds a curve from raw per-chip error counts.
    #[must_use]
    pub fn from_error_counts(
        kind: EncoderKind,
        name: String,
        messages_per_chip: usize,
        errors_per_chip: Vec<usize>,
    ) -> Self {
        Fig5Curve {
            kind,
            name,
            messages_per_chip,
            errors_per_chip,
            parallelism: Parallelism::default(),
        }
    }

    /// Number of chips simulated.
    #[must_use]
    pub fn chips(&self) -> usize {
        self.errors_per_chip.len()
    }

    /// `P(errors ≤ n)`: the CDF value the paper plots.
    #[must_use]
    pub fn cdf(&self, n: usize) -> f64 {
        if self.errors_per_chip.is_empty() {
            return 1.0;
        }
        let count = self.errors_per_chip.iter().filter(|&&e| e <= n).count();
        count as f64 / self.errors_per_chip.len() as f64
    }

    /// The probability of a chip delivering all messages without error —
    /// `CDF(0)`, the headline number the paper quotes per encoder (80.0 %,
    /// 86.7 %, 89.8 %, 92.7 %).
    #[must_use]
    pub fn zero_error_probability(&self) -> f64 {
        self.cdf(0)
    }

    /// Wilson score confidence interval for the zero-error probability at
    /// critical value `z` (1.96 ≈ 95 %), derived from the actual number of
    /// simulated chips.
    ///
    /// A Monte-Carlo estimate from `N` chips is a binomial proportion;
    /// asserting it against a point value with a hand-tuned tolerance is
    /// honest only for the one seed the tolerance was tuned on. Tests should
    /// instead check that reference values fall inside (or outside) this
    /// interval.
    #[must_use]
    pub fn zero_error_wilson_interval(&self, z: f64) -> (f64, f64) {
        let successes = self.errors_per_chip.iter().filter(|&&e| e == 0).count();
        wilson_interval(successes, self.chips(), z)
    }

    /// Mean number of erroneous messages per chip.
    #[must_use]
    pub fn mean_errors(&self) -> f64 {
        if self.errors_per_chip.is_empty() {
            return 0.0;
        }
        self.errors_per_chip.iter().sum::<usize>() as f64 / self.errors_per_chip.len() as f64
    }
}

/// The complete Fig. 5 dataset: one curve per design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Result {
    /// The experiment configuration that produced this result.
    pub experiment: Fig5Experiment,
    /// One curve per design, ordered RM(1,3), Hamming(7,4), Hamming(8,4),
    /// no encoder.
    pub curves: Vec<Fig5Curve>,
}

impl Fig5Result {
    /// Finds the curve of a specific design.
    #[must_use]
    pub fn curve(&self, kind: EncoderKind) -> Option<&Fig5Curve> {
        self.curves.iter().find(|c| c.kind == kind)
    }

    /// Formats a textual table of the CDF at the paper's sampling points.
    #[must_use]
    pub fn to_table(&self) -> String {
        let points: Vec<usize> = (0..=90).step_by(10).collect();
        let mut out = String::new();
        out.push_str("N (erroneous msgs) |");
        for p in &points {
            out.push_str(&format!(" {p:>6}"));
        }
        out.push('\n');
        for curve in &self.curves {
            out.push_str(&format!("{:<19}|", curve.name));
            for p in &points {
                out.push_str(&format!(" {:>6.3}", curve.cdf(*p)));
            }
            out.push('\n');
        }
        out
    }

    /// The zero-error probabilities the paper quotes, keyed by design.
    #[must_use]
    pub fn zero_error_summary(&self) -> Vec<(EncoderKind, f64)> {
        self.curves
            .iter()
            .map(|c| (c.kind, c.zero_error_probability()))
            .collect()
    }
}

/// Wilson score interval for a binomial proportion of `successes` out of
/// `trials`, at critical value `z` (1.96 ≈ 95 % two-sided coverage).
///
/// Unlike the normal-approximation ("Wald") interval, the Wilson interval
/// stays inside `[0, 1]` and behaves sensibly at proportions near the
/// boundaries — exactly the regime of zero-error probabilities near 1.
///
/// # Panics
/// Panics if `trials == 0`, `successes > trials`, or `z` is not positive.
#[must_use]
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    assert!(trials > 0, "Wilson interval needs at least one trial");
    assert!(successes <= trials, "more successes than trials");
    assert!(z > 0.0, "critical value must be positive");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The zero-error probabilities reported in the paper for Fig. 5.
#[must_use]
pub fn paper_zero_error_probabilities() -> Vec<(EncoderKind, f64)> {
    vec![
        (EncoderKind::Rm13, 0.867),
        (EncoderKind::Hamming74, 0.898),
        (EncoderKind::Hamming84, 0.927),
        (EncoderKind::None, 0.800),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_statistics() {
        let curve = Fig5Curve::from_error_counts(
            EncoderKind::None,
            "No encoder".to_string(),
            100,
            vec![0, 0, 0, 5, 50, 100],
        );
        assert_eq!(curve.chips(), 6);
        assert!((curve.zero_error_probability() - 0.5).abs() < 1e-12);
        assert!((curve.cdf(5) - 4.0 / 6.0).abs() < 1e-12);
        assert!((curve.cdf(100) - 1.0).abs() < 1e-12);
        assert!((curve.mean_errors() - 155.0 / 6.0).abs() < 1e-12);
        assert!((curve.cdf(50) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn zero_spread_gives_error_free_chips_for_every_design() {
        let lib = CellLibrary::coldflux();
        let experiment = Fig5Experiment {
            chips: 10,
            messages_per_chip: 20,
            ppv: PpvModel::paper_defaults().with_spread(0.0),
            threads: 1,
            ..Fig5Experiment::paper_setup()
        };
        let result = experiment.run_all(&lib);
        for curve in &result.curves {
            assert!(
                (curve.zero_error_probability() - 1.0).abs() < 1e-12,
                "{} had errors at zero spread",
                curve.name
            );
        }
    }

    #[test]
    fn experiment_is_reproducible_for_fixed_seed() {
        let lib = CellLibrary::coldflux();
        let experiment = Fig5Experiment {
            chips: 30,
            messages_per_chip: 20,
            threads: 2,
            ..Fig5Experiment::paper_setup()
        };
        let design = EncoderDesign::build(EncoderKind::Hamming84);
        let a = experiment.run_design(&design, &lib);
        let b = experiment.run_design(&design, &lib);
        assert_eq!(a.errors_per_chip, b.errors_per_chip);
    }

    #[test]
    fn serial_and_parallel_execution_agree() {
        let lib = CellLibrary::coldflux();
        let serial = Fig5Experiment {
            chips: 24,
            messages_per_chip: 10,
            threads: 1,
            ..Fig5Experiment::paper_setup()
        };
        let parallel = Fig5Experiment {
            threads: 4,
            ..serial
        };
        let design = EncoderDesign::build(EncoderKind::Hamming74);
        let a = serial.run_design(&design, &lib);
        let b = parallel.run_design(&design, &lib);
        assert_eq!(a.errors_per_chip, b.errors_per_chip);
    }

    #[test]
    fn zero_spread_batched_chips_are_error_free() {
        let lib = CellLibrary::coldflux();
        let experiment = Fig5Experiment {
            chips: 10,
            messages_per_chip: 50,
            ppv: PpvModel::paper_defaults().with_spread(0.0),
            threads: 1,
            ..Fig5Experiment::paper_setup()
        };
        let result = experiment.run_all_batched(&lib);
        for curve in &result.curves {
            assert!(
                (curve.zero_error_probability() - 1.0).abs() < 1e-12,
                "{} had errors at zero spread (batched)",
                curve.name
            );
        }
    }

    #[test]
    fn batched_experiment_is_reproducible_and_thread_invariant() {
        let lib = CellLibrary::coldflux();
        let serial = Fig5Experiment {
            chips: 24,
            messages_per_chip: 30,
            threads: 1,
            ..Fig5Experiment::paper_setup()
        };
        let parallel = Fig5Experiment {
            threads: 4,
            ..serial
        };
        let design = EncoderDesign::build(EncoderKind::Hamming84);
        let a = serial.run_design_batched(&design, &lib);
        let b = parallel.run_design_batched(&design, &lib);
        assert_eq!(a.errors_per_chip, b.errors_per_chip);
    }

    #[test]
    fn batched_path_tracks_scalar_statistics() {
        // The batch driver replaces pulse-level simulation with per-channel
        // flip probabilities, so per-chip counts differ — but the aggregate
        // zero-error probability must stay close and preserve the headline
        // ordering (coded designs beat uncoded).
        let lib = CellLibrary::coldflux();
        let experiment = Fig5Experiment {
            chips: 150,
            messages_per_chip: 60,
            threads: 4,
            ..Fig5Experiment::paper_setup()
        };
        let design = EncoderDesign::build(EncoderKind::Hamming84);
        let scalar = experiment
            .run_design(&design, &lib)
            .zero_error_probability();
        let batched = experiment
            .run_design_batched(&design, &lib)
            .zero_error_probability();
        assert!(
            (scalar - batched).abs() < 0.10,
            "scalar {scalar} vs batched {batched}"
        );
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        let (lo, hi) = wilson_interval(90, 100, 1.96);
        assert!(lo < 0.9 && 0.9 < hi);
        assert!(lo > 0.82 && hi < 0.95, "({lo}, {hi})");
        // Degenerate proportions stay inside [0, 1].
        assert_eq!(wilson_interval(0, 50, 1.96).0, 0.0);
        assert!((wilson_interval(50, 50, 1.96).1 - 1.0).abs() < 1e-12);
        assert!(wilson_interval(50, 50, 1.96).0 < 1.0);
        // More trials shrink the interval at the same proportion.
        let wide = wilson_interval(9, 10, 1.96);
        let narrow = wilson_interval(900, 1000, 1.96);
        assert!(narrow.1 - narrow.0 < wide.1 - wide.0);
    }

    #[test]
    fn curve_wilson_interval_matches_free_function() {
        let curve = Fig5Curve::from_error_counts(
            EncoderKind::SecDed(6),
            "SEC-DED(72,64)".to_string(),
            25,
            vec![0, 0, 0, 1, 0, 2, 0, 0, 0, 0],
        );
        let from_curve = curve.zero_error_wilson_interval(1.96);
        let direct = wilson_interval(8, 10, 1.96);
        assert_eq!(from_curve, direct);
        assert!(from_curve.0 < curve.zero_error_probability());
        assert!(curve.zero_error_probability() < from_curve.1);
    }

    #[test]
    fn wide_word_setup_runs_secded72_on_both_paths_at_zero_spread() {
        // With no process variations and an ideal channel, both the scalar
        // pulse-level path and the batched path must deliver every 64-bit
        // word on every chip. (The full ±20 % agreement check lives in the
        // workspace-level end-to-end tests.)
        let lib = CellLibrary::coldflux();
        let experiment = Fig5Experiment {
            chips: 4,
            messages_per_chip: 10,
            ppv: PpvModel::paper_defaults().with_spread(0.0),
            threads: 2,
            ..Fig5Experiment::wide_word_setup()
        };
        let design = EncoderDesign::build(EncoderKind::SecDed(6));
        let scalar = experiment.run_design(&design, &lib);
        let batched = experiment.run_design_batched(&design, &lib);
        assert_eq!(scalar.name, "SEC-DED(72,64)");
        assert!((scalar.zero_error_probability() - 1.0).abs() < 1e-12);
        assert!((batched.zero_error_probability() - 1.0).abs() < 1e-12);
        assert_eq!(scalar.chips(), 4);
        assert_eq!(batched.chips(), 4);
    }

    #[test]
    fn parallelism_reports_the_resolved_worker_layout() {
        let lib = CellLibrary::coldflux();
        let experiment = Fig5Experiment {
            chips: 10,
            messages_per_chip: 5,
            threads: 4,
            ..Fig5Experiment::paper_setup()
        };
        let design = EncoderDesign::build(EncoderKind::Hamming74);
        let curve = experiment.run_design_batched(&design, &lib);
        let p = &curve.parallelism;
        // 10 chips over 4 threads chunk as ceil(10/4)=3 → 3+3+3+1.
        assert_eq!(p.threads, 4);
        assert_eq!(p.chips_per_worker, vec![3, 3, 3, 1]);
        assert_eq!(p.busy_ns_per_worker.len(), 4);
        assert_eq!(p.chips_per_worker.iter().sum::<usize>(), 10);
        for u in p.utilization() {
            assert!((0.0..=1.0).contains(&u));
        }

        // Serial runs report a single worker carrying everything; the
        // thread count never leaks into the per-chip results.
        let serial = Fig5Experiment {
            threads: 1,
            ..experiment
        };
        let serial_curve = serial.run_design_batched(&design, &lib);
        assert_eq!(serial_curve.parallelism.threads, 1);
        assert_eq!(serial_curve.parallelism.chips_per_worker, vec![10]);
        assert_eq!(serial_curve.errors_per_chip, curve.errors_per_chip);

        // Hand-built curves carry the empty default.
        let hand = Fig5Curve::from_error_counts(EncoderKind::None, "x".to_string(), 1, vec![0]);
        assert_eq!(hand.parallelism, Parallelism::default());
        assert!(hand.parallelism.utilization().is_empty());
    }

    #[test]
    fn multi_error_comparison_covers_the_bch_registry_and_secded() {
        use ecc::BchSpec;
        let lib = CellLibrary::coldflux();
        let experiment = Fig5Experiment {
            chips: 60,
            messages_per_chip: 20,
            threads: 4,
            ..Fig5Experiment::multi_error_setup()
        };
        assert_eq!(experiment.counting, ErrorCounting::AnyWrong);
        let result = experiment.run_multi_error_comparison(&lib);
        let bch63 = result
            .curve(EncoderKind::Bch(BchSpec::BCH_63_45))
            .expect("BCH(63,45) curve");
        let bch31 = result
            .curve(EncoderKind::Bch(BchSpec::BCH_31_16))
            .expect("BCH(31,16) curve");
        let secded = result.curve(EncoderKind::SecDed(6)).expect("SEC-DED curve");
        assert_eq!(bch63.chips(), 60);
        assert_eq!(bch31.chips(), 60);
        assert_eq!(secded.chips(), 60);
        println!(
            "bch63 zero-error {:.3} {:?} | bch31 {:.3} {:?} | secded {:.3} {:?}",
            bch63.zero_error_probability(),
            bch63.zero_error_wilson_interval(1.96),
            bch31.zero_error_probability(),
            bch31.zero_error_wilson_interval(1.96),
            secded.zero_error_probability(),
            secded.zero_error_wilson_interval(1.96),
        );
        // The multi-error decoders never lose to SEC-DED at this scale; the
        // statistically rigorous separation claim (non-overlapping Wilson
        // intervals at the full chip count) lives in the workspace tests.
        assert!(bch63.zero_error_probability() >= secded.zero_error_probability());
        assert!(bch31.zero_error_probability() >= secded.zero_error_probability());
    }

    #[test]
    fn paper_reference_lists_all_designs() {
        let reference = paper_zero_error_probabilities();
        assert_eq!(reference.len(), 4);
        assert!(reference
            .iter()
            .any(|(k, p)| *k == EncoderKind::Hamming84 && (*p - 0.927).abs() < 1e-9));
    }

    #[test]
    fn table_rendering_contains_every_curve() {
        let lib = CellLibrary::coldflux();
        let experiment = Fig5Experiment {
            chips: 5,
            messages_per_chip: 5,
            threads: 1,
            ..Fig5Experiment::paper_setup()
        };
        let result = experiment.run_all(&lib);
        let table = result.to_table();
        assert!(table.contains("Hamming(8,4)"));
        assert!(table.contains("No encoder"));
        assert!(result.curve(EncoderKind::Rm13).is_some());
    }
}
