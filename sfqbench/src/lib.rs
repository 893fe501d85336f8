//! # sfqbench — the repository benchmark
//!
//! One command runs one named workload against the workspace crates'
//! public API and prints its metrics (see `BENCHMARK.json` at the
//! repository root and `METRICS.md` next to this crate):
//!
//! * `fig5_paper` — the paper's Fig. 5 Monte-Carlo experiment, batched
//!   engine and pulse-level oracle ([`fig5`]);
//! * `catalog_codec` — every coded catalog member's bit-sliced codec on
//!   all-dirty 4096-lane batches ([`catalog`]);
//! * `scrub_nominal` / `scrub_overload` — the online scrub service at 1.0×
//!   and 1.5× its nominal arrival rate ([`scrub`]).
//!
//! The untraced run calls only the top-level entry points and times them
//! from outside. The traced run (`--trace 1`) additionally replays each
//! entry point's inner loop through the same public calls with a timer
//! around every call, snapshots the counters the crates already register
//! on `sfq_telemetry::global()`, and reports its own overhead against the
//! untraced measurement it also makes. Nothing here adds tracing inside
//! the crates.
//!
//! Every metric states its time base: **host** (what the simulator takes)
//! or **simulated** (cycles, outcomes, counts — these repeat exactly for a
//! fixed seed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod fig5;
pub mod report;
pub mod scrub;
pub mod stats;

use encoders::{EncoderDesign, EncoderKind};
use gf2::BitSlice64;
use rand::rngs::StdRng;
use rand::Rng;
use sfq_telemetry::Snapshot;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 5 experiment as a batch job.
    Fig5Paper,
    /// Encode/syndrome/decode/detect of every coded catalog member.
    CatalogCodec,
    /// The scrub service at its nominal arrival rate.
    ScrubNominal,
    /// The scrub service at 1.5× its nominal arrival rate.
    ScrubOverload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Paper,
        Workload::CatalogCodec,
        Workload::ScrubNominal,
        Workload::ScrubOverload,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Paper => "fig5_paper",
            Workload::CatalogCodec => "catalog_codec",
            Workload::ScrubNominal => "scrub_nominal",
            Workload::ScrubOverload => "scrub_overload",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when `--seed` is not given: the constants the
    /// workspace's own experiments use.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Fig5Paper => fig5::DEFAULT_SEED,
            Workload::CatalogCodec => catalog::DEFAULT_SEED,
            Workload::ScrubNominal | Workload::ScrubOverload => scrub::DEFAULT_SEED,
        }
    }
}

/// Input sizes: the benchmark's own, or the smoke-test sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` runs.
    Full,
    /// Tiny inputs for the smoke tests; statistical claims are not checked.
    Tiny,
}

/// One benchmark run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads for the parallel-layout probe of the traced
    /// `fig5_paper` run (at most `nproc`); everything else measures on one.
    pub threads: usize,
    /// Input sizes.
    pub scale: Scale,
}

impl RunConfig {
    /// Seconds the untraced measurement gets: all of the budget, or half of
    /// it in a traced run (the replicas take the other half).
    #[must_use]
    pub fn untraced_budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Time base of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// Host time: what the simulator takes; noisy.
    Host,
    /// Simulated values (cycles, outcomes, counts): exact for a fixed seed.
    Simulated,
}

impl Base {
    /// Lower-case label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Base::Host => "host",
            Base::Simulated => "simulated",
        }
    }
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json` / `METRICS.md`).
    pub name: String,
    /// Value (the good-end decile when `repeats` is set).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Time base.
    pub base: Base,
    /// The repeated samples the value was taken from, if any.
    pub repeats: Option<Repeats>,
}

/// Summary of the repeated samples behind one host metric.
#[derive(Debug, Clone, Copy)]
pub struct Repeats {
    /// Number of samples.
    pub samples: usize,
    /// Their median.
    pub median: f64,
    /// Their interquartile range as a share of the median.
    pub spread: f64,
}

/// Output checks: operations attempted and failed, with a description of
/// every failed check.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `attempted` operations of which `failed` failed `what`.
    pub fn record(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    /// Digests of the simulated outputs, `(what, hex)`.
    pub digests: Vec<(String, String)>,
    /// Context worth printing beside the metrics, `(key, value)`.
    pub notes: Vec<(String, String)>,
    /// Output checks.
    pub checks: Checks,
}

impl Outcome {
    fn push(&mut self, name: String, value: f64, unit: &'static str, base: Base) -> &mut Metric {
        assert!(
            self.get(&name).is_none(),
            "metric {name} recorded twice in one run"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            base,
            repeats: None,
        });
        self.metrics.last_mut().expect("just pushed")
    }

    /// Records a host-time metric.
    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Base::Host);
    }

    /// Records a simulated metric.
    pub fn sim(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Base::Simulated);
    }

    /// Records a metric from repeated host samples: the good-end decile
    /// (see [`stats::good_decile`]), with the sample count, median, and
    /// spread kept for the report. Returns the recorded value.
    pub fn host_repeated(
        &mut self,
        name: impl Into<String>,
        samples: &[f64],
        unit: &'static str,
        better: stats::Better,
    ) -> f64 {
        let value = stats::good_decile(samples, better);
        let spread = if samples.len() >= 2 {
            stats::relative_spread(samples)
        } else {
            0.0
        };
        self.push(name.into(), value, unit, Base::Host).repeats = Some(Repeats {
            samples: samples.len(),
            median: stats::median(samples),
            spread,
        });
        value
    }

    /// Records a note.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.push((key.into(), value.into()));
    }

    /// Records a digest.
    pub fn digest(&mut self, key: impl Into<String>, hex: impl Into<String>) {
        self.digests.push((key.into(), hex.into()));
    }

    /// The value of a recorded metric.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every recorded metric, in recording order.
    #[must_use]
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

/// The end-to-end metrics every workload reports in its result line, with
/// units. `items_per_s` is the workload's headline host rate:
/// `fig5_chips_per_s`, `decode_msgs_per_s.geomean`, or `scrub_msgs_per_s`.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("items_per_s", "1/s")];

/// The catalog's coded members by metric slug, in `BENCHMARK.json` order.
pub const CODED_SLUGS: [&str; 12] = [
    "hamming_7_4",
    "hamming_8_4",
    "rm_1_3",
    "secded_13_8",
    "secded_22_16",
    "secded_39_32",
    "secded_72_64",
    "shamming_85_64",
    "bch_31_16",
    "bch_63_51",
    "bch_63_45",
    "ldpc_60_32",
];

/// Synthesis passes with a `synth.pass.<name>.ns` histogram.
pub const PASSES: [&str; 7] = [
    "factor-cancellation",
    "factor-common-pairs",
    "factor-none",
    "balance-xor-trees",
    "plan-fanout",
    "emit-netlist",
    "build-clock-tree",
];

/// Every per-layer metric the traced result line carries, with its unit.
/// Metrics a workload does not exercise read 0 there.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    add("encoders.build_s.uncoded_4".into(), "s");
    for slug in CODED_SLUGS {
        add(format!("encoders.build_s.{slug}"), "s");
    }
    for pass in PASSES {
        add(format!("netlist.pass_s.{pass}"), "s");
    }
    add("netlist.cancel_cache_hit_ratio".into(), "ratio");
    add("sim.sample_chip_us".into(), "us/chip");
    add("sim.faulty_cells_per_chip".into(), "cells/chip");
    add("sim.oracle_msg_us".into(), "us/msg");
    for name in ["rebind_us", "gen_us", "transmit_us", "oracle_new_us"] {
        add(format!("link.{name}"), "us/chip");
    }
    add("link.decode_share".into(), "ratio");
    add("link.sources_fired_ratio".into(), "ratio");
    add("link.inject_ns".into(), "ns/msg");
    add("fig5.min_worker_utilization".into(), "ratio");
    for op in catalog::OPS {
        for slug in CODED_SLUGS {
            add(format!("batch.{op}_ns.{slug}"), "ns/msg");
        }
    }
    for slug in CODED_SLUGS {
        add(format!("batch.decode_after_syndrome_ns.{slug}"), "ns/msg");
    }
    add("stream.gen_ns".into(), "ns/msg");
    add("stream.overhead_ns".into(), "ns/msg");
    add("stream.worker_decode_ratio".into(), "ratio");
    add("stream.transitions".into(), "count");
    add("stream.max_backlog".into(), "batches");
    add("stream.detect_rescrub_ratio".into(), "ratio");
    add("stream.drain_cycles".into(), "cycles");
    add("telemetry.recording_ratio".into(), "ratio");
    for workload in Workload::ALL {
        add(format!("bench.trace_overhead.{}", workload.name()), "ratio");
    }
    out
}

/// Metric slug of a catalog member.
#[must_use]
pub fn slug(kind: EncoderKind) -> String {
    match kind {
        EncoderKind::None => "uncoded_4".to_string(),
        EncoderKind::Hamming74 => "hamming_7_4".to_string(),
        EncoderKind::Hamming84 => "hamming_8_4".to_string(),
        EncoderKind::Rm13 => "rm_1_3".to_string(),
        EncoderKind::SecDed(m) => {
            let k = 1usize << m;
            format!("secded_{}_{k}", k + usize::from(m) + 2)
        }
        EncoderKind::WideHamming8564 => "shamming_85_64".to_string(),
        EncoderKind::Bch(spec) => {
            let (n, k) = spec.dimensions();
            format!("bch_{n}_{k}")
        }
        EncoderKind::Ldpc => "ldpc_60_32".to_string(),
    }
}

/// The traced set-up's design builds: one `EncoderDesign::build` per kind,
/// each timed into `encoders.build_s.<slug>` (untraced set-ups call
/// `build_all` / `build_catalog` instead).
fn build_timed(kinds: &[EncoderKind], out: &mut Outcome) -> Vec<EncoderDesign> {
    kinds
        .iter()
        .map(|&kind| {
            let start = Instant::now();
            let design = EncoderDesign::build(kind);
            out.host(
                format!("encoders.build_s.{}", slug(kind)),
                start.elapsed().as_secs_f64(),
                "s",
            );
            design
        })
        .collect()
}

/// Per-pass synthesis time and the cancellation memo-cache hit ratio of
/// everything built since `before`, from the histograms and counters
/// `sfq-netlist` registers.
fn record_synthesis(before: &Snapshot, out: &mut Outcome) {
    let after = sfq_telemetry::global().snapshot();
    for pass in PASSES {
        let ns = histogram_sum_delta(before, &after, &format!("synth.pass.{pass}.ns"));
        out.host(format!("netlist.pass_s.{pass}"), ns as f64 * 1e-9, "s");
    }
    let hits = counter_delta(before, &after, "synth.cancel.cache_hits");
    let misses = counter_delta(before, &after, "synth.cancel.cache_misses");
    out.sim(
        "netlist.cancel_cache_hit_ratio",
        stats::ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
}

/// Growth of a counter between two snapshots.
fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// Growth of a histogram's sample sum between two snapshots.
fn histogram_sum_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    let sum = |s: &Snapshot| s.histogram(name).map_or(0, |h| h.sum);
    sum(after).saturating_sub(sum(before))
}

/// Fills every lane with random limbs, tail-masked, lane by lane — the
/// draw order of the scrub service's batch regeneration.
fn fill_random(frame: &mut BitSlice64, rng: &mut StdRng) {
    let words = frame.words();
    let tail = frame.tail_mask();
    for lane in 0..frame.bits() {
        for (w, limb) in frame.lane_mut(lane).iter_mut().enumerate() {
            let valid = if w + 1 == words { tail } else { u64::MAX };
            *limb = rng.random::<u64>() & valid;
        }
    }
}

/// Nanoseconds since `start`.
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A workload's prepared inputs (one value per run, so the variants'
/// sizes do not matter).
#[allow(clippy::large_enum_variant)]
enum Prepared {
    Fig5(fig5::Prepared),
    Catalog(catalog::Prepared),
    Scrub(scrub::Prepared),
}

fn setup(cfg: &RunConfig, out: &mut Outcome) -> Prepared {
    let before = sfq_telemetry::global().snapshot();
    let prepared = match cfg.workload {
        Workload::Fig5Paper => Prepared::Fig5(fig5::setup(cfg, out)),
        Workload::CatalogCodec => Prepared::Catalog(catalog::setup(cfg, out)),
        Workload::ScrubNominal | Workload::ScrubOverload => Prepared::Scrub(scrub::setup(cfg, out)),
    };
    if cfg.trace {
        record_synthesis(&before, out);
    }
    prepared
}

/// Runs only a workload's set-up and returns its wall time in seconds.
/// Set-up includes cold synthesis, and the synthesis memo cache is
/// process-wide, so each call must happen in a fresh process.
#[must_use]
pub fn setup_seconds(cfg: &RunConfig) -> f64 {
    let start = Instant::now();
    let prepared = setup(cfg, &mut Outcome::default());
    let seconds = start.elapsed().as_secs_f64();
    drop(prepared);
    seconds
}

/// Runs one workload: set-up (timed), then measurement and output checks.
/// Returns the set-up time in seconds and the outcome.
#[must_use]
pub fn run(cfg: &RunConfig) -> (f64, Outcome) {
    let mut out = Outcome::default();
    let start = Instant::now();
    let prepared = setup(cfg, &mut out);
    let setup_s = start.elapsed().as_secs_f64();
    match prepared {
        Prepared::Fig5(p) => fig5::measure(cfg, &p, &mut out),
        Prepared::Catalog(p) => catalog::measure(cfg, &p, &mut out),
        Prepared::Scrub(p) => scrub::measure(cfg, &p, &mut out),
    }
    (setup_s, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_cover_every_coded_catalog_member() {
        let coded: Vec<String> = EncoderKind::catalog()
            .into_iter()
            .filter(|&k| k != EncoderKind::None)
            .map(slug)
            .collect();
        let mut expected: Vec<String> = CODED_SLUGS.iter().map(|s| (*s).to_string()).collect();
        // The catalog lists the paper's three encoders first, in Fig. 5
        // order; CODED_SLUGS sorts them by code family instead.
        expected.sort();
        let mut sorted = coded.clone();
        sorted.sort();
        assert_eq!(sorted, expected);
        assert_eq!(slug(EncoderKind::None), "uncoded_4");
    }

    #[test]
    fn per_layer_names_are_unique_and_within_limits() {
        let metrics = per_layer_metrics();
        assert_eq!(metrics.len(), 104);
        let mut names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "duplicate per-layer name");
        for (name, unit) in &metrics {
            assert!(name.len() <= 64, "{name} too long");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside the allowed set"
            );
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.record("lanes decode", 100, 0);
        assert!(checks.passed());
        checks.record("detect", 10, 2);
        assert_eq!((checks.attempted, checks.failed), (110, 2));
        assert!(!checks.passed());
        assert_eq!(checks.failures.len(), 1);
    }
}
