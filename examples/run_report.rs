//! Structured run report: exercises the batched Fig. 5 Monte-Carlo driver
//! and the synthesis planner with telemetry recording, then writes the
//! merged metrics snapshot — fingerprint, batch-decoder kernel and stage
//! counters, per-chip latency percentiles, per-worker utilization, Fig. 5
//! zero-error rate with its Wilson interval, and per-pass synthesis
//! timings — to `RUN_REPORT.json` at the workspace root.
//!
//! Run with `cargo run --example run_report`. The document goes through
//! `sfq_telemetry::json::write_artifact`, which validates it with the
//! telemetry crate's own JSON parser before writing, and CI checks that the
//! uploaded artifact is non-empty.

use sfq_ecc::cells::CellLibrary;
use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
use sfq_ecc::link::{Fig5Curve, Fig5Experiment};
use sfq_telemetry::json::{self, JsonWriter};
use sfq_telemetry::{Fingerprint, Snapshot};

/// Chips in the report's Monte-Carlo run. Small enough to finish in
/// seconds; large enough that the Wilson interval is meaningful and every
/// worker gets a few chips.
const CHIPS: usize = 200;

fn write_report(fingerprint: &Fingerprint, curve: &Fig5Curve, snapshot: &Snapshot) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();

    w.key("fingerprint");
    fingerprint.write_json(&mut w);

    w.key("fig5");
    w.begin_object();
    w.key("design");
    w.string(&curve.name);
    w.key("chips");
    w.uint(curve.errors_per_chip.len() as u64);
    w.key("messages_per_chip");
    w.uint(curve.messages_per_chip as u64);
    w.key("zero_error_rate");
    w.float(curve.zero_error_probability());
    let (lo, hi) = curve.zero_error_wilson_interval(1.96);
    w.key("zero_error_wilson_95");
    w.begin_array();
    w.float(lo);
    w.float(hi);
    w.end_array();
    w.key("parallelism");
    w.begin_object();
    w.key("threads");
    w.uint(curve.parallelism.threads as u64);
    w.key("chips_per_worker");
    w.begin_array();
    for &chips in &curve.parallelism.chips_per_worker {
        w.uint(chips as u64);
    }
    w.end_array();
    w.key("utilization");
    w.begin_array();
    for u in curve.parallelism.utilization() {
        w.float(u);
    }
    w.end_array();
    w.end_object();
    w.end_object();

    w.key("metrics");
    snapshot.write_json(&mut w);

    w.end_object();
    w.finish()
}

fn main() {
    let registry = sfq_telemetry::global();
    registry.reset();

    // Synthesis leg: building a SEC-DED(72,64) encoder drives the planner,
    // the pass pipeline, and the cancellation-aware factoring search,
    // populating the synth.* metrics.
    let library = CellLibrary::coldflux();
    let design = EncoderDesign::build(EncoderKind::SecDed(6));
    println!(
        "synthesized {} ({} JJ)",
        design.name(),
        design.stats(&library).cost.jj_count
    );

    // Monte-Carlo leg: a reduced batched Fig. 5 run over the Hamming(8,4)
    // link populates the batch.decode.*, link.*, and fig5.* metrics.
    let experiment = Fig5Experiment {
        chips: CHIPS,
        ..Fig5Experiment::paper_setup()
    };
    let fig5_design = EncoderDesign::build(EncoderKind::Hamming84);
    let curve = experiment.run_design_batched(&fig5_design, &library);
    let (lo, hi) = curve.zero_error_wilson_interval(1.96);
    println!(
        "fig5 {}: zero-error rate {:.3} (95% Wilson [{:.3}, {:.3}]) over {} chips, {} workers",
        curve.name,
        curve.zero_error_probability(),
        lo,
        hi,
        curve.errors_per_chip.len(),
        curve.parallelism.threads,
    );

    let fingerprint = Fingerprint::new(
        "hamming(8,4)+secded(72,64)",
        experiment.chips,
        experiment.messages_per_chip,
        experiment.seed,
        experiment.threads,
    );
    print!("{}", fingerprint.to_json());

    let snapshot = registry.snapshot();
    println!();
    println!("{}", snapshot.to_table());

    let report = write_report(&fingerprint, &curve, &snapshot);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("RUN_REPORT.json");
    json::write_artifact(&out, &report).unwrap_or_else(|e| panic!("{e}"));
    println!("wrote {} ({} bytes)", out.display(), report.len());
}
