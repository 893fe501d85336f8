//! Scrub-service benchmark: the latency contract measured at three arrival
//! intensities (nominal 1.0×, the 1.5× overload of `docs/STREAMING.md`, and
//! a severe 2.0×) under the standard fault soak-mix. Emits `BENCH_stream.json` at the
//! workspace root — sustained messages/second, p50/p99/max completion
//! latency in simulated cycles, deadline-miss counts, peak backlog, and the
//! ladder transition count per intensity.
//!
//! Modes:
//!
//! * `cargo bench -p bench --bench stream` — full measurement, writes
//!   `BENCH_stream.json`.
//! * `-- --quick` — reduced run used as the CI smoke gate: fails (exit 1)
//!   if the nominal intensity misses a deadline, sheds a batch, or falls
//!   below [`NOMINAL_THROUGHPUT_FLOOR`] messages/second.
//! * `-- --soak` — the ~30 s CI soak leg: long runs under the fault
//!   soak-mix at 1.0× (must hold zero deadline misses) and 1.5× (backlog
//!   must stay bounded and drain). Also writes `BENCH_stream.json`.

use bench::banner_with_fingerprint;
use sfq_stream::{FaultScript, ScrubService, StreamConfig, StreamReport};
use sfq_telemetry::json::{self, JsonWriter};
use sfq_telemetry::Fingerprint;

/// CI throughput floor (messages/second) for the nominal intensity in
/// `--quick` mode — the service's ≥ 1e7 msg/s rate bar. Measured
/// ≈ 1.0–1.6e8 msg/s end to end (arrival simulation + queue hops + SEC-DED
/// (72,64) decode + classification against ground truth) with two workers,
/// plus the scheduler running the jobs it cannot enqueue, on a 2-core
/// x86-64 host; the floor sits an order of magnitude below the measurement
/// so it catches service-level collapse (serialization, queue thrash,
/// per-batch reallocation), not runner noise.
const NOMINAL_THROUGHPUT_FLOOR: f64 = 1.0e7;

/// Backlog bound for the 1.5× soak leg: the widen/detect rungs absorb a
/// 1.5× overload with backlog oscillating around the detection-engage
/// threshold (measured peak 29); crossing the shed-engage threshold (48)
/// would mean the ladder failed to hold the line.
const SOAK_OVERLOAD_BACKLOG_BOUND: usize = 96;

struct Intensity {
    slug: &'static str,
    factor_milli: u64,
}

const INTENSITIES: [Intensity; 3] = [
    Intensity {
        slug: "nominal_1_0x",
        factor_milli: 1000,
    },
    Intensity {
        slug: "overload_1_5x",
        factor_milli: 1500,
    },
    Intensity {
        slug: "severe_2_0x",
        factor_milli: 2000,
    },
];

fn run_intensity(intensity: &Intensity, total_cycles: u64) -> StreamReport {
    let config = StreamConfig {
        total_cycles,
        drain_limit: total_cycles,
        ..StreamConfig::nominal()
    }
    .with_rate_factor(intensity.factor_milli);
    let script = FaultScript::soak_mix(total_cycles, config.shards, 2);
    let report = ScrubService::run(&config, &script);
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} violated a run invariant: {e}", intensity.slug));
    report
}

fn render_json(rows: &[(&'static str, u64, StreamReport)], fingerprint: &Fingerprint) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("fingerprint");
    fingerprint.write_json(&mut w);
    w.key("config");
    w.string("StreamConfig::nominal() scaled per intensity");
    w.key("intensities");
    w.begin_array();
    for (slug, factor_milli, report) in rows {
        w.begin_object();
        w.key("intensity");
        w.string(slug);
        w.key("rate_factor_milli");
        w.uint(*factor_milli);
        w.key("report");
        report.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn print_row(slug: &str, report: &StreamReport) {
    println!(
        "{:<14} {:>12.3e} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>11} {:>12}",
        slug,
        report.throughput_msgs_per_sec,
        report.latency.p50,
        report.latency.p99,
        report.latency.max,
        report.deadline_misses,
        report.max_backlog,
        report.shed_batches,
        report.transitions.len(),
        report.messages_decoded,
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let soak = std::env::args().any(|a| a == "--soak");
    let config = StreamConfig::nominal();

    // Run lengths: the full report covers every intensity at a meaningful
    // length; --quick shrinks it to a smoke check; --soak stretches the
    // nominal and 1.5x legs to ~30 s of wall clock combined.
    let total_cycles: u64 = if quick {
        1 << 14
    } else if soak {
        1 << 22
    } else {
        1 << 17
    };

    let fingerprint = Fingerprint::new(
        "scrub_stream secded(72,64)",
        0,
        config.batch_messages,
        config.seed,
        config.threads,
    );
    banner_with_fingerprint(
        if soak {
            "sfq-stream: fault-injected soak (nominal + 1.5x overload)"
        } else {
            "sfq-stream: scrub service latency contract under fault soak-mix"
        },
        &fingerprint,
    );
    println!(
        "{:<14} {:>12} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>11} {:>12}",
        "intensity",
        "msg/s",
        "p50",
        "p99",
        "max",
        "misses",
        "backlog",
        "shed",
        "transitions",
        "messages"
    );

    let mut rows: Vec<(&'static str, u64, StreamReport)> = Vec::new();
    for intensity in &INTENSITIES {
        // The soak leg covers 1.0x and 1.5x only (2.0x would dominate the
        // wall-clock budget without adding a gated claim).
        if soak && intensity.factor_milli == 2000 {
            continue;
        }
        let report = run_intensity(intensity, total_cycles);
        print_row(intensity.slug, &report);
        rows.push((intensity.slug, intensity.factor_milli, report));
    }

    let nominal = &rows[0].2;
    if quick || soak {
        if nominal.deadline_misses != 0 {
            eprintln!(
                "LATENCY CONTRACT VIOLATION: nominal load missed {} deadlines",
                nominal.deadline_misses
            );
            std::process::exit(1);
        }
        if nominal.shed_batches != 0 {
            eprintln!(
                "LATENCY CONTRACT VIOLATION: nominal load shed {} batches",
                nominal.shed_batches
            );
            std::process::exit(1);
        }
        if nominal.throughput_msgs_per_sec < NOMINAL_THROUGHPUT_FLOOR {
            eprintln!(
                "THROUGHPUT REGRESSION: scrub service sustained {:.3e} msg/s at nominal \
                 load, below the committed floor {NOMINAL_THROUGHPUT_FLOOR:.1e}",
                nominal.throughput_msgs_per_sec
            );
            std::process::exit(1);
        }
    }
    if soak {
        let overload = &rows[1].2;
        if overload.max_backlog >= SOAK_OVERLOAD_BACKLOG_BOUND {
            eprintln!(
                "BACKLOG BOUND VIOLATION: 1.5x overload peaked at {} batches of backlog, \
                 bound {SOAK_OVERLOAD_BACKLOG_BOUND}",
                overload.max_backlog
            );
            std::process::exit(1);
        }
        println!(
            "soak ok: nominal zero-miss over {} batches, 1.5x backlog peak {} (bound {})",
            nominal.completed_batches, overload.max_backlog, SOAK_OVERLOAD_BACKLOG_BOUND
        );
    }

    if !quick {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
        let doc = render_json(&rows, &fingerprint);
        json::write_artifact(out, &doc).unwrap_or_else(|e| panic!("{e}"));
        println!("wrote {out} ({} bytes)", doc.len());
    }
}
