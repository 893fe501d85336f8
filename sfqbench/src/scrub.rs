//! `scrub_nominal` / `scrub_overload`: `ScrubService::run` at
//! `StreamConfig::nominal()` (1.0×) or `with_rate_factor(1500)` (1.5×),
//! under `FaultScript::soak_mix`, with one worker thread (plus the
//! scheduler thread).
//!
//! Arrivals are open-loop in simulated cycles (latency counts from each
//! batch's due cycle) and closed-loop in host time (bounded job queues
//! apply backpressure; the run goes as fast as the worker drains). The
//! whole run is repeated until the budget is spent; every repetition must
//! produce the same deterministic report.
//!
//! The traced run replays the worker's per-batch steps on the same kind of
//! traffic through public calls — batch regeneration, `encode_batch_into`,
//! `SparseFlipSource::inject`, `syndrome_batch_into`, `decode_batch_with`,
//! `detect_batch_with` — and attributes the rest of the service's host
//! time per message to the scheduler, queue hops, and classification.

use crate::stats::{self, Better};
use crate::{ns_since, Outcome, RunConfig, Scale, Workload};
use cryolink::SparseFlipSource;
use ecc::{BatchDecode, BatchDecoded, BatchEncode, BatchScratch};
use encoders::{EncoderDesign, EncoderKind};
use gf2::BitSlice64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfq_batch::BatchCodec;
use sfq_stream::{FaultScript, ScrubService, StreamConfig, StreamReport};
use std::time::Instant;

/// `StreamConfig::nominal()`'s seed.
pub const DEFAULT_SEED: u64 = 0xC0FF_EE11;

/// Simulated cycles of arrivals per repetition.
pub const TOTAL_CYCLES: u64 = 1 << 16;

/// Batches the traced replica regenerates.
const REPLICA_BATCHES: u64 = 512;

/// Clock-tree burst width of the soak mix.
const BURST_WIDTH: usize = 2;

/// The service configuration and the replica's codec.
pub struct Prepared {
    config: StreamConfig,
    script: FaultScript,
    codec: BatchCodec,
}

fn overload(cfg: &RunConfig) -> bool {
    cfg.workload == Workload::ScrubOverload
}

/// Set-up: synthesizes the SEC-DED(72,64) encoder that writes the
/// scrubbed words (cold synthesis), builds its shipping codec, and fixes
/// the service configuration and fault script.
pub fn setup(cfg: &RunConfig, out: &mut Outcome) -> Prepared {
    let kind = EncoderKind::SecDed(6);
    let design = if cfg.trace {
        crate::build_timed(&[kind], out).remove(0)
    } else {
        EncoderDesign::build(kind)
    };
    let codec = cryolink::batch_codec_for(&design);
    let (total_cycles, batch_messages) = match cfg.scale {
        Scale::Full => (TOTAL_CYCLES, StreamConfig::nominal().batch_messages),
        Scale::Tiny => (1 << 12, 256),
    };
    let config = StreamConfig {
        threads: 1,
        batch_messages,
        total_cycles,
        drain_limit: total_cycles.max(1 << 16),
        seed: cfg.seed,
        ..StreamConfig::nominal()
    }
    .with_rate_factor(if overload(cfg) { 1500 } else { 1000 });
    assert_eq!(config.secded_m, 6, "the replica codec is the service's");
    let script = FaultScript::soak_mix(total_cycles, config.shards, BURST_WIDTH);
    Prepared {
        config,
        script,
        codec,
    }
}

/// Runs the service repeatedly until `budget_s` is spent (at least twice),
/// checking every report. Returns the first report and the per-run host
/// nanoseconds per decoded message.
fn repeat(p: &Prepared, budget_s: f64, out: &mut Outcome) -> (StreamReport, Vec<f64>) {
    let start = Instant::now();
    let mut first: Option<StreamReport> = None;
    let mut ns_per_msg = Vec::new();
    let (mut invalid, mut differing) = (0u64, 0u64);
    while ns_per_msg.len() < 2 || start.elapsed().as_secs_f64() < budget_s {
        let mark = Instant::now();
        let report = ScrubService::run(&p.config, &p.script);
        let ns = ns_since(mark);
        ns_per_msg.push(ns as f64 / report.messages_decoded.max(1) as f64);
        invalid += u64::from(report.validate().is_err());
        match &first {
            None => first = Some(report),
            Some(f) => {
                differing += u64::from(f.deterministic_digest() != report.deterministic_digest());
            }
        }
    }
    let runs = ns_per_msg.len() as u64;
    out.checks
        .record("every StreamReport passes validate()", runs, invalid);
    out.checks.record(
        "repeated runs reproduce the deterministic report",
        runs - 1,
        differing,
    );
    (first.expect("ran at least twice"), ns_per_msg)
}

/// Measures the workload (see the module docs).
pub fn measure(cfg: &RunConfig, p: &Prepared, out: &mut Outcome) {
    let (report, ns_per_msg) = repeat(p, cfg.untraced_budget(), out);
    let rates: Vec<f64> = ns_per_msg.iter().map(|ns| 1e9 / ns).collect();
    let rate = out.host_repeated("scrub_msgs_per_s", &rates, "1/s", Better::Higher);
    out.host("items_per_s", rate, "1/s");

    out.note(
        "kernel.secded_72_64",
        p.codec.selected_kernel_name(p.config.batch_messages),
    );
    let samples = report.completed_batches;
    out.sim("scrub_p50_cycles", report.latency.p50 as f64, "cycles");
    out.sim("scrub_p99_cycles", report.latency.p99 as f64, "cycles");
    out.note("scrub_latency_samples", samples.to_string());
    out.note(
        "scrub_p99_has_10_samples_beyond",
        stats::percentile_supported(samples, 0.99).to_string(),
    );
    out.sim(
        "scrub_miss_ratio",
        stats::ratio(
            (report.deadline_misses + report.shed_batches) as f64,
            report.arrivals as f64,
        ),
        "ratio",
    );
    out.sim(
        "scrub_silent_ratio",
        stats::ratio(report.silent_wrong as f64, report.messages_decoded as f64),
        "ratio",
    );
    out.sim(
        "stream.transitions",
        report.transitions.len() as f64,
        "count",
    );
    out.sim("stream.max_backlog", report.max_backlog as f64, "batches");
    out.sim(
        "stream.detect_rescrub_ratio",
        stats::ratio(report.detect_rescrub as f64, report.messages_decoded as f64),
        "ratio",
    );
    out.sim("stream.drain_cycles", report.time_to_drain as f64, "cycles");
    out.digest("scrub.report", {
        let mut h = stats::Fnv::default();
        h.bytes(report.deterministic_digest().as_bytes());
        h.hex()
    });
    if !overload(cfg) {
        out.checks.record(
            "nominal load meets every deadline and sheds nothing",
            report.arrivals,
            report.deadline_misses + report.shed_batches,
        );
    }

    if cfg.trace {
        trace(cfg, p, stats::median(&ns_per_msg), out);
    }
}

/// SplitMix64-style per-batch seed, as the service derives it.
fn ticket_seed(master: u64, id: u64) -> u64 {
    let mut z = master ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The traced run: the service once more under a telemetry snapshot, then
/// the worker-stage replica.
fn trace(cfg: &RunConfig, p: &Prepared, untraced_ns_per_msg: f64, out: &mut Outcome) {
    let before = sfq_telemetry::global().snapshot();
    let (_, traced_ns) = repeat(p, cfg.seconds / 4.0, out);
    let after = sfq_telemetry::global().snapshot();
    // Medians on both sides: the replica below is one pass, not a decile.
    let service_ns = stats::median(&traced_ns);
    out.host(
        format!("bench.trace_overhead.{}", cfg.workload.name()),
        service_ns / untraced_ns_per_msg,
        "ratio",
    );
    // Share of messages the worker fully decoded (the rest were screened
    // by detection only), from the codec's own call counters.
    let decodes = crate::counter_delta(&before, &after, "batch.decode.calls");
    let detects = crate::counter_delta(&before, &after, "batch.detect.calls");
    let decode_share = stats::ratio(decodes as f64, (decodes + detects) as f64);

    let config = &p.config;
    let codec = &p.codec;
    let flips = SparseFlipSource::new(config.flip_prob);
    let mut messages = BitSlice64::zeros(codec.k(), config.batch_messages);
    let (mut clean, mut received, mut syndromes) = (
        BitSlice64::default(),
        BitSlice64::default(),
        BitSlice64::default(),
    );
    let mut scratch = BatchScratch::new();
    let mut decoded = BatchDecoded::empty();
    let mut dirty = Vec::new();
    let mut ns = [0u64; 6];
    let batches = match cfg.scale {
        Scale::Full => REPLICA_BATCHES,
        Scale::Tiny => 8,
    };
    for id in 0..batches {
        let mut rng = StdRng::seed_from_u64(ticket_seed(config.seed, id));
        let mark = Instant::now();
        crate::fill_random(&mut messages, &mut rng);
        ns[0] += ns_since(mark);
        let mark = Instant::now();
        codec.encode_batch_into(&messages, &mut clean);
        ns[1] += ns_since(mark);
        let mark = Instant::now();
        received.copy_from(&clean);
        flips.inject(&mut rng, &mut received);
        ns[2] += ns_since(mark);
        let mark = Instant::now();
        codec.syndrome_batch_into(&received, &mut syndromes);
        ns[3] += ns_since(mark);
        let mark = Instant::now();
        codec.decode_batch_with(&received, &mut scratch, &mut decoded);
        ns[4] += ns_since(mark);
        let mark = Instant::now();
        codec.detect_batch_with(&received, &mut scratch, &mut dirty);
        ns[5] += ns_since(mark);
    }
    let per_msg = |ns: u64| ns as f64 / (batches as usize * config.batch_messages) as f64;
    let [gen, encode, inject, syndrome, decode, detect] = ns.map(per_msg);
    let slug = "secded_72_64";
    out.host("stream.gen_ns", gen, "ns/msg");
    out.host(format!("batch.encode_ns.{slug}"), encode, "ns/msg");
    out.host("link.inject_ns", inject, "ns/msg");
    out.host(format!("batch.syndrome_ns.{slug}"), syndrome, "ns/msg");
    out.host(format!("batch.decode_ns.{slug}"), decode, "ns/msg");
    out.host(format!("batch.detect_ns.{slug}"), detect, "ns/msg");
    out.host(
        format!("batch.decode_after_syndrome_ns.{slug}"),
        stats::self_time(decode, &[syndrome]),
        "ns/msg",
    );
    let screen = decode_share * decode + (1.0 - decode_share) * detect;
    out.host(
        "stream.overhead_ns",
        stats::self_time(service_ns, &[gen, encode, inject, screen]),
        "ns/msg",
    );
    out.host(
        "stream.worker_decode_ratio",
        stats::ratio(service_ns, decode),
        "ratio",
    );
    out.sim("stream.decode_share", decode_share, "ratio");
}
