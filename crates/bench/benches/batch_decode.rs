//! Batch-codec throughput report: per-code encode/decode/link messages per
//! second through each code's shipping batch codec. Emits
//! `BENCH_batch.json` at the workspace root so CI tracks the throughput
//! trajectory next to the synthesis report (`BENCH_synth.json`).
//!
//! Modes:
//!
//! * `cargo bench -p bench --bench batch_decode` — full measurement, writes
//!   `BENCH_batch.json`.
//! * `cargo bench -p bench --bench batch_decode -- --quick` — reduced
//!   measurement used as the CI throughput smoke check: fails (exit 1) if
//!   SEC-DED(72,64) batch decode falls below [`SECDED_72_64_DECODE_FLOOR`],
//!   if any `r > 8` code falls below its all-dirty floor, or if telemetry
//!   recording costs more than [`TELEMETRY_OVERHEAD_FLOOR`] of the
//!   recording-off decode rate (measured in-process via the
//!   `sfq_telemetry::set_recording` kill-switch).

use bench::banner_with_fingerprint;
use cryolink::{BatchLink, BatchLinkContext, ChannelConfig, LinkScratch};
use ecc::{BatchDecode, BatchDecoded, BatchEncode, BatchScratch};
use encoders::{EncoderDesign, EncoderKind};
use gf2::{BitSlice64, BitVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_batch::BatchCodec;
use sfq_sim::FaultMap;
use sfq_telemetry::json::{self, JsonWriter};
use sfq_telemetry::Fingerprint;
use std::hint::black_box;
use std::time::Instant;

/// CI throughput floor for SEC-DED(72,64) batch decode (messages/second),
/// checked in `--quick` mode. Measured ≈ 1.1–1.5e8 msg/s with the
/// byte-transpose direct-dispatch kernel on the commit that introduced the
/// kernel layer (1-core container hardware with heavy run-to-run noise; the
/// prefix-bucket walk it replaced sustained ≈ 7e7 on the same machine). The
/// floor is roughly half the low end of the measurement band, so it catches
/// walk-scale regressions and dispatch mistakes without tripping on runner
/// noise.
const SECDED_72_64_DECODE_FLOOR: f64 = 5.0e7;

/// CI all-dirty throughput floors (messages/second) of every `r > 8` code,
/// checked in `--quick` mode on the same input: one random error in *every*
/// word, so every lane is dirty and every lane is a distance-1 coset, which
/// the shared `tree` column stage corrects before any sliced or bit-flip
/// residual stage runs (BCH(31,16)'s sliced stage alone sustained only
/// ≈ 3.3–4.5e6). Each floor is roughly half the low end of six `--quick`
/// runs on a 2-core x86-64 container when the `tree` kernel landed:
/// 5.3e7–1.0e8, 1.8–3.5e8, 8.4e7–1.5e8, 7.7e7–1.5e8 and 6.5e7–1.3e8 in
/// table order. The prefix-bucket walk it replaced measured 2.4–2.6e7,
/// 8.1e7–1.7e8, 5.2–5.4e7, 3.5–5.0e7 and 2.7–4.2e7 on the same runs.
const R_ABOVE_8_DECODE_FLOORS: [(&str, f64); 5] = [
    ("shamming_85_64", 2.5e7),
    ("bch_31_16", 9.0e7),
    ("bch_63_51", 4.0e7),
    ("bch_63_45", 3.8e7),
    ("ldpc_60_32", 3.2e7),
];

/// Telemetry overhead gate, checked in `--quick` mode: SEC-DED(72,64)
/// batch decode with recording ON must sustain at least this fraction of
/// the recording-OFF rate. The instrumentation accumulates in plain locals
/// inside the kernel and flushes a handful of relaxed atomics once per
/// 4096-lane call, so the true cost is well under 1%; the 5% budget keeps
/// the gate meaningful without tripping on measurement noise.
const TELEMETRY_OVERHEAD_FLOOR: f64 = 0.95;

/// Lanes per measured batch.
const LANES: usize = 4096;

/// RNG seed used to build the measurement batches.
const SEED: u64 = 0xBA7C_DEC0;

/// Measures one closure's sustained rate in messages/second.
fn throughput<F: FnMut() -> usize>(quick: bool, mut f: F) -> f64 {
    let budget_ns: u128 = if quick { 20_000_000 } else { 200_000_000 };
    let start = Instant::now();
    let mut messages = f();
    let once = start.elapsed().max(std::time::Duration::from_nanos(100));
    let reps = (budget_ns / once.as_nanos().max(1)).clamp(1, 2_000_000) as usize;
    let start = Instant::now();
    for _ in 0..reps {
        messages = black_box(f());
    }
    let elapsed = start.elapsed().as_secs_f64();
    (messages * reps) as f64 / elapsed
}

/// One measured code: its shipping batch codec, the measurement input, and
/// whether a catalog design exists for link-level measurement.
struct Case {
    slug: &'static str,
    codec: BatchCodec,
    received: BitSlice64,
    link_kind: Option<EncoderKind>,
}

/// Builds the case of a catalog code from its shipping codec; `link` asks
/// for link-level measurement of the kind's design too.
fn build_case(slug: &'static str, kind: EncoderKind, link: bool, rng: &mut StdRng) -> Case {
    let codec = BatchCodec::new(&*kind.reference_code());
    // Measurement input: clean codewords with one random single-bit error
    // per word — the typical Monte-Carlo mix exercises the match path, not
    // just the all-clean fast path.
    let messages: Vec<BitVec> = (0..LANES)
        .map(|_| {
            (0..codec.k())
                .map(|_| rng.random::<u64>() & 1 == 1)
                .collect()
        })
        .collect();
    let mut received = codec.encode_batch(&BitSlice64::pack(&messages));
    for i in 0..LANES {
        let pos = rng.random_range(0..codec.n());
        received.set(i, pos, !received.get(i, pos));
    }
    Case {
        slug,
        codec,
        received,
        link_kind: link.then_some(kind),
    }
}

fn cases() -> Vec<Case> {
    use ecc::BchSpec;
    let mut rng = StdRng::seed_from_u64(SEED);
    [
        ("hamming_7_4", EncoderKind::Hamming74, true),
        ("hamming_8_4", EncoderKind::Hamming84, true),
        ("rm_1_3", EncoderKind::Rm13, true),
        ("secded_13_8", EncoderKind::SecDed(3), false),
        ("secded_39_32", EncoderKind::SecDed(5), false),
        ("secded_72_64", EncoderKind::SecDed(6), true),
        ("shamming_85_64", EncoderKind::WideHamming8564, true),
        ("bch_31_16", EncoderKind::Bch(BchSpec::BCH_31_16), true),
        ("bch_63_51", EncoderKind::Bch(BchSpec::BCH_63_51), true),
        ("bch_63_45", EncoderKind::Bch(BchSpec::BCH_63_45), true),
        ("ldpc_60_32", EncoderKind::Ldpc, true),
    ]
    .into_iter()
    .map(|(slug, kind, link)| build_case(slug, kind, link, &mut rng))
    .collect()
}

struct Measurement {
    slug: &'static str,
    n: usize,
    k: usize,
    program_len: usize,
    /// The kernels a decode runs for this code at [`LANES`] lanes.
    kernel: String,
    encode: f64,
    decode: f64,
    link: Option<f64>,
}

fn measure(quick: bool, fingerprint: &Fingerprint) -> Vec<Measurement> {
    banner_with_fingerprint(
        "sfq-batch: column-matching decoder throughput (single-error input)",
        fingerprint,
    );
    println!(
        "{:<16} {:>9} {:>18} {:>14} {:>14} {:>14}",
        "code", "entries", "kernel", "encode msg/s", "decode msg/s", "link msg/s"
    );
    let mut out = Vec::new();
    for case in cases() {
        let mut scratch = BatchScratch::new();
        let mut decoded = BatchDecoded::empty();
        let mut encoded = BitSlice64::default();
        let messages_only = {
            // Strip the received batch back to messages for the encode
            // measurement (any k-lane batch works; reuse the decode output).
            case.codec
                .decode_batch_with(&case.received, &mut scratch, &mut decoded);
            decoded.messages.clone()
        };
        let encode = throughput(quick, || {
            case.codec.encode_batch_into(&messages_only, &mut encoded);
            LANES
        });
        let decode = throughput(quick, || {
            case.codec
                .decode_batch_with(&case.received, &mut scratch, &mut decoded);
            LANES
        });
        let link = case.link_kind.map(|kind| {
            let design = EncoderDesign::build(kind);
            let ctx = BatchLinkContext::new(&design);
            let link = BatchLink::with_chip(
                &design,
                &ctx,
                &FaultMap::healthy(design.netlist()),
                ChannelConfig::ideal(),
            );
            let mut rng = StdRng::seed_from_u64(1);
            let messages = link.random_messages(LANES, &mut rng);
            let mut link_scratch = LinkScratch::new();
            throughput(quick, || {
                black_box(link.transmit_batch_with(&messages, &mut rng, &mut link_scratch));
                LANES
            })
        });
        let m = Measurement {
            slug: case.slug,
            n: case.codec.n(),
            k: case.codec.k(),
            program_len: case.codec.program_len(),
            kernel: case.codec.selected_kernel_name(LANES),
            encode,
            decode,
            link,
        };
        println!(
            "{:<16} {:>9} {:>18} {:>14.3e} {:>14.3e} {:>14}",
            m.slug,
            m.program_len,
            m.kernel,
            m.encode,
            m.decode,
            m.link.map_or("n/a".to_string(), |v| format!("{v:.3e}")),
        );
        out.push(m);
    }
    out
}

fn render_json(measurements: &[Measurement], fingerprint: &Fingerprint) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("fingerprint");
    fingerprint.write_json(&mut w);
    w.key("lanes");
    w.uint(LANES as u64);
    w.key("input");
    w.string("one random single-bit error per word");
    w.key("codes");
    w.begin_array();
    for m in measurements {
        w.begin_object();
        w.key("code");
        w.string(m.slug);
        w.key("n");
        w.uint(m.n as u64);
        w.key("k");
        w.uint(m.k as u64);
        w.key("match_entries");
        w.uint(m.program_len as u64);
        w.key("kernel");
        w.string(&m.kernel);
        w.key("encode_msgs_per_s");
        w.float(m.encode);
        w.key("decode_msgs_per_s");
        w.float(m.decode);
        w.key("link_msgs_per_s");
        match m.link {
            Some(rate) => w.float(rate),
            None => w.null(),
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Measures telemetry's own cost on the hottest kernel:
/// SEC-DED(72,64) batch decode with the runtime recording kill-switch off
/// (baseline — handles still exist, every recording call early-outs)
/// versus on (normal operation). Returns `(on, off)` rates in
/// messages/second, leaving recording enabled.
fn telemetry_overhead(quick: bool) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let code = ecc::ColumnCode::sec_ded(6);
    let codec = BatchCodec::new(&code);
    let messages: Vec<BitVec> = (0..LANES)
        .map(|_| BitVec::from_u64(64, rng.random::<u64>()))
        .collect();
    let mut received = codec.encode_batch(&BitSlice64::pack(&messages));
    for i in 0..LANES {
        let pos = rng.random_range(0..72usize);
        received.set(i, pos, !received.get(i, pos));
    }
    let mut scratch = BatchScratch::new();
    let mut decoded = BatchDecoded::empty();
    sfq_telemetry::set_recording(false);
    let off = throughput(quick, || {
        codec.decode_batch_with(&received, &mut scratch, &mut decoded);
        LANES
    });
    sfq_telemetry::set_recording(true);
    let on = throughput(quick, || {
        codec.decode_batch_with(&received, &mut scratch, &mut decoded);
        LANES
    });
    (on, off)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fingerprint = Fingerprint::new("batch_suite(11 codes)", 0, LANES, SEED, 1);
    let measurements = measure(quick, &fingerprint);

    if !quick {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
        let doc = render_json(&measurements, &fingerprint);
        json::write_artifact(out, &doc).unwrap_or_else(|e| panic!("{e}"));
        println!("wrote {out} ({} bytes)", doc.len());
    }

    // The committed floor is *enforced* only by the dedicated `--quick` CI
    // smoke step; the full report run just prints the comparison, so a
    // borderline-slow runner fails one clearly-labeled gate, not the report.
    let secded = measurements
        .iter()
        .find(|m| m.slug == "secded_72_64")
        .expect("secded_72_64 measured");
    println!(
        "SEC-DED(72,64) decode {:.3e} msg/s (floor {SECDED_72_64_DECODE_FLOOR:.1e})",
        secded.decode
    );
    for &(slug, floor) in &R_ABOVE_8_DECODE_FLOORS {
        let m = measurements
            .iter()
            .find(|m| m.slug == slug)
            .unwrap_or_else(|| panic!("{slug} measured"));
        println!(
            "{slug} decode {:.3e} msg/s (floor {floor:.1e}, all-dirty input)",
            m.decode
        );
    }
    if quick {
        if secded.decode < SECDED_72_64_DECODE_FLOOR {
            eprintln!(
                "THROUGHPUT REGRESSION: SEC-DED(72,64) batch decode {:.3e} msg/s is below \
                 the committed floor {SECDED_72_64_DECODE_FLOOR:.1e}",
                secded.decode
            );
            std::process::exit(1);
        }
        for &(slug, floor) in &R_ABOVE_8_DECODE_FLOORS {
            let m = measurements.iter().find(|m| m.slug == slug).unwrap();
            if m.decode < floor {
                eprintln!(
                    "THROUGHPUT REGRESSION: {slug} batch decode {:.3e} msg/s is below \
                     the committed floor {floor:.1e} (all-dirty input)",
                    m.decode
                );
                std::process::exit(1);
            }
        }
        let (on, off) = telemetry_overhead(quick);
        let ratio = on / off;
        println!(
            "telemetry overhead: recording on {on:.3e} msg/s, off {off:.3e} msg/s \
             (ratio {ratio:.3}, floor {TELEMETRY_OVERHEAD_FLOOR})"
        );
        if ratio < TELEMETRY_OVERHEAD_FLOOR {
            eprintln!(
                "TELEMETRY OVERHEAD REGRESSION: SEC-DED(72,64) batch decode with \
                 recording on runs at {ratio:.3}x the recording-off rate, below the \
                 {TELEMETRY_OVERHEAD_FLOOR} floor"
            );
            std::process::exit(1);
        }
    }
}
