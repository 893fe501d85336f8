//! `catalog_codec`: the shipping bit-sliced codec of every coded catalog
//! member on all-dirty batches.
//!
//! Set-up synthesizes the whole catalog cold (`EncoderDesign::
//! build_catalog`), builds each coded member's shipping `BatchCodec`
//! (`cryolink::batch_codec_for`), and draws [`LANES`] random messages per
//! code with exactly one random single-bit error in every received word.
//! That input bypasses the clean-limb short-circuit, so every kernel and
//! engine runs its decode worst case.
//!
//! The timed phase cycles through the codes, timing a block of calls per
//! code and operation (`encode_batch_into`, `syndrome_batch_into`,
//! `decode_batch_with`, `detect_batch_with`) until the budget is spent;
//! each metric is the good-end decile over blocks. The traced run repeats
//! the cycle with a timer around every single call.

use crate::stats::{self, Better};
use crate::{ns_since, Outcome, RunConfig, Scale, Workload};
use ecc::{BatchDecode, BatchDecoded, BatchEncode, BatchScratch};
use encoders::{EncoderDesign, EncoderKind};
use gf2::BitSlice64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_batch::BatchCodec;
use std::time::Instant;

/// The seed the workspace's batch-decode bench uses.
pub const DEFAULT_SEED: u64 = 0xBA7C_DEC0;

/// Lanes per batch.
pub const LANES: usize = 4096;

/// The timed codec operations, in metric-name form.
pub const OPS: [&str; 4] = ["encode", "syndrome", "decode", "detect"];

/// Target wall time of one timed block of calls.
const BLOCK_NS: u64 = 1_000_000;

/// One code's codec and input batch.
struct Case {
    slug: String,
    codec: BatchCodec,
    messages: BitSlice64,
    received: BitSlice64,
}

/// Output buffers shared by every call.
#[derive(Default)]
struct Buffers {
    encoded: BitSlice64,
    syndromes: BitSlice64,
    scratch: BatchScratch,
    decoded: Option<BatchDecoded>,
    dirty: Vec<u64>,
}

impl Case {
    /// One call of operation `op` (an index into [`OPS`]).
    fn call(&self, op: usize, b: &mut Buffers) {
        match op {
            0 => self.codec.encode_batch_into(&self.messages, &mut b.encoded),
            1 => self
                .codec
                .syndrome_batch_into(&self.received, &mut b.syndromes),
            2 => self.codec.decode_batch_with(
                &self.received,
                &mut b.scratch,
                b.decoded.get_or_insert_with(BatchDecoded::empty),
            ),
            _ => {
                self.codec
                    .detect_batch_with(&self.received, &mut b.scratch, &mut b.dirty);
            }
        }
    }
}

/// The prepared cases.
pub struct Prepared {
    cases: Vec<Case>,
    lanes: usize,
}

/// Set-up: cold catalog synthesis, shipping codecs, seeded inputs.
pub fn setup(cfg: &RunConfig, out: &mut Outcome) -> Prepared {
    let designs = if cfg.trace {
        crate::build_timed(&EncoderKind::catalog(), out)
    } else {
        EncoderDesign::build_catalog()
    };
    let lanes = match cfg.scale {
        Scale::Full => LANES,
        Scale::Tiny => 256,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cases = designs
        .iter()
        .filter(|d| d.kind() != EncoderKind::None)
        .map(|design| {
            let codec = cryolink::batch_codec_for(design);
            let mut messages = BitSlice64::zeros(codec.k(), lanes);
            crate::fill_random(&mut messages, &mut rng);
            let mut received = BitSlice64::default();
            codec.encode_batch_into(&messages, &mut received);
            for lane in 0..lanes {
                let pos = rng.random_range(0..codec.n());
                received.set(lane, pos, !received.get(lane, pos));
            }
            Case {
                slug: crate::slug(design.kind()),
                codec,
                messages,
                received,
            }
        })
        .collect();
    Prepared { cases, lanes }
}

/// Per-(code, op) samples in ns per message, plus the wall time of every
/// full cycle through the codes.
struct Samples {
    per_op: Vec<[Vec<f64>; 4]>,
    cycle_ns: Vec<f64>,
}

/// Cycles through every (code, op) until `budget_s` is spent (at least
/// two cycles). A block of `reps[c][op]` calls is one sample: timed as a
/// whole, or — `per_call` — as the sum of a timer around every call.
fn cycle(p: &Prepared, reps: &[[u64; 4]], budget_s: f64, per_call: bool) -> Samples {
    let mut buffers = Buffers::default();
    let mut samples = Samples {
        per_op: vec![Default::default(); p.cases.len()],
        cycle_ns: Vec::new(),
    };
    let start = Instant::now();
    while samples.cycle_ns.len() < 2 || start.elapsed().as_secs_f64() < budget_s {
        let cycle_start = Instant::now();
        for (c, case) in p.cases.iter().enumerate() {
            for (op, &calls) in reps[c].iter().enumerate() {
                let ns = if per_call {
                    let mut sum = 0;
                    for _ in 0..calls {
                        let mark = Instant::now();
                        case.call(op, &mut buffers);
                        sum += ns_since(mark);
                    }
                    sum
                } else {
                    let mark = Instant::now();
                    for _ in 0..calls {
                        case.call(op, &mut buffers);
                    }
                    ns_since(mark)
                };
                samples.per_op[c][op].push(ns as f64 / (calls as usize * p.lanes) as f64);
            }
        }
        samples.cycle_ns.push(ns_since(cycle_start) as f64);
    }
    samples
}

/// Measures the workload (see the module docs).
pub fn measure(cfg: &RunConfig, p: &Prepared, out: &mut Outcome) {
    for case in &p.cases {
        out.note(
            format!("kernel.{}", case.slug),
            case.codec.selected_kernel_name(LANES),
        );
    }
    // Warm-up doubles as calibration: calls per block so a block takes
    // about BLOCK_NS.
    let mut buffers = Buffers::default();
    let reps: Vec<[u64; 4]> = p
        .cases
        .iter()
        .map(|case| {
            let mut reps = [1u64; 4];
            for (op, r) in reps.iter_mut().enumerate() {
                case.call(op, &mut buffers);
                let mark = Instant::now();
                for _ in 0..4 {
                    case.call(op, &mut buffers);
                }
                let per_call = (ns_since(mark) / 4).max(1);
                *r = (BLOCK_NS / per_call).clamp(1, 10_000);
            }
            reps
        })
        .collect();

    let untraced = cycle(p, &reps, cfg.untraced_budget(), false);
    let rates = |op: usize| -> Vec<f64> {
        (0..p.cases.len())
            .map(|c| 1e9 / stats::good_decile(&untraced.per_op[c][op], Better::Lower))
            .collect()
    };
    let (decode_rates, encode_rates) = (rates(2), rates(0));
    let geomean = stats::geomean(&decode_rates);
    out.host("decode_msgs_per_s.geomean", geomean, "1/s");
    out.host("items_per_s", geomean, "1/s");
    out.host(
        "encode_msgs_per_s.geomean",
        stats::geomean(&encode_rates),
        "1/s",
    );
    if let Some(c) = p.cases.iter().position(|c| c.slug == "secded_72_64") {
        out.host("decode_msgs_per_s.secded_72_64", decode_rates[c], "1/s");
    }
    check_outputs(p, out);

    if !cfg.trace {
        record_ops(p, &untraced, out);
    } else {
        let traced = cycle(p, &reps, cfg.seconds / 2.0, true);
        record_ops(p, &traced, out);
        out.host(
            format!("bench.trace_overhead.{}", Workload::CatalogCodec.name()),
            stats::good_decile(&traced.cycle_ns, Better::Lower)
                / stats::good_decile(&untraced.cycle_ns, Better::Lower),
            "ratio",
        );
        if let Some(case) = p.cases.iter().find(|c| c.slug == "secded_72_64") {
            out.host("telemetry.recording_ratio", recording_ratio(case), "ratio");
        }
    }
}

/// Records `batch.<op>_ns.<code>` and `batch.decode_after_syndrome_ns.
/// <code>` (match + correct + extract: decode minus its syndrome stage)
/// from the samples.
fn record_ops(p: &Prepared, samples: &Samples, out: &mut Outcome) {
    for (c, case) in p.cases.iter().enumerate() {
        let ns: Vec<f64> = OPS
            .iter()
            .enumerate()
            .map(|(op, name)| {
                out.host_repeated(
                    format!("batch.{name}_ns.{}", case.slug),
                    &samples.per_op[c][op],
                    "ns/msg",
                    Better::Lower,
                )
            })
            .collect();
        out.host(
            format!("batch.decode_after_syndrome_ns.{}", case.slug),
            stats::self_time(ns[2], &[ns[1]]),
            "ns/msg",
        );
    }
}

/// Every lane must decode to its sent message and be marked corrected, and
/// the detection screen must flag every lane. Feeds `codec_wrong_ratio`
/// and one digest of the decoded output per code.
fn check_outputs(p: &Prepared, out: &mut Outcome) {
    let mut wrong_total = 0u64;
    let mut lanes_total = 0u64;
    for case in &p.cases {
        let mut scratch = BatchScratch::new();
        let mut decoded = BatchDecoded::empty();
        case.codec
            .decode_batch_with(&case.received, &mut scratch, &mut decoded);
        let mut dirty = Vec::new();
        case.codec
            .detect_batch_with(&case.received, &mut scratch, &mut dirty);
        let words = case.messages.words();
        let tail = case.messages.tail_mask();
        let (mut wrong, mut undetected) = (0u64, 0u64);
        let mut digest = stats::Fnv::default();
        for (w, &dirty_w) in dirty.iter().enumerate().take(words) {
            let valid = if w + 1 == words { tail } else { u64::MAX };
            let mut diff = 0u64;
            for bit in 0..case.codec.k() {
                let got = decoded.messages.lane(bit)[w];
                diff |= got ^ case.messages.lane(bit)[w];
                digest.word(got);
            }
            let ok = !diff & decoded.corrected[w] & !decoded.flagged[w];
            wrong += u64::from((valid & !ok).count_ones());
            undetected += u64::from((valid & !dirty_w).count_ones());
            digest.word(decoded.flagged[w]);
            digest.word(decoded.corrected[w]);
        }
        let lanes = case.messages.batch() as u64;
        out.checks.record(
            &format!(
                "{} lanes decode to the sent message, marked corrected",
                case.slug
            ),
            lanes,
            wrong,
        );
        out.checks.record(
            &format!("{} detection flags every lane", case.slug),
            lanes,
            undetected,
        );
        out.digest(format!("catalog.decoded.{}", case.slug), digest.hex());
        wrong_total += wrong;
        lanes_total += lanes;
    }
    out.sim(
        "codec_wrong_ratio",
        stats::ratio(wrong_total as f64, lanes_total as f64),
        "ratio",
    );
}

/// SEC-DED(72,64) decode rate with telemetry recording on ÷ off, from
/// alternating blocks of calls, each side at its good-end decile
/// (recording is left on).
fn recording_ratio(case: &Case) -> f64 {
    let mut buffers = Buffers::default();
    let mut block_ns = [Vec::new(), Vec::new()];
    for round in 0..400 {
        let on = round % 2 == 0;
        sfq_telemetry::set_recording(on);
        let mark = Instant::now();
        for _ in 0..32 {
            case.call(2, &mut buffers);
        }
        block_ns[usize::from(on)].push(ns_since(mark) as f64);
    }
    sfq_telemetry::set_recording(true);
    stats::good_decile(&block_ns[0], Better::Lower)
        / stats::good_decile(&block_ns[1], Better::Lower)
}
