//! Wall-clock throughput gates of the batch codec, compiled only into an
//! optimized build: `cargo test --release --test throughput_gates`.
//!
//! Each rate decodes one 4096-lane batch of codewords carrying one random
//! single-bit error per word, so every lane is dirty and the clean-limb fast
//! path never runs. One timed call sizes a loop of about 20 ms, and the rate
//! is the messages that loop decodes per second. Each floor sits at about
//! half the low end of the rates measured when it was set (see
//! [`DECODE_FLOORS`]), so it catches a kernel or dispatch regression, not
//! runner noise. The two tests take one lock, so they never time a rate
//! while the other one runs.

#![cfg(not(debug_assertions))]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_ecc::batch::BatchCodec;
use sfq_ecc::ecc::{BatchDecode, BatchDecoded, BatchEncode, BatchScratch, BchSpec};
use sfq_ecc::encoders::EncoderKind;
use sfq_ecc::gf2::{BitSlice64, BitVec};
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Lanes per decoded batch.
const LANES: usize = 4096;

/// Seed of every measurement batch.
const SEED: u64 = 0xBA7C_DEC0;

/// Wall time of the timed loop behind one rate.
const BUDGET: Duration = Duration::from_millis(20);

/// Decode floors, messages/second. SEC-DED(72,64) measured 1.1–1.5e8 msg/s
/// on a 1-core container when the byte-transpose kernel landed (the
/// prefix-bucket walk before it ran at about 7e7). The five `r > 8` codes
/// measured 5.3e7–1.0e8, 1.8–3.5e8, 8.4e7–1.5e8, 7.7e7–1.5e8 and
/// 6.5e7–1.3e8 in table order over six runs on a 2-core x86-64 container
/// when the shared `tree` column stage landed, against 2.4–2.6e7, 8.1e7–1.7e8, 5.2–5.4e7, 3.5–5.0e7 and
/// 2.7–4.2e7 for the prefix-bucket walk it replaced.
const DECODE_FLOORS: [(EncoderKind, f64); 6] = [
    (EncoderKind::SecDed(6), 5.0e7),
    (EncoderKind::WideHamming8564, 2.5e7),
    (EncoderKind::Bch(BchSpec::BCH_31_16), 9.0e7),
    (EncoderKind::Bch(BchSpec::BCH_63_51), 4.0e7),
    (EncoderKind::Bch(BchSpec::BCH_63_45), 3.8e7),
    (EncoderKind::Ldpc, 3.2e7),
];

/// SEC-DED(72,64) decode with telemetry recording on must sustain at least
/// this share of its rate with recording off. The kernel accumulates in
/// locals and flushes a few relaxed atomics once per call, so the true cost
/// is well under 1 %.
const RECORDING_RATIO_FLOOR: f64 = 0.95;

/// Recording-off/recording-on loop pairs the overhead gate alternates, so
/// host load that comes and goes during the test moves both rates alike.
const RECORDING_PAIRS: usize = 5;

static TIMING: Mutex<()> = Mutex::new(());

/// `kind`'s batch codec, and a batch of its codewords with one random bit
/// flipped in every word.
fn dirty_batch(kind: EncoderKind) -> (BatchCodec, BitSlice64) {
    let codec = BatchCodec::new(&*kind.reference_code());
    let mut rng = StdRng::seed_from_u64(SEED);
    let messages: Vec<BitVec> = (0..LANES)
        .map(|_| {
            (0..codec.k())
                .map(|_| rng.random::<u64>() & 1 == 1)
                .collect()
        })
        .collect();
    let mut received = codec.encode_batch(&BitSlice64::pack(&messages));
    for lane in 0..LANES {
        let pos = rng.random_range(0..codec.n());
        received.set(lane, pos, !received.get(lane, pos));
    }
    (codec, received)
}

/// Messages/second `codec` decodes `received` at, over a loop of about
/// [`BUDGET`] sized by one timed call.
fn decode_rate(codec: &BatchCodec, received: &BitSlice64) -> f64 {
    let (mut scratch, mut decoded) = (BatchScratch::new(), BatchDecoded::empty());
    let mut decode = || {
        codec.decode_batch_with(received, &mut scratch, &mut decoded);
        black_box(&decoded);
    };
    let start = Instant::now();
    decode();
    let once = start.elapsed().max(Duration::from_nanos(100));
    let reps = (BUDGET.as_nanos() / once.as_nanos()).clamp(1, 2_000_000) as u32;
    let start = Instant::now();
    for _ in 0..reps {
        decode();
    }
    (LANES as f64 * f64::from(reps)) / start.elapsed().as_secs_f64()
}

#[test]
fn batch_decode_meets_the_committed_floors() {
    let _timing = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let misses: Vec<String> = DECODE_FLOORS
        .iter()
        .filter_map(|&(kind, floor)| {
            let (codec, received) = dirty_batch(kind);
            let rate = decode_rate(&codec, &received);
            println!("{}: {rate:.3e} msg/s (floor {floor:.1e})", kind.name());
            (rate < floor).then(|| format!("{}: {rate:.3e} < {floor:.1e} msg/s", kind.name()))
        })
        .collect();
    assert!(
        misses.is_empty(),
        "batch decode fell below its committed floor:\n  {}",
        misses.join("\n  ")
    );
}

#[test]
fn telemetry_recording_keeps_its_overhead_budget() {
    let _timing = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let (codec, received) = dirty_batch(EncoderKind::SecDed(6));
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..RECORDING_PAIRS {
        sfq_ecc::telemetry::set_recording(false);
        off.push(decode_rate(&codec, &received));
        sfq_ecc::telemetry::set_recording(true);
        on.push(decode_rate(&codec, &received));
    }
    let median = |rates: &mut Vec<f64>| {
        rates.sort_by(f64::total_cmp);
        rates[rates.len() / 2]
    };
    let (off, on) = (median(&mut off), median(&mut on));
    let ratio = on / off;
    println!(
        "SEC-DED(72,64) decode, median of {RECORDING_PAIRS} alternating loops: \
         recording on {on:.3e}, off {off:.3e} msg/s ({ratio:.3})"
    );
    assert!(
        ratio >= RECORDING_RATIO_FLOOR,
        "recording on decodes at {ratio:.3}x the recording-off rate, \
         floor {RECORDING_RATIO_FLOOR}"
    );
}
