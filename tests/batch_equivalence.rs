//! Exhaustive bit-exactness proof: the bit-sliced batch codec agrees with the
//! scalar `ecc` path on every message and every low-weight error pattern, for
//! every code the paper uses.
//!
//! For each code, every one of the 2^k messages is encoded and corrupted with
//! every 0-, 1-, and 2-bit error pattern; the whole set is decoded once
//! through the batch engine and once per-word through the scalar decoder, and
//! the two must agree *exactly* — same corrected message, same error flag,
//! same correction status. Randomized multi-limb batches with a seeded RNG
//! cover batch sizes beyond one limb and higher-weight errors.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_ecc::batch::BatchCodec;
use sfq_ecc::ecc::{
    validate_code_matrices, BatchDecode, BatchEncode, BchSpec, BlockCode, ColumnCode,
    DecodeOutcome, Decoded, HardDecoder, Rm13, SyndromeClass,
};
use sfq_ecc::encoders::EncoderKind;
use sfq_ecc::gf2::{
    syndrome_bytes, syndrome_bytes_inverse, BitMat, BitSlice64, BitVec, WeightPatterns,
};

/// Every codeword corrupted with every error pattern of weight 0, 1, or 2.
fn low_weight_corpus<C: BlockCode>(code: &C) -> Vec<BitVec> {
    let n = code.n();
    let k = code.k();
    let mut received = Vec::new();
    for m in 0..(1u64 << k) {
        let cw = code.encode(&BitVec::from_u64(k, m));
        for weight in 0..=2usize {
            for pattern in WeightPatterns::new(n, weight) {
                let mut r = cw.clone();
                for pos in 0..n {
                    if (pattern >> pos) & 1 == 1 {
                        r.flip(pos);
                    }
                }
                received.push(r);
            }
        }
    }
    received
}

/// Checks one code: batch decode of its low-weight corpus must match scalar
/// decode word for word.
fn assert_batch_matches_scalar<C: BlockCode + HardDecoder>(code: &C) {
    assert_batch_matches_scalar_on(code, &low_weight_corpus(code));
}

#[test]
fn hamming74_batch_is_bit_exact_on_all_low_weight_patterns() {
    assert_batch_matches_scalar(&ColumnCode::hamming74());
}

#[test]
fn hamming84_batch_is_bit_exact_on_all_low_weight_patterns() {
    assert_batch_matches_scalar(&ColumnCode::hamming84());
}

#[test]
fn rm13_batch_is_bit_exact_on_all_low_weight_patterns() {
    assert_batch_matches_scalar(&Rm13::new());
}

#[test]
fn uncoded_batch_is_bit_exact_on_all_low_weight_patterns() {
    assert_batch_matches_scalar(&ColumnCode::uncoded(4));
}

#[test]
fn secded_13_8_batch_is_bit_exact_on_all_low_weight_patterns() {
    // The smallest family member is exhaustively tractable: all 256 messages
    // x all 0/1/2-bit patterns of the 13-bit word.
    assert_batch_matches_scalar(&ColumnCode::sec_ded(3));
}

fn seeded_messages(code: &ColumnCode, count: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| BitVec::from_u64(code.k(), rng.random::<u64>()))
        .collect()
}

/// Acceptance sweep for the wide member: every 0- and 1-bit error pattern of
/// every sampled codeword decodes bit-exactly to the scalar result (clean
/// words pass through, single errors are corrected back to the message).
#[test]
fn secded_72_64_batch_is_bit_exact_on_all_zero_and_one_bit_patterns() {
    let code = ColumnCode::sec_ded(6);
    let mut received = Vec::new();
    for msg in seeded_messages(&code, 6, 0x5ECD_ED01) {
        let cw = code.encode(&msg);
        received.push(cw.clone());
        for pos in 0..72 {
            let mut r = cw.clone();
            r.flip(pos);
            received.push(r);
        }
    }
    // 6 x (1 + 72) = 438 words, 6.9 limbs: exercises the tail mask too.
    assert_batch_matches_scalar_on(&code, &received);
}

/// Acceptance sweep for the wide member: a seeded sample of well over 10k
/// 2-bit error patterns — in fact every one of the C(72,2) = 2556 position
/// pairs on each of 5 sampled codewords (12 780 corrupted words) — is
/// reported `DetectedUncorrectable` by both paths.
#[test]
fn secded_72_64_flags_every_two_bit_pattern() {
    let code = ColumnCode::sec_ded(6);
    let codec = BatchCodec::new(&code);
    for (w, msg) in seeded_messages(&code, 5, 0x5ECD_ED02).iter().enumerate() {
        let cw = code.encode(msg);
        let mut received = Vec::with_capacity(2556);
        let mut pairs = Vec::with_capacity(2556);
        for a in 0..72 {
            for b in (a + 1)..72 {
                let mut r = cw.clone();
                r.flip(a);
                r.flip(b);
                received.push(r);
                pairs.push((a, b));
            }
        }
        let decoded = codec.decode_batch(&BitSlice64::pack(&received));
        assert_eq!(
            decoded.flagged_count(),
            received.len(),
            "codeword {w}: every double error must be flagged"
        );
        for (i, r) in received.iter().enumerate() {
            assert_eq!(
                code.decode(r).outcome,
                DecodeOutcome::DetectedUncorrectable,
                "codeword {w}: scalar decoder missed double error {:?}",
                pairs[i]
            );
        }
    }
}

/// Randomized multi-limb agreement for the whole SEC-DED family, arbitrary
/// error weights.
#[test]
fn secded_family_random_words_agree_with_scalar_decode() {
    for (m, seed) in [(3usize, 301u64), (4, 302), (5, 303), (6, 304)] {
        let code = ColumnCode::sec_ded(m);
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<BitVec> = (0..200)
            .map(|_| {
                (0..code.n())
                    .map(|_| rng.random::<u64>() & 1 == 1)
                    .collect()
            })
            .collect();
        assert_batch_matches_scalar_on(&code, &words);
    }
}

/// Word-for-word scalar-vs-batch agreement (syndromes, flags, corrections,
/// codewords and messages) on a given set of received words.
fn assert_batch_matches_scalar_on<C: BlockCode + HardDecoder>(code: &C, received: &[BitVec]) {
    assert_codec_matches_scalar_on(&BatchCodec::new(code), code, received);
}

/// Word-for-word scalar-vs-batch agreement through a caller-built codec,
/// for callers that decode through it again.
fn assert_codec_matches_scalar_on<C: BlockCode + HardDecoder>(
    codec: &BatchCodec,
    code: &C,
    received: &[BitVec],
) {
    let batch = BitSlice64::pack(received);
    let syndromes = codec.syndrome_batch(&batch);
    let decoded = codec.decode_batch(&batch);
    for (i, word) in received.iter().enumerate() {
        assert_eq!(
            syndromes.extract(i),
            code.syndrome(word),
            "{}: syndrome mismatch at word {i}",
            code.name()
        );
        let scalar = code.decode(word);
        match scalar.outcome {
            DecodeOutcome::DetectedUncorrectable => {
                assert!(
                    decoded.is_flagged(i),
                    "{}: word {i} should be flagged",
                    code.name()
                );
            }
            outcome => {
                assert!(
                    !decoded.is_flagged(i),
                    "{}: word {i} wrongly flagged",
                    code.name()
                );
                assert_eq!(
                    Some(decoded.messages.extract(i)),
                    scalar.message,
                    "{}: word {i} message mismatch",
                    code.name()
                );
                assert_eq!(
                    Some(decoded.codewords.extract(i)),
                    scalar.codeword,
                    "{}: word {i} codeword mismatch",
                    code.name()
                );
                assert_eq!(
                    decoded.is_corrected(i),
                    matches!(outcome, DecodeOutcome::Corrected { .. }),
                    "{}: word {i} correction status mismatch",
                    code.name()
                );
            }
        }
    }
}

/// Acceptance sweep for the r > 20 catalog member: every 0- and 1-bit error
/// pattern of every sampled Shortened Hamming(85,64) codeword decodes
/// bit-exactly to the scalar result. This is the pattern the old
/// action-table engine rejected outright (`n - k = 21 > 20`).
#[test]
fn shortened_hamming_85_64_batch_is_bit_exact_on_all_zero_and_one_bit_patterns() {
    let code = ColumnCode::wide_85_64();
    assert_eq!(code.n() - code.k(), 21, "the point is r > 20");
    let mut rng = StdRng::seed_from_u64(0x8564_0101);
    let mut received = Vec::new();
    for _ in 0..6 {
        let msg = BitVec::from_u64(64, rng.random::<u64>());
        let cw = code.encode(&msg);
        received.push(cw.clone());
        for pos in 0..85 {
            let mut r = cw.clone();
            r.flip(pos);
            received.push(r);
        }
    }
    // 6 x (1 + 85) = 516 words, 8.1 limbs: exercises the tail mask too.
    assert_batch_matches_scalar_on(&code, &received);
}

/// Two-bit patterns on the wide r > 20 member: the code has d_min = 3, so
/// doubles are detected *or* miscorrected — either way, batch and scalar
/// must agree word for word.
#[test]
fn shortened_hamming_85_64_batch_matches_scalar_on_two_bit_patterns() {
    let code = ColumnCode::wide_85_64();
    let mut rng = StdRng::seed_from_u64(0x8564_0202);
    let msg = BitVec::from_u64(64, rng.random::<u64>());
    let cw = code.encode(&msg);
    let mut received = Vec::new();
    for a in 0..85 {
        for b in (a + 1)..85 {
            let mut r = cw.clone();
            r.flip(a);
            r.flip(b);
            received.push(r);
        }
    }
    assert_eq!(received.len(), 3570); // C(85,2)
    assert_batch_matches_scalar_on(&code, &received);
}

/// Randomized multi-limb agreement for the wide member, arbitrary error
/// weights.
#[test]
fn shortened_hamming_85_64_random_words_agree_with_scalar_decode() {
    let code = ColumnCode::wide_85_64();
    let mut rng = StdRng::seed_from_u64(0x8564_0303);
    let words: Vec<BitVec> = (0..300)
        .map(|_| {
            (0..code.n())
                .map(|_| rng.random::<u64>() & 1 == 1)
                .collect()
        })
        .collect();
    assert_batch_matches_scalar_on(&code, &words);
}

/// Every weight-0, weight-1, and weight-2 pattern on sampled BCH(31,16)
/// codewords: all C(31,1) = 31 singles and all C(31,2) = 465 doubles per
/// codeword, scalar vs batch, bit-identical. The 2^16 message space is too
/// large to enumerate the way the 4-bit codes are, so messages are a seeded
/// sample and the *error patterns* are exhaustive; the `#[ignore]`d nightly
/// tier below widens the sample.
fn bch_exhaustive_double_error_corpus(code: &sfq_ecc::ecc::Bch, messages: usize) -> Vec<BitVec> {
    let mut rng = StdRng::seed_from_u64(0xBC43_1160);
    let mut received = Vec::new();
    for _ in 0..messages {
        let msg: BitVec = (0..code.k())
            .map(|_| rng.random::<u64>() & 1 == 1)
            .collect();
        let cw = code.encode(&msg);
        received.push(cw.clone());
        for weight in 1..=2usize {
            for pattern in WeightPatterns::new(code.n(), weight) {
                let mut r = cw.clone();
                for pos in 0..code.n() {
                    if (pattern >> pos) & 1 == 1 {
                        r.flip(pos);
                    }
                }
                received.push(r);
            }
        }
    }
    received
}

#[test]
fn bch_31_16_batch_is_bit_exact_on_all_zero_one_and_two_bit_patterns() {
    let code = sfq_ecc::ecc::Bch::bch_31_16();
    let codec = BatchCodec::new(&code);
    let received = bch_exhaustive_double_error_corpus(&code, 2);
    assert_eq!(received.len(), 2 * (1 + 31 + 465));
    assert_codec_matches_scalar_on(&codec, &code, &received);
    // Every corrupted word comes back corrected, not flagged: radius 2
    // covers the full corpus.
    let decoded = codec.decode_batch(&BitSlice64::pack(&received));
    assert_eq!(decoded.flagged_count(), 0);
    assert_eq!(decoded.corrected_count(), received.len() - 2);
}

/// The always-on exhaustive differential tier for the t = 2 registry member:
/// every one of the C(63,1) = 63 singles and C(63,2) = 1953 doubles on each
/// sampled BCH(63,51) codeword, scalar vs batch, bit-identical — and every
/// corrupted word corrected, never flagged (radius 2 covers the corpus).
#[test]
fn bch_63_51_batch_is_bit_exact_on_all_zero_one_and_two_bit_patterns() {
    let code = sfq_ecc::ecc::Bch::bch_63_51();
    let codec = BatchCodec::new(&code);
    let received = bch_exhaustive_double_error_corpus(&code, 2);
    assert_eq!(received.len(), 2 * (1 + 63 + 1953));
    assert_codec_matches_scalar_on(&codec, &code, &received);
    let decoded = codec.decode_batch(&BitSlice64::pack(&received));
    assert_eq!(decoded.flagged_count(), 0);
    assert_eq!(decoded.corrected_count(), received.len() - 2);
}

/// The radius-3 member corrects *triples*: a seeded sample of distinct
/// 3-position patterns on random BCH(63,45) codewords must come back
/// `Corrected` with the transmitted message on the scalar path, and the
/// batch path must agree word for word. (The full C(63,3) = 39 711 sweep is
/// the `#[ignore]`d nightly tier below.)
#[test]
fn bch_63_45_batch_corrects_seeded_triple_errors_identically() {
    let code = sfq_ecc::ecc::Bch::bch_63_45();
    let mut rng = StdRng::seed_from_u64(0xBC43_6345);
    let mut received = Vec::new();
    let mut messages = Vec::new();
    for _ in 0..80 {
        let msg: BitVec = (0..code.k())
            .map(|_| rng.random::<u64>() & 1 == 1)
            .collect();
        let mut r = code.encode(&msg);
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < 3 {
            positions.insert(rng.random_range(0..code.n()));
        }
        for &pos in &positions {
            r.flip(pos);
        }
        received.push(r);
        messages.push(msg);
    }
    for (word, msg) in received.iter().zip(&messages) {
        let scalar = code.decode(word);
        assert_eq!(
            scalar.outcome,
            DecodeOutcome::Corrected { bits_flipped: 3 },
            "radius 3 must correct every triple"
        );
        assert_eq!(scalar.message.as_ref(), Some(msg));
    }
    let codec = BatchCodec::new(&code);
    assert_codec_matches_scalar_on(&codec, &code, &received);
    let decoded = codec.decode_batch(&BitSlice64::pack(&received));
    assert_eq!(decoded.flagged_count(), 0);
    assert_eq!(decoded.corrected_count(), received.len());
}

/// Beyond the radius: sampled weight-4 patterns must be *flagged* by both
/// paths, not silently miscorrected. Syndrome decoding makes the verdict
/// codeword-independent (the outcome is a function of the error pattern
/// alone), so three fixed patterns × several random codewords is a real
/// sample of the flag path.
#[test]
fn bch_63_45_flags_sampled_four_bit_patterns_identically() {
    let code = sfq_ecc::ecc::Bch::bch_63_45();
    let codec = BatchCodec::new(&code);
    let mut rng = StdRng::seed_from_u64(0xBC43_6346);
    let mut received = Vec::new();
    for positions in [[0usize, 1, 2, 3], [7, 19, 33, 60], [2, 20, 40, 62]] {
        for _ in 0..4 {
            let msg: BitVec = (0..code.k())
                .map(|_| rng.random::<u64>() & 1 == 1)
                .collect();
            let mut r = code.encode(&msg);
            for pos in positions {
                r.flip(pos);
            }
            received.push(r);
        }
    }
    for word in &received {
        assert_eq!(
            code.decode(word).outcome,
            DecodeOutcome::DetectedUncorrectable,
            "these weight-4 patterns have no weight-≤3 locator solution"
        );
    }
    assert_codec_matches_scalar_on(&codec, &code, &received);
    let decoded = codec.decode_batch(&BitSlice64::pack(&received));
    assert_eq!(decoded.flagged_count(), received.len());
}

/// The nightly `bch` tier (CI matrix flag, `--include-ignored bch`): the
/// *full* C(63,3) = 39 711 triple sweep on a seeded BCH(63,45) codeword —
/// plus all singles and doubles — every pattern corrected back to the
/// transmitted message, scalar and batch in bit-identical agreement.
#[test]
#[ignore = "heavy exhaustive tier; run with --include-ignored bch (nightly CI leg)"]
fn bch_63_45_exhaustive_triple_error_tier_is_bit_exact() {
    let code = sfq_ecc::ecc::Bch::bch_63_45();
    let codec = BatchCodec::new(&code);
    let mut rng = StdRng::seed_from_u64(0xBC43_6347);
    let msg: BitVec = (0..code.k())
        .map(|_| rng.random::<u64>() & 1 == 1)
        .collect();
    let cw = code.encode(&msg);
    let mut received = vec![cw.clone()];
    for weight in 1..=3usize {
        for pattern in WeightPatterns::new(code.n(), weight) {
            let mut r = cw.clone();
            for pos in 0..code.n() {
                if (pattern >> pos) & 1 == 1 {
                    r.flip(pos);
                }
            }
            received.push(r);
        }
    }
    assert_eq!(received.len(), 1 + 63 + 1953 + 39_711);
    assert_codec_matches_scalar_on(&codec, &code, &received);
    let decoded = codec.decode_batch(&BitSlice64::pack(&received));
    assert_eq!(decoded.flagged_count(), 0);
    assert_eq!(decoded.corrected_count(), received.len() - 1);
    for i in 1..received.len() {
        assert_eq!(
            decoded.messages.extract(i),
            msg,
            "word {i} must decode back to the transmitted message"
        );
    }
}

/// The nightly `bch` tier, t = 2 member: the exhaustive single + double
/// sweep over a much wider message sample — 20 seeded messages ×
/// (1 + 63 + 1953) patterns = 40 340 words.
#[test]
#[ignore = "heavy exhaustive tier; run with --include-ignored bch (nightly CI leg)"]
fn bch_63_51_exhaustive_double_error_tier_over_widened_message_sample() {
    let code = sfq_ecc::ecc::Bch::bch_63_51();
    let received = bch_exhaustive_double_error_corpus(&code, 20);
    assert_eq!(received.len(), 20 * (1 + 63 + 1953));
    assert_batch_matches_scalar_on(&code, &received);
}

/// The nightly `bch` tier (CI matrix flag, `--include-ignored bch`): the
/// same exhaustive single + double sweep over a much wider message sample —
/// 40 seeded messages × (1 + 31 + 465) patterns = 19 880 words.
#[test]
#[ignore = "heavy exhaustive tier; run with --include-ignored bch (nightly CI leg)"]
fn bch_31_16_exhaustive_double_error_tier_over_widened_message_sample() {
    let code = sfq_ecc::ecc::Bch::bch_31_16();
    let received = bch_exhaustive_double_error_corpus(&code, 40);
    assert_eq!(received.len(), 40 * 497);
    assert_batch_matches_scalar_on(&code, &received);
}

/// Random triple-error words: with d_min = 7 and decode radius 2, no
/// codeword lies within distance 2 of a weight-3 corruption, so *every*
/// triple must come back `DetectedUncorrectable` — and the batch path must
/// agree word for word (the generic comparator would also accept an
/// identical miscorrection, so the scalar outcome is pinned explicitly).
#[test]
fn bch_31_16_triple_errors_are_detected_identically_in_both_paths() {
    let code = sfq_ecc::ecc::Bch::bch_31_16();
    let mut rng = StdRng::seed_from_u64(0xBC43_1161);
    let mut received = Vec::new();
    for _ in 0..40 {
        let msg: BitVec = (0..code.k())
            .map(|_| rng.random::<u64>() & 1 == 1)
            .collect();
        let mut r = code.encode(&msg);
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < 3 {
            positions.insert(rng.random_range(0..code.n()));
        }
        for &pos in &positions {
            r.flip(pos);
        }
        received.push(r);
    }
    for word in &received {
        assert_eq!(
            code.decode(word).outcome,
            DecodeOutcome::DetectedUncorrectable,
            "d_min = 7 guarantees triples are detected at radius 2"
        );
    }
    let codec = BatchCodec::new(&code);
    assert_codec_matches_scalar_on(&codec, &code, &received);
    let decoded = codec.decode_batch(&BitSlice64::pack(&received));
    assert_eq!(decoded.flagged_count(), received.len());
}

/// Randomized multi-limb agreement for BCH(31,16), arbitrary error weights.
#[test]
fn bch_31_16_random_words_agree_with_scalar_decode() {
    let code = sfq_ecc::ecc::Bch::bch_31_16();
    let mut rng = StdRng::seed_from_u64(0xBC43_1162);
    let words: Vec<BitVec> = (0..300)
        .map(|_| {
            (0..code.n())
                .map(|_| rng.random::<u64>() & 1 == 1)
                .collect()
        })
        .collect();
    assert_batch_matches_scalar_on(&code, &words);
}

/// A test-local single-error-correcting code over a *random* parity-check
/// matrix `H = [C | I_r]`: `k` distinct random non-power-of-two nonzero
/// column codes, systematic generator, and an independently written scalar
/// decoder (linear column scan, no shared lookup structure with the batch
/// engine).
struct RandomSecCode {
    k: usize,
    r: usize,
    g: BitMat,
    h: BitMat,
}

impl RandomSecCode {
    fn new(k: usize, r: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut codes: Vec<u64> = Vec::with_capacity(k);
        while codes.len() < k {
            let v = rng.random::<u64>() & ((1u64 << r) - 1);
            if v == 0 || v.is_power_of_two() || codes.contains(&v) {
                continue;
            }
            codes.push(v);
        }
        let n = k + r;
        let mut g = BitMat::zeros(k, n);
        let mut h = BitMat::zeros(r, n);
        for (i, &v) in codes.iter().enumerate() {
            g.set(i, i, true);
            for t in 0..r {
                if (v >> t) & 1 == 1 {
                    g.set(i, k + t, true);
                    h.set(t, i, true);
                }
            }
        }
        for t in 0..r {
            h.set(t, k + t, true);
        }
        validate_code_matrices(&g, &h);
        RandomSecCode { k, r, g, h }
    }
}

impl BlockCode for RandomSecCode {
    fn name(&self) -> &str {
        "random-sec"
    }
    fn n(&self) -> usize {
        self.k + self.r
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if self.is_codeword(codeword) {
            Some(codeword.slice(0..self.k))
        } else {
            None
        }
    }
}

impl HardDecoder for RandomSecCode {
    fn decode(&self, received: &BitVec) -> Decoded {
        let syndrome = self.syndrome(received);
        if syndrome.is_zero() {
            return Decoded::clean(received.clone(), received.slice(0..self.k));
        }
        for pos in 0..self.n() {
            if self.h.col(pos) == syndrome {
                let mut corrected = received.clone();
                corrected.flip(pos);
                let msg = corrected.slice(0..self.k);
                return Decoded::corrected(corrected, msg, 1);
            }
        }
        Decoded::detected()
    }

    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::ColumnFlip
    }
}

proptest! {
    /// Random parity-check matrices with redundancies up to 24 (well past
    /// the old 20-bit action-table limit) decode identically scalar-vs-batch
    /// on random received words of arbitrary error weight.
    #[test]
    fn random_parity_checks_up_to_r24_decode_identically(
        k in 2usize..=32,
        r in 6usize..=24,
        seed in any::<u64>(),
    ) {
        let code = RandomSecCode::new(k, r, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        let words: Vec<BitVec> = (0..80)
            .map(|_| {
                (0..code.n())
                    .map(|_| rng.random::<u64>() & 1 == 1)
                    .collect()
            })
            .collect();
        // Plus guaranteed-clean and single-error words so the correct arm is
        // always exercised.
        let mut corpus = words;
        let msg: BitVec = (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect();
        let cw = code.encode(&msg);
        corpus.push(cw.clone());
        for pos in [0, code.k(), code.n() - 1] {
            let mut w = cw.clone();
            w.flip(pos);
            corpus.push(w);
        }
        assert_batch_matches_scalar_on(&code, &corpus);
    }
}

/// Batch sizes straddling every limb boundary the kernels care about: a
/// single lane, one bit short of a limb, exactly one limb, one lane over,
/// a ragged two-limb batch, a ragged 256-bit-chunk batch, and a batch with
/// both full 256-bit chunks *and* a ragged `u64` remainder.
const RAGGED_BATCH_SIZES: [usize; 7] = [1, 63, 64, 65, 130, 257, 320];

/// Decodes a mostly-clean batch (one dirty lane in 16) and an all-dirty
/// batch of `code` at every ragged batch size through `codec`, word for word
/// against the scalar decoder. Dirty lanes get `1..=max_weight` random
/// flips, or dense random noise at every index ≡ 6 (mod 7). The two
/// densities between them run every column-stage kernel tier: `direct8`'s
/// sparse path on the mostly-clean batch, its dense and partition paths on
/// the all-dirty one, and the walks on ragged and full 256-bit chunks.
fn assert_sweep_matches_scalar<C: BlockCode + HardDecoder>(
    codec: &BatchCodec,
    code: &C,
    max_weight: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for batch_size in RAGGED_BATCH_SIZES {
        for dirty_every in [16, 1] {
            let words: Vec<BitVec> = (0..batch_size)
                .map(|i| {
                    let msg: BitVec = (0..code.k())
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect();
                    let mut w = code.encode(&msg);
                    if i % dirty_every == 0 && i % 7 == 6 {
                        w = (0..code.n())
                            .map(|_| rng.random::<u64>() & 1 == 1)
                            .collect();
                    } else if i % dirty_every == 0 {
                        for _ in 0..=(i % max_weight) {
                            w.flip(rng.random_range(0..code.n()));
                        }
                    }
                    w
                })
                .collect();
            assert_codec_matches_scalar_on(codec, code, &words);
        }
    }
}

/// The scalar decoder is the one oracle for the table-lookup codes: every
/// coded `ColumnFlip` catalog member and the r = 0 uncoded link, through
/// [`BatchCodec::new`] at every ragged batch size.
#[test]
fn table_lookup_codes_match_the_scalar_decoder_at_ragged_batch_sizes() {
    fn sweep<C: BlockCode + HardDecoder>(code: &C, seed: u64) {
        assert_sweep_matches_scalar(&BatchCodec::new(code), code, 3, seed);
    }
    sweep(&ColumnCode::hamming74(), 0xD15_0001);
    sweep(&ColumnCode::hamming84(), 0xD15_0002);
    sweep(&Rm13::new(), 0xD15_0003);
    sweep(&ColumnCode::uncoded(4), 0xD15_0007);
    for m in 3..=6 {
        sweep(&ColumnCode::sec_ded(m), 0xD15_0010 + m as u64);
    }
    sweep(&ColumnCode::wide_85_64(), 0xD15_0020);
}

/// Every BCH registry member through its sliced codec at every ragged batch
/// size, word for word against the scalar decoder. Error weights run up to
/// `radius + 1`, so each member's flag path runs too.
#[test]
fn bch_registry_matches_the_scalar_decoder_at_ragged_batch_sizes() {
    for (s, spec) in BchSpec::REGISTRY.into_iter().enumerate() {
        let code = sfq_ecc::ecc::Bch::from_spec(spec);
        let radius = spec.decode_radius as usize;
        let seed = 0xBC43_2001 + s as u64;
        assert_sweep_matches_scalar(&BatchCodec::new(&code), &code, radius + 1, seed);
    }
}

/// The bit-flip engine behind the shared column stage: LDPC(60,32) words
/// with 1–3 seeded flips plus dense random noise agree word for word with
/// the scalar `HardDecoder` (the same synchronous schedule and iteration
/// cap, so the agreement is exact — including non-convergent words, which
/// both paths must flag). The ragged sizes run the `tree` column stage on
/// one-word batches, a zero-padded tail chunk, and full 256-lane chunks, so
/// the engine's output does not depend on the chunk shape.
#[test]
fn ldpc_bit_flip_engine_is_kernel_invariant_and_matches_scalar_decode() {
    let code = sfq_ecc::ecc::Ldpc::gallager_60_32();
    assert_sweep_matches_scalar(&BatchCodec::new(&code), &code, 3, 0xBC43_2002);
}

/// Every column-stage kernel is reached by a catalog code the sweeps above
/// decode: the code's redundancy picks direct dispatch (`r ≤ 8`) or the
/// decision tree, at every batch length. Algebraic and iterative codecs name
/// their residual stage too.
#[test]
fn selected_kernel_names_follow_the_code_and_batch_shape() {
    // In catalog order: RM(1,3), Hamming(7,4), Hamming(8,4), uncoded, the
    // four SEC-DED members, Shortened Hamming(85,64), the three BCH members
    // and LDPC(60,32).
    let names = [
        "direct4",
        "direct4",
        "direct4",
        "none",
        "direct8",
        "direct8",
        "direct8",
        "direct8",
        "tree",
        "tree+sliced",
        "tree+sliced",
        "tree+sliced",
        "tree+bit-flip",
    ];
    let kinds = EncoderKind::catalog();
    assert_eq!(kinds.len(), names.len());
    for (kind, name) in kinds.into_iter().zip(names) {
        let codec = BatchCodec::new(&*kind.reference_code());
        for lanes in [64, 192, 4096] {
            assert_eq!(
                codec.selected_kernel_name(lanes),
                name,
                "{} at {lanes} lanes",
                codec.name()
            );
        }
    }
}

proptest! {
    /// The byte-transpose round trip is the identity on random syndrome
    /// slices: `syndrome_bytes` followed by `syndrome_bytes_inverse`
    /// recovers every slice bit, for every redundancy `r ≤ 8` the direct8
    /// kernel dispatches on.
    #[test]
    fn syndrome_byte_transpose_roundtrips_random_slices(
        raw in prop::collection::vec(any::<u64>(), 8),
        r in 1usize..=8,
    ) {
        let slices = &raw[..r];
        let mut bytes = [0u64; 8];
        syndrome_bytes(slices, &mut bytes);
        let mut recovered = vec![0u64; r];
        syndrome_bytes_inverse(&bytes, &mut recovered);
        prop_assert_eq!(&recovered[..], slices);
    }

    /// The transposed layout means what the direct8 kernel assumes: byte
    /// `j` of output word `q` is exactly the syndrome of lane `8q + j`,
    /// assembled bit-by-bit from the input slices.
    #[test]
    fn syndrome_byte_transpose_places_each_lane_syndrome(
        raw in prop::collection::vec(any::<u64>(), 8),
        r in 1usize..=8,
        lane in 0usize..64,
    ) {
        let slices = &raw[..r];
        let mut bytes = [0u64; 8];
        syndrome_bytes(slices, &mut bytes);
        let mut expected = 0u64;
        for (t, &slice) in slices.iter().enumerate() {
            expected |= ((slice >> lane) & 1) << t;
        }
        let got = (bytes[lane / 8] >> (8 * (lane % 8))) & 0xFF;
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn batch_encode_matches_scalar_encode_for_every_message() {
    fn check<C: BlockCode + HardDecoder>(code: &C) {
        let codec = BatchCodec::new(code);
        let messages: Vec<BitVec> = (0..(1u64 << code.k()))
            .map(|m| BitVec::from_u64(code.k(), m))
            .collect();
        let encoded = codec.encode_batch(&BitSlice64::pack(&messages));
        for (i, msg) in messages.iter().enumerate() {
            assert_eq!(encoded.extract(i), code.encode(msg), "{}", code.name());
        }
    }
    check(&ColumnCode::hamming74());
    check(&ColumnCode::hamming84());
    check(&Rm13::new());
    check(&ColumnCode::uncoded(4));
}

#[test]
fn randomized_multi_limb_batches_agree_with_scalar_decode() {
    // 333 words per batch (5.2 limbs, exercising the tail mask) with errors
    // of arbitrary weight, across all four codes, seeded for reproducibility.
    fn check<C: BlockCode + HardDecoder>(code: &C, seed: u64) {
        let codec = BatchCodec::new(code);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = code.n();
        let words: Vec<BitVec> = (0..333)
            .map(|_| BitVec::from_u64(n, rng.random_range(0..(1u64 << n))))
            .collect();
        let decoded = codec.decode_batch(&BitSlice64::pack(&words));
        for (i, word) in words.iter().enumerate() {
            let scalar = code.decode(word);
            match scalar.outcome {
                DecodeOutcome::DetectedUncorrectable => {
                    assert!(decoded.is_flagged(i), "{} word {i}", code.name());
                }
                _ => {
                    assert!(!decoded.is_flagged(i), "{} word {i}", code.name());
                    assert_eq!(
                        Some(decoded.messages.extract(i)),
                        scalar.message,
                        "{} word {i}",
                        code.name()
                    );
                }
            }
        }
    }
    check(&ColumnCode::hamming74(), 101);
    check(&ColumnCode::hamming84(), 102);
    check(&Rm13::new(), 103);
    check(&ColumnCode::uncoded(4), 105);
}

#[test]
fn sixty_four_lane_roundtrip_with_seeded_rng() {
    // The headline configuration: exactly one limb of 64 independent
    // codewords per bit lane, random messages, random single-bit errors.
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let codec = BatchCodec::new(&ColumnCode::hamming84());
    let messages: Vec<BitVec> = (0..64)
        .map(|_| BitVec::from_u64(4, rng.random_range(0..16)))
        .collect();
    let mut received = codec.encode_batch(&BitSlice64::pack(&messages));
    for i in 0..64 {
        let pos = rng.random_range(0..8usize);
        received.set(i, pos, !received.get(i, pos));
    }
    let decoded = codec.decode_batch(&received);
    assert_eq!(decoded.flagged_count(), 0);
    assert_eq!(decoded.corrected_count(), 64);
    assert_eq!(decoded.messages.unpack(), messages);
}
