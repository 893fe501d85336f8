//! A short regular Gallager LDPC code with a synchronous bit-flipping
//! decoder — the catalog's first iteratively decoded member.
//!
//! [`Ldpc::gallager_60_32`] constructs a (60, 32) regular LDPC code in
//! Gallager's original form: the low-density parity-check matrix `H` is
//! three *tiers* of 10 checks each, every tier a partition of the 60
//! codeword positions into blocks of 6 (row weight 6), so every position
//! participates in exactly three checks (column weight 3). The second and
//! third tiers are affine permutations of the first, chosen so that **any
//! two columns share at most one check** — girth ≥ 6, no 4-cycles — which
//! is exactly the property that makes one synchronous round of bit flipping
//! correct every single-bit error: the flipped position sees all 3 of its
//! checks unsatisfied, while any other position shares at most one of them
//! and stays below the majority threshold.
//!
//! `H` has rank 28 (each tier's rows sum to the all-ones vector, giving two
//! dependencies), so `k = 32`. The full-rank 28-row matrix `H′` reported by
//! [`BlockCode::parity_check`] is the row-reduced form of `H` — same row
//! space, so the two agree on what a codeword is — and the generator sets
//! each message bit at one of `H′`'s 32 non-pivot columns with the pivot
//! columns completing the parity.
//!
//! # Decoding
//!
//! [`HardDecoder::decode`] is Gallager's parallel (synchronous) bit-flip
//! rule: each round computes all 30 check parities from the current word,
//! then flips every position where at least 2 of its 3 checks are
//! unsatisfied, and repeats up to [`Ldpc::MAX_ITERATIONS`] rounds. A word
//! whose checks never all clear is flagged
//! [`DecodeOutcome::DetectedUncorrectable`](crate::DecodeOutcome). The flip
//! decision depends only on check parities — the decoder is coset-invariant
//! — and the synchronous schedule is shared verbatim with the batch
//! engine's whole-limb kernel through [`Ldpc::bit_flip_plan`],
//! which is what makes scalar and batch decoding bit-identical even on
//! all-dirty limbs.

use crate::decoder::{Decoded, SyndromeClass};
use crate::iterative::BitFlipPlan;
use crate::{validate_code_matrices, BlockCode, HardDecoder};
use gf2::{BitMat, BitVec};

/// A regular Gallager LDPC code with a synchronous bit-flipping decoder.
#[derive(Debug, Clone)]
pub struct Ldpc {
    n: usize,
    k: usize,
    /// The low-density decoding matrix (30 × 60, row weight 6, column
    /// weight 3) — redundant rows, same row space as `h_full_rank`.
    check_supports: Vec<u128>,
    /// `var_checks[j]`: the three checks position `j` participates in.
    var_checks: Vec<[usize; 3]>,
    g: BitMat,
    /// Row-reduced full-rank form of the decoding matrix (28 × 60).
    h_full_rank: BitMat,
    /// The 32 non-pivot columns of `h_full_rank`: message bit `i` lives at
    /// codeword position `free_cols[i]`.
    free_cols: Vec<usize>,
    name: String,
}

/// Tier block assignments of the (60, 32) construction: each tier maps a
/// codeword position to one of 10 blocks of 6. The affine multipliers (7
/// and 11, both coprime to 60) were chosen so the three partitions pairwise
/// intersect in at most one position — the girth ≥ 6 condition, re-verified
/// at construction.
fn tier_block(tier: usize, j: usize) -> usize {
    match tier {
        0 => j / 6,
        1 => (7 * j % 60) / 6,
        _ => ((11 * j + 1) % 60) / 6,
    }
}

impl Ldpc {
    /// Synchronous flip rounds before the decoder gives up on a word.
    pub const MAX_ITERATIONS: usize = 20;

    /// Constructs the (60, 32) regular Gallager code (`j = 3` checks per
    /// position, `k = 6` positions per check, girth ≥ 6).
    ///
    /// # Panics
    /// Panics if the construction's internal consistency checks fail (a
    /// bug, not an input condition).
    #[must_use]
    pub fn gallager_60_32() -> Self {
        let n = 60usize;
        let checks = 30usize;

        let mut check_supports = vec![0u128; checks];
        for tier in 0..3 {
            for j in 0..n {
                check_supports[tier * 10 + tier_block(tier, j)] |= 1u128 << j;
            }
        }
        let mut var_checks = Vec::with_capacity(n);
        for j in 0..n {
            let mine: Vec<usize> = (0..checks)
                .filter(|&c| check_supports[c] & (1u128 << j) != 0)
                .collect();
            assert_eq!(mine.len(), 3, "column weight must be 3");
            var_checks.push([mine[0], mine[1], mine[2]]);
        }
        for support in &check_supports {
            assert_eq!(support.count_ones(), 6, "row weight must be 6");
        }
        // Girth ≥ 6: any two positions share at most one check, the
        // property behind guaranteed single-error correction.
        for a in 0..n {
            for b in (a + 1)..n {
                let shared = (0..3)
                    .filter(|&t| tier_block(t, a) == tier_block(t, b))
                    .count();
                assert!(shared <= 1, "positions {a},{b} share {shared} checks");
            }
        }

        // Full-rank H′ = the nonzero rows of rref(H); same row space, so
        // "zero syndrome" means the same thing under both matrices.
        let mut h_dense = BitMat::zeros(checks, n);
        for (c, &support) in check_supports.iter().enumerate() {
            for j in 0..n {
                if support & (1u128 << j) != 0 {
                    h_dense.set(c, j, true);
                }
            }
        }
        let (reduced, pivots) = h_dense.rref();
        let rank = pivots.len();
        let k = n - rank;
        let h_full_rank = BitMat::from_rows(
            (0..rank)
                .map(|i| (0..n).map(|j| reduced.get(i, j)).collect())
                .collect(),
        );

        // Generator: message bit i sits at free (non-pivot) column f_i, and
        // each pivot column p (pivot row r_p) carries R[r_p][f_i] so every
        // check clears.
        let free_cols: Vec<usize> = (0..n).filter(|j| !pivots.contains(j)).collect();
        assert_eq!(free_cols.len(), k);
        let mut g = BitMat::zeros(k, n);
        for (i, &f) in free_cols.iter().enumerate() {
            g.set(i, f, true);
            for (r, &p) in pivots.iter().enumerate() {
                if reduced.get(r, f) {
                    g.set(i, p, true);
                }
            }
        }
        validate_code_matrices(&g, &h_full_rank);

        Ldpc {
            n,
            k,
            check_supports,
            var_checks,
            g,
            h_full_rank,
            free_cols,
            name: format!("LDPC({n},{k})"),
        }
    }

    /// Extracts the message from a codeword: bit `i` is the codeword bit at
    /// the `i`-th free column.
    #[must_use]
    pub fn extract_message(&self, codeword: &BitVec) -> BitVec {
        self.free_cols.iter().map(|&f| codeword.get(f)).collect()
    }

    /// The word as a position bitmask (bit `j` ↦ position `j`).
    fn word_mask(&self, word: &BitVec) -> u128 {
        (0..self.n)
            .filter(|&j| word.get(j))
            .fold(0u128, |acc, j| acc | (1u128 << j))
    }

    /// Parities of the 30 low-density checks over a word mask.
    fn check_parities(&self, word: u128) -> u32 {
        self.check_supports
            .iter()
            .enumerate()
            .fold(0u32, |acc, (c, &support)| {
                acc | (((word & support).count_ones() & 1) << c)
            })
    }
}

impl BlockCode for Ldpc {
    fn name(&self) -> &str {
        &self.name
    }
    fn n(&self) -> usize {
        self.n
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generator(&self) -> &BitMat {
        &self.g
    }
    fn parity_check(&self) -> &BitMat {
        &self.h_full_rank
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if self.is_codeword(codeword) {
            Some(self.extract_message(codeword))
        } else {
            None
        }
    }
}

impl HardDecoder for Ldpc {
    /// Gallager's parallel bit-flip rule under the synchronous schedule of
    /// the module docs — identical, round for round, to the batch engine's
    /// whole-limb kernel.
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), self.n, "received word length mismatch");
        let start = self.word_mask(received);
        let mut word = start;
        for _ in 0..Self::MAX_ITERATIONS {
            let parities = self.check_parities(word);
            if parities == 0 {
                break;
            }
            let mut flips = 0u128;
            for (j, checks) in self.var_checks.iter().enumerate() {
                let unsat = checks.iter().filter(|&&c| parities & (1 << c) != 0).count();
                if unsat >= 2 {
                    flips |= 1u128 << j;
                }
            }
            if flips == 0 {
                break;
            }
            word ^= flips;
        }
        if self.check_parities(word) != 0 {
            return Decoded::detected();
        }
        let codeword: BitVec = (0..self.n).map(|j| word & (1u128 << j) != 0).collect();
        let msg = self.extract_message(&codeword);
        if word == start {
            Decoded::clean(codeword, msg)
        } else {
            let flipped = (word ^ start).count_ones() as usize;
            Decoded::corrected(codeword, msg, flipped)
        }
    }

    /// Iterative bit flipping: batch engines run the same synchronous
    /// schedule ([`Ldpc::bit_flip_plan`]) whole-limb and never unpack a lane.
    fn syndrome_class(&self) -> SyndromeClass {
        SyndromeClass::Iterative(self.bit_flip_plan())
    }
}

impl Ldpc {
    /// The constant synchronous bit-flipping schedule this decoder follows.
    #[must_use]
    pub fn bit_flip_plan(&self) -> BitFlipPlan {
        let plan = BitFlipPlan {
            check_supports: self.check_supports.clone(),
            var_checks: self.var_checks.clone(),
            max_iterations: Self::MAX_ITERATIONS,
        };
        plan.validate();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodeOutcome;

    fn sample_messages(k: usize, count: usize) -> Vec<BitVec> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1D9C_6032);
        (0..count)
            .map(|_| (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn construction_has_the_gallager_parameters() {
        let code = Ldpc::gallager_60_32();
        assert_eq!((code.n(), code.k()), (60, 32));
        assert_eq!(code.name(), "LDPC(60,32)");
        assert_eq!(code.parity_check().rows(), 28);
        assert_eq!(code.check_supports.len(), 30);
        assert!((code.rate() - 32.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn encode_is_message_recoverable_and_checks_clear() {
        let code = Ldpc::gallager_60_32();
        for msg in sample_messages(code.k(), 8) {
            let cw = code.encode(&msg);
            assert!(code.is_codeword(&cw));
            // The low-density checks agree with the full-rank matrix.
            assert_eq!(code.check_parities(code.word_mask(&cw)), 0);
            assert_eq!(code.extract_message(&cw), msg);
            assert_eq!(code.message_of(&cw), Some(msg));
        }
    }

    #[test]
    fn every_single_error_corrects_in_one_round() {
        let code = Ldpc::gallager_60_32();
        for msg in sample_messages(code.k(), 2) {
            let cw = code.encode(&msg);
            for pos in 0..code.n() {
                let mut r = cw.clone();
                r.flip(pos);
                let d = code.decode(&r);
                assert_eq!(
                    d.outcome,
                    DecodeOutcome::Corrected { bits_flipped: 1 },
                    "pos {pos}"
                );
                assert!(d.message_is(&msg), "pos {pos}");
                assert_eq!(d.codeword, Some(cw.clone()));
            }
        }
    }

    #[test]
    fn double_errors_either_correct_or_flag_but_never_miscorrect() {
        let code = Ldpc::gallager_60_32();
        let msg = sample_messages(code.k(), 1).pop().unwrap();
        let cw = code.encode(&msg);
        let (mut corrected, mut detected) = (0usize, 0usize);
        for a in 0..code.n() {
            for b in (a + 1)..code.n() {
                let mut r = cw.clone();
                r.flip(a);
                r.flip(b);
                let d = code.decode(&r);
                match d.outcome {
                    DecodeOutcome::DetectedUncorrectable => detected += 1,
                    _ => {
                        assert!(d.message_is(&msg), "({a},{b}) miscorrected");
                        corrected += 1;
                    }
                }
            }
        }
        assert_eq!(corrected + detected, 60 * 59 / 2);
        assert!(corrected > 0, "some doubles converge");
        assert!(detected > 0, "some doubles exceed the decoder");
    }

    #[test]
    fn non_convergent_patterns_are_flagged_not_looped_forever() {
        let code = Ldpc::gallager_60_32();
        let msg = sample_messages(code.k(), 1).pop().unwrap();
        let cw = code.encode(&msg);
        // Find a deterministic double that does not converge and pin its
        // outcome: the iteration cap must end in a flag, never a wrong
        // message.
        let mut flagged = None;
        'search: for a in 0..code.n() {
            for b in (a + 1)..code.n() {
                let mut r = cw.clone();
                r.flip(a);
                r.flip(b);
                if code.decode(&r).outcome == DecodeOutcome::DetectedUncorrectable {
                    flagged = Some((a, b, r));
                    break 'search;
                }
            }
        }
        let (a, b, r) = flagged.expect("some double must defeat bit flipping");
        let d = code.decode(&r);
        assert_eq!(d.outcome, DecodeOutcome::DetectedUncorrectable, "({a},{b})");
        assert!(d.message.is_none());
    }

    #[test]
    fn decoding_is_syndrome_only() {
        let code = Ldpc::gallager_60_32();
        let msgs = sample_messages(code.k(), 2);
        let (cw0, cw1) = (code.encode(&msgs[0]), code.encode(&msgs[1]));
        for pattern in [[0usize, 33], [5, 47], [12, 59]] {
            let mut r0 = cw0.clone();
            let mut r1 = cw1.clone();
            for &p in &pattern {
                r0.flip(p);
                r1.flip(p);
            }
            let (d0, d1) = (code.decode(&r0), code.decode(&r1));
            assert_eq!(d0.outcome, d1.outcome, "{pattern:?}");
        }
    }

    #[test]
    fn syndrome_class_is_iterative_and_plan_matches_the_matrices() {
        let code = Ldpc::gallager_60_32();
        let SyndromeClass::Iterative(plan) = code.syndrome_class() else {
            panic!("LDPC decodes by bit flipping");
        };
        assert_eq!(plan.checks(), 30);
        assert_eq!(plan.max_iterations, Ldpc::MAX_ITERATIONS);
        assert_eq!(plan.check_supports, code.check_supports);
        assert_eq!(plan.var_checks, code.var_checks);
    }
}
