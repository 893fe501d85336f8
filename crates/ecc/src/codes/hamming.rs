//! Hamming-family constructors of [`ColumnCode`]: the (7,4) code, the
//! extended (8,4) code exactly as given in Eq. (1) of the paper, the general
//! (2^r − 1, 2^r − 1 − r) family, the shortened (38,32) code used by the
//! prior-art SFQ encoder of Peng et al. (reference \[14\] of the paper), and
//! the shortened family with replicated parity it generalizes to.

use crate::{BlockCode, ColumnCode};
use gf2::{BitMat, BitVec};

/// The generator matrix of the extended Hamming(8,4) code, exactly Eq. (1) of
/// the paper (rows are messages bits m1..m4, columns are codeword bits c1..c8).
pub const G_HAMMING84_ROWS: [&str; 4] = ["11100001", "10011001", "01010101", "11010010"];

/// Returns the paper's Hamming(8,4) generator matrix as a [`BitMat`].
#[must_use]
pub fn hamming84_generator() -> BitMat {
    BitMat::from_str_rows(&G_HAMMING84_ROWS)
}

impl ColumnCode {
    /// The Hamming(7,4) single-error-correcting code, `d_min = 3`: the
    /// Hamming(8,4) matrix of Eq. (1) with the final (overall-parity)
    /// column `c8` removed.
    ///
    /// The encoder uses the boolean equations of Eq. (3) in the paper without
    /// the overall parity bit `c8`:
    /// `c1 = m1⊕m2⊕m4`, `c2 = m1⊕m3⊕m4`, `c3 = m1`, `c4 = m2⊕m3⊕m4`,
    /// `c5 = m2`, `c6 = m3`, `c7 = m4`. The code is perfect, so every nonzero
    /// syndrome is a column of `H` and the decoder corrects it — the "worst
    /// case" policy of Table I, under which 2- and 3-bit errors are
    /// miscorrected or pass undetected.
    #[must_use]
    pub fn hamming74() -> Self {
        let g = hamming84_generator().select_cols(&[0, 1, 2, 3, 4, 5, 6]);
        let h = g.null_space();
        Self::from_matrices("Hamming(7,4)".into(), g, h, 3)
    }

    /// The extended Hamming(8,4) code of Eq. (1), `d_min = 4` — the paper's
    /// best-performing encoder under process parameter variations.
    ///
    /// Standard extended-Hamming decoding is column matching against `H`:
    /// a single error has odd overall parity and reproduces its column as the
    /// syndrome (the parity bit `c8` included), while a double error has even
    /// overall parity, matches no column, and is detected but not corrected
    /// (raising the error flag of Fig. 1).
    #[must_use]
    pub fn hamming84() -> Self {
        let g = hamming84_generator();
        let h = g.null_space();
        Self::from_matrices("Hamming(8,4)".into(), g, h, 4)
    }

    /// The general binary Hamming code with `r` parity bits: parameters
    /// `(2^r − 1, 2^r − 1 − r, 3)`.
    ///
    /// The parity-check matrix has as columns the binary representations of
    /// 1..2^r − 1, giving the textbook construction (the syndrome of a single
    /// error is the 1-based index of its position); the generator matrix is
    /// derived from its null space. Used by the scaling study in the ablation
    /// benches and to validate the (7,4) member against the paper's matrix.
    ///
    /// # Panics
    /// Panics if `r < 2` or `r > 10`.
    #[must_use]
    pub fn hamming(r: usize) -> Self {
        assert!(
            (2..=10).contains(&r),
            "Hamming code redundancy must be in 2..=10"
        );
        let n = (1usize << r) - 1;
        // H columns are the numbers 1..=n in binary.
        let mut h = BitMat::zeros(r, n);
        for col in 0..n {
            let value = col + 1;
            for row in 0..r {
                if (value >> row) & 1 == 1 {
                    h.set(row, col, true);
                }
            }
        }
        let g = h.null_space();
        Self::from_matrices(format!("Hamming({n},{})", n - r), g, h, 3)
    }

    /// The (38,32) linear block code of the prior-art SFQ error-correction
    /// encoder (Peng et al., reference \[14\] of the paper): a Hamming(63,57)
    /// code shortened to a 32-bit message with six parity bits, detecting
    /// 2-bit and correcting 1-bit errors.
    ///
    /// Constructed by expurgating message positions of the Hamming(63,57)
    /// parent until 32 information bits remain. 2^32 codewords are too many
    /// to enumerate; the shortened code inherits `d_min = 3` from its parent
    /// (verified structurally in tests by checking that the columns of `H`
    /// are nonzero and distinct).
    #[must_use]
    pub fn shortened_hamming_38_32() -> Self {
        let parent = Self::hamming(6);
        // Systematic form of the parent: [I_57 | P]; shortening keeps the
        // first 32 information positions and all 6 parity positions.
        let (sys, _) = parent.generator().to_systematic();
        let keep_cols: Vec<usize> = (0..32).chain(57..63).collect();
        let rows: Vec<BitVec> = (0..32)
            .map(|r| keep_cols.iter().map(|&c| sys.get(r, c)).collect::<BitVec>())
            .collect();
        let g = BitMat::from_rows(rows);
        let h = g.null_space();
        Self::from_matrices("Shortened Hamming(38,32)".into(), g, h, 3)
    }

    /// A parameterized shortened Hamming code with (optionally) replicated
    /// parity: `k` data bits protected by `r = base_r × copies` check bits
    /// (`n = k + r`), single-error-correcting with detection of any other
    /// nonzero syndrome.
    ///
    /// The construction generalizes [`ColumnCode::shortened_hamming_38_32`]:
    /// data position `i` is assigned the `i`-th non-power-of-two column code
    /// `c_i ∈ {3, 5, 6, 7, 9, …}` of the base Hamming code with `base_r`
    /// parity bits, replicated `copies` times across independent
    /// `base_r`-bit parity fields (`v_i = c_i | c_i << base_r | …`), and the
    /// layout is systematic:
    ///
    /// ```text
    /// [ d_0 … d_{k-1} | p_0 … p_{r-1} ]      p_t = ⊕ { d_i : bit t of v_i is 1 }
    /// ```
    ///
    /// All columns of `H` are distinct and nonzero (replicated data codes
    /// have weight ≥ 2·copies, parity columns are unit vectors), so no
    /// codeword of weight ≤ 2 exists. For `k ≥ 3` that bound is met: data
    /// codes 3 and 5 XOR to 6, the column code of the third data position,
    /// giving a weight-3 codeword — `d_min = 3` regardless of the
    /// replication factor. With fewer data bits no such triple exists and
    /// replicated parity pushes the distance higher; those codebooks have at
    /// most 3 nonzero words, so the constructor enumerates them.
    ///
    /// The redundancy is therefore a free parameter, deliberately *not* tied
    /// to the information-theoretic minimum: [`ColumnCode::wide_85_64`]
    /// spends `r = 3 × 7 = 21` check bits on a 64-bit word — far beyond the
    /// 8 a (72,64) SEC-DED code needs — which makes it the workspace's
    /// demonstration that the batch engine handles redundancies
    /// `n − k > 20`, where a `2^(n-k)`-entry syndrome table could never be
    /// built.
    ///
    /// # Panics
    /// Panics if the parameters are out of range (`base_r < 2`, `copies <
    /// 1`, `base_r × copies > 63`, `k = 0`), the base code is too short
    /// (`k > 2^base_r − base_r − 1`), or `k` is too small to give every base
    /// check bit a data source (which would leave constant-zero parity bits
    /// — not an error-correction code worth building circuits for).
    #[must_use]
    pub fn shortened_hamming(k: usize, base_r: usize, copies: usize) -> Self {
        assert!(base_r >= 2, "base check-bit count must be at least 2");
        assert!(copies >= 1, "at least one parity copy");
        let r = base_r * copies;
        assert!(r <= 63, "total check-bit count must be at most 63");
        assert!(k >= 1, "at least one data bit");

        let base_codes = data_column_codes(k, base_r);
        for t in 0..base_r {
            assert!(
                base_codes.iter().any(|c| (c >> t) & 1 == 1),
                "column codes leave base check bit {t} unused (k={k} too small \
                 for base_r={base_r})"
            );
        }
        // Replicate each base code across the `copies` parity fields.
        let codes: Vec<u64> = base_codes
            .iter()
            .map(|&c| (0..copies).fold(0u64, |v, j| v | (c << (j * base_r))))
            .collect();
        let (g, h) = systematic(&codes, r);
        let d_min = if k >= 3 {
            3
        } else {
            (1u64..(1 << k))
                .map(|m| g.left_mul_vec(&BitVec::from_u64(k, m)).weight())
                .min()
                .expect("at least one nonzero codeword")
        };
        Self::from_matrices(format!("Shortened Hamming({},{k})", k + r), g, h, d_min)
    }

    /// The wide demonstration member of [`ColumnCode::shortened_hamming`]:
    /// 64 data bits, 3 × 7 = 21 check bits — the first catalog code whose
    /// redundancy exceeds the old batch-engine action-table limit of 20.
    #[must_use]
    pub fn wide_85_64() -> Self {
        Self::shortened_hamming(64, 7, 3)
    }
}

/// The column codes of the data positions that survive shortening the
/// Hamming code with `bits` parity bits to `k` data bits: the first `k`
/// non-power-of-two values (the parity positions take the powers of two).
///
/// # Panics
/// Panics if the base code has fewer than `k` data positions.
pub(crate) fn data_column_codes(k: usize, bits: usize) -> Vec<u64> {
    let codes: Vec<u64> = (3..(1u64 << bits))
        .filter(|v| !v.is_power_of_two())
        .take(k)
        .collect();
    assert_eq!(
        codes.len(),
        k,
        "base Hamming({}, {}) too short for k={k}",
        (1u64 << bits) - 1,
        (1u64 << bits) - 1 - bits as u64,
    );
    codes
}

/// The systematic generator `[ I_k | P ]` and parity check `[ Pᵀ | I_r ]`
/// whose data position `i` carries column code `codes[i]` over `r` check
/// bits.
pub(crate) fn systematic(codes: &[u64], r: usize) -> (BitMat, BitMat) {
    let k = codes.len();
    let mut g = BitMat::zeros(k, k + r);
    let mut h = BitMat::zeros(r, k + r);
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
    (g, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardDecoder, SyndromeClass};
    use gf2::WeightPatterns;

    #[test]
    fn hamming84_matches_paper_equations() {
        let code = ColumnCode::hamming84();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            let (m1, m2, m3, m4) = (msg.get(0), msg.get(1), msg.get(2), msg.get(3));
            // Eq. (3) of the paper.
            assert_eq!(cw.get(0), m1 ^ m2 ^ m4, "c1 mismatch for m={m:04b}");
            assert_eq!(cw.get(1), m1 ^ m3 ^ m4, "c2 mismatch");
            assert_eq!(cw.get(2), m1, "c3 mismatch");
            assert_eq!(cw.get(3), m2 ^ m3 ^ m4, "c4 mismatch");
            assert_eq!(cw.get(4), m2, "c5 mismatch");
            assert_eq!(cw.get(5), m3, "c6 mismatch");
            assert_eq!(cw.get(6), m4, "c7 mismatch");
            assert_eq!(cw.get(7), m1 ^ m2 ^ m3, "c8 mismatch");
        }
    }

    #[test]
    fn fig3_stimulus_message_1011_gives_01100110() {
        let code = ColumnCode::hamming84();
        let cw = code.encode(&BitVec::from_str01("1011"));
        assert_eq!(cw.to_string01(), "01100110");
    }

    #[test]
    fn hamming74_is_hamming84_without_c8() {
        let h74 = ColumnCode::hamming74();
        let h84 = ColumnCode::hamming84();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let c74 = h74.encode(&msg);
            let c84 = h84.encode(&msg);
            assert_eq!(c74, c84.slice(0..7));
        }
    }

    #[test]
    fn minimum_distances() {
        assert_eq!(ColumnCode::hamming74().min_distance(), 3);
        assert_eq!(ColumnCode::hamming84().min_distance(), 4);
    }

    #[test]
    fn hamming74_corrects_every_single_error() {
        let code = ColumnCode::hamming74();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            for pos in 0..7 {
                let mut r = cw.clone();
                r.flip(pos);
                let d = code.decode(&r);
                assert!(d.message_is(&msg), "failed at msg {m:04b} pos {pos}");
                assert!(d.outcome.corrected());
            }
        }
    }

    #[test]
    fn hamming84_corrects_every_single_error() {
        let code = ColumnCode::hamming84();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            for pos in 0..8 {
                let mut r = cw.clone();
                r.flip(pos);
                let d = code.decode(&r);
                assert!(d.message_is(&msg), "failed at msg {m:04b} pos {pos}");
            }
        }
    }

    #[test]
    fn hamming84_detects_every_double_error() {
        let code = ColumnCode::hamming84();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = code.encode(&msg);
            for pattern in WeightPatterns::new(8, 2) {
                let mut r = cw.clone();
                for pos in 0..8 {
                    if (pattern >> pos) & 1 == 1 {
                        r.flip(pos);
                    }
                }
                let d = code.decode(&r);
                assert_eq!(
                    d.outcome,
                    crate::DecodeOutcome::DetectedUncorrectable,
                    "double error not detected for msg {m:04b} pattern {pattern:08b}"
                );
            }
        }
    }

    #[test]
    fn hamming74_miscorrects_some_double_errors() {
        // The perfect (7,4) code cannot distinguish double errors from single
        // errors; verify the decoder indeed miscorrects at least one pattern
        // (the "worst case" column of Table I).
        let code = ColumnCode::hamming74();
        let msg = BitVec::from_str01("1011");
        let cw = code.encode(&msg);
        let mut r = cw.clone();
        r.flip(0);
        r.flip(1);
        let d = code.decode(&r);
        assert!(d.message.is_some());
        assert!(!d.message_is(&msg), "expected a miscorrection");
    }

    #[test]
    fn hamming84_weight_distribution_is_self_dual() {
        // Extended Hamming(8,4): 1 word of weight 0, 14 of weight 4, 1 of weight 8.
        let code = ColumnCode::hamming84();
        let mut hist = [0usize; 9];
        for (_, cw) in code.codebook() {
            hist[cw.weight()] += 1;
        }
        assert_eq!(hist[0], 1);
        assert_eq!(hist[4], 14);
        assert_eq!(hist[8], 1);
        assert_eq!(hist.iter().sum::<usize>(), 16);
    }

    #[test]
    fn hamming74_weight_distribution() {
        // (7,4): weights 0,3,4,7 with multiplicities 1,7,7,1.
        let code = ColumnCode::hamming74();
        let mut hist = [0usize; 8];
        for (_, cw) in code.codebook() {
            hist[cw.weight()] += 1;
        }
        assert_eq!(hist, [1, 0, 0, 7, 7, 0, 0, 1]);
    }

    #[test]
    fn general_hamming_family_parameters() {
        for r in 2..=5 {
            let code = ColumnCode::hamming(r);
            assert_eq!(code.n(), (1 << r) - 1);
            assert_eq!(code.k(), code.n() - r);
            if code.k() <= 12 {
                assert_eq!(code.min_distance(), 3, "r={r}");
            }
            assert_eq!(code.parity_check().rows(), r);
        }
    }

    #[test]
    fn general_hamming_corrects_single_errors() {
        let code = ColumnCode::hamming(4); // (15,11)
        let msg = BitVec::from_u64(11, 0b101_0110_1001);
        let cw = code.encode(&msg);
        for pos in 0..15 {
            let mut r = cw.clone();
            r.flip(pos);
            let d = code.decode(&r);
            assert!(d.message_is(&msg), "failed at pos {pos}");
        }
    }

    #[test]
    fn shortened_3832_parameters_match_reference_14() {
        let code = ColumnCode::shortened_hamming_38_32();
        assert_eq!(code.n(), 38);
        assert_eq!(code.k(), 32);
        assert_eq!(code.generator().rows(), 32);
        assert_eq!(code.generator().cols(), 38);
        assert_eq!(code.parity_check().rows(), 6);
    }

    #[test]
    fn shortened_3832_corrects_single_errors() {
        let code = ColumnCode::shortened_hamming_38_32();
        let msg = BitVec::from_u64(32, 0xDEAD_BEEF);
        let cw = code.encode(&msg);
        assert_eq!(cw.slice(0..32), msg, "code must be systematic");
        for pos in [0, 7, 15, 31, 32, 37] {
            let mut r = cw.clone();
            r.flip(pos);
            let d = code.decode(&r);
            assert!(d.message_is(&msg), "failed at pos {pos}");
        }
    }

    #[test]
    fn shortened_family_parameters_and_roundtrip() {
        for (k, base_r, copies) in [(4usize, 3usize, 1usize), (8, 4, 1), (32, 6, 2), (64, 7, 3)] {
            let r = base_r * copies;
            let code = ColumnCode::shortened_hamming(k, base_r, copies);
            assert_eq!((code.n(), code.k()), (k + r, k));
            assert_eq!(code.parity_check().rows(), r);
            assert_eq!(code.name(), format!("Shortened Hamming({},{k})", k + r));
            assert!(matches!(code.syndrome_class(), SyndromeClass::ColumnFlip));
            let msg: BitVec = (0..k).map(|i| i % 3 == 0).collect();
            let cw = code.encode(&msg);
            assert_eq!(cw.slice(0..k), msg, "systematic");
            assert_eq!(code.message_of(&cw), Some(msg));
        }
    }

    #[test]
    fn wide_85_64_corrects_singles_and_flags_non_column_syndromes() {
        let code = ColumnCode::wide_85_64();
        assert_eq!(
            (code.n(), code.k(), code.parity_check().rows()),
            (85, 64, 21)
        );
        let msg = BitVec::from_u64(64, 0xDEAD_BEEF_0123_4567);
        let cw = code.encode(&msg);
        for pos in [0usize, 17, 63, 64, 84] {
            let mut r = cw.clone();
            r.flip(pos);
            let d = code.decode(&r);
            assert!(d.message_is(&msg), "pos {pos}");
            assert_eq!(d.codeword, Some(cw.clone()));
        }
        // Two flipped parity bits XOR to a two-bit syndrome confined to one
        // parity field; every data column repeats its base code across all
        // three fields, so the syndrome matches no column of H — detected.
        let mut r = cw.clone();
        r.flip(64 + 20);
        r.flip(64 + 19);
        assert_eq!(
            code.decode(&r).outcome,
            crate::DecodeOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn wide_85_64_has_distinct_nonzero_columns() {
        let code = ColumnCode::wide_85_64();
        let h = code.parity_check();
        let mut cols: Vec<u64> = (0..code.n()).map(|c| h.col(c).to_u64()).collect();
        cols.sort_unstable();
        assert!(cols[0] != 0, "no zero column");
        cols.dedup();
        assert_eq!(cols.len(), 85, "columns pairwise distinct (d_min = 3)");
        assert_eq!(code.min_distance(), 3);
        // The structural weight-3 codeword: data codes 3 ^ 5 = 6.
        let mut msg = BitVec::zeros(64);
        msg.set(0, true);
        msg.set(1, true);
        msg.set(2, true);
        assert_eq!(code.encode(&msg).weight(), 3);
    }

    #[test]
    fn shortened_family_min_distance_is_exact_below_three_data_bits() {
        // k ≥ 3: the structural weight-3 codeword exists regardless of the
        // replication factor.
        assert_eq!(ColumnCode::shortened_hamming(3, 3, 2).min_distance(), 3);
        // k = 2, doubled parity: rows have weight 1 + 2·2 = 5 and the pair
        // sums to weight 2 + 2·2 = 6, so d_min is 5, not the generic 3.
        assert_eq!(ColumnCode::shortened_hamming(2, 3, 2).min_distance(), 5);
        assert_eq!(ColumnCode::shortened_hamming(2, 3, 1).min_distance(), 3);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn shortened_family_rejects_overlong_k() {
        let _ = ColumnCode::shortened_hamming(5, 3, 1); // (7,4) base has only 4 data columns
    }

    #[test]
    #[should_panic(expected = "unused")]
    fn shortened_family_rejects_unused_check_bits() {
        // k = 1 uses only column code 3 = 0b011, leaving base check bit 2
        // with no data source — a constant-zero parity bit.
        let _ = ColumnCode::shortened_hamming(1, 3, 1);
    }

    #[test]
    fn shortened_3832_has_no_low_weight_codewords() {
        // d_min = 3: no nonzero codeword of weight 1 or 2 exists. Check by
        // confirming no column of H is zero and no two columns are equal.
        let code = ColumnCode::shortened_hamming_38_32();
        let h = code.parity_check();
        let cols: Vec<u64> = (0..38).map(|c| h.col(c).to_u64()).collect();
        for (i, &ci) in cols.iter().enumerate() {
            assert_ne!(ci, 0, "column {i} of H is zero");
            for (j, &cj) in cols.iter().enumerate().skip(i + 1) {
                assert_ne!(ci, cj, "columns {i} and {j} of H coincide");
            }
        }
    }
}
