//! The SEC-DED (single-error-correcting, double-error-detecting) family
//! constructor of [`ColumnCode`]: shortened *extended* Hamming codes for
//! power-of-two data widths.
//!
//! The paper's extended Hamming(8,4) code is the smallest member of a family
//! that real superconducting memory and link deployments use at much wider
//! words — most prominently the (72,64) code protecting 64-bit words with
//! eight check bits. [`ColumnCode::sec_ded`]`(m)` constructs the member with
//! `k = 2^m` data bits:
//!
//! | `m` | code      | check bits |
//! |-----|-----------|------------|
//! | 2   | (8,4)     | 4          |
//! | 3   | (13,8)    | 5          |
//! | 4   | (22,16)   | 6          |
//! | 5   | (39,32)   | 7          |
//! | 6   | (72,64)   | 8          |
//!
//! # Construction
//!
//! Take the binary Hamming code with `r = m + 1` parity bits (length
//! `2^r − 1`), shorten its data positions down to `k = 2^m`, and extend the
//! result with an overall parity bit. Concretely, each data bit `i` is
//! assigned a distinct non-power-of-two column code `v_i ∈ {3, 5, 6, 7, 9, …}`
//! and the codeword layout is systematic:
//!
//! ```text
//! [ d_0 … d_{k-1} | p_0 … p_{r-1} | q ]
//!   p_t = ⊕ { d_i : bit t of v_i is 1 }       (inner Hamming parity)
//!   q   = ⊕ all other n−1 codeword bits       (overall parity)
//! ```
//!
//! The parity-check matrix has `r` inner rows (column `j` carries the binary
//! code of position `j`) plus an all-ones overall-parity row, so every column
//! is distinct and every column has a `1` in the last row. A single error
//! reproduces its column as the syndrome (odd overall parity); a double error
//! XORs two columns, which zeroes the overall-parity row and therefore can
//! never be mistaken for a column — the column decoder raises
//! [`DecodeOutcome::DetectedUncorrectable`](crate::DecodeOutcome) instead.
//!
//! This is the structural argument behind `d_min = 4` for every member
//! (exhaustive enumeration is impossible at `k = 64`): no column of `H` is
//! zero, columns are pairwise distinct, and any two columns XOR to an
//! even-last-row value that matches no column, so no codeword of weight
//! ≤ 3 exists — while two data columns plus the two matching parity columns
//! form a weight-4 codeword. Verified structurally in the unit tests.

use crate::codes::hamming::{data_column_codes, systematic};
use crate::ColumnCode;
use gf2::{BitMat, BitVec};

/// Smallest supported data-width exponent (`k = 4`, the paper's word size).
pub const SECDED_MIN_M: usize = 2;
/// Largest supported data-width exponent (`k = 64`, the (72,64) code).
pub const SECDED_MAX_M: usize = 6;

impl ColumnCode {
    /// The shortened extended-Hamming SEC-DED code with `k = 2^m` data bits
    /// and `m + 2` check bits (see the [module docs](crate::codes::sec_ded)).
    ///
    /// # Panics
    /// Panics if `m` is outside [`SECDED_MIN_M`]`..=`[`SECDED_MAX_M`].
    #[must_use]
    pub fn sec_ded(m: usize) -> Self {
        assert!(
            (SECDED_MIN_M..=SECDED_MAX_M).contains(&m),
            "SEC-DED data-width exponent must be in {SECDED_MIN_M}..={SECDED_MAX_M} (got {m})"
        );
        let k = 1usize << m;
        // The shortened inner Hamming code [ I_k | P ] / [ Pᵀ | I_r ], whose
        // data columns are exactly those of the parent that survive
        // shortening.
        let (inner_g, inner_h) = systematic(&data_column_codes(k, m + 1), m + 1);
        // Overall parity keeps every row (hence every codeword) even; the
        // inner checks ignore it, and the all-ones row covers every bit.
        let g = BitMat::from_rows(
            (0..k)
                .map(|i| {
                    let row = inner_g.row(i);
                    row.concat(&BitVec::from_bits(&[row.weight() % 2 == 1]))
                })
                .collect(),
        );
        let mut rows: Vec<BitVec> = (0..=m)
            .map(|t| inner_h.row(t).concat(&BitVec::zeros(1)))
            .collect();
        rows.push(BitVec::ones(g.cols()));
        let n = g.cols();
        Self::from_matrices(format!("SEC-DED({n},{k})"), g, BitMat::from_rows(rows), 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockCode, DecodeOutcome, HardDecoder};

    fn sample_messages(k: usize, count: usize) -> Vec<BitVec> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
        (0..count)
            .map(|_| (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn family_parameters_match_the_table() {
        let expected = [(2, 8, 4), (3, 13, 8), (4, 22, 16), (5, 39, 32), (6, 72, 64)];
        for (m, n, k) in expected {
            let code = ColumnCode::sec_ded(m);
            assert_eq!((code.n(), code.k()), (n, k), "m={m}");
            assert_eq!(code.parity_check().rows(), m + 2);
            assert_eq!(code.name(), format!("SEC-DED({n},{k})"));
        }
    }

    #[test]
    fn code_is_systematic() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            let code = ColumnCode::sec_ded(m);
            for msg in sample_messages(code.k(), 8) {
                let cw = code.encode(&msg);
                assert_eq!(cw.slice(0..code.k()), msg, "m={m}");
                assert_eq!(code.message_of(&cw), Some(msg), "m={m}");
            }
        }
    }

    #[test]
    fn every_single_error_is_corrected() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            let code = ColumnCode::sec_ded(m);
            for msg in sample_messages(code.k(), 4) {
                let cw = code.encode(&msg);
                for pos in 0..code.n() {
                    let mut r = cw.clone();
                    r.flip(pos);
                    let d = code.decode(&r);
                    assert!(d.message_is(&msg), "m={m} pos={pos}");
                    assert_eq!(d.outcome, DecodeOutcome::Corrected { bits_flipped: 1 });
                    assert_eq!(d.codeword, Some(cw.clone()));
                }
            }
        }
    }

    #[test]
    fn every_double_error_is_detected() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            let code = ColumnCode::sec_ded(m);
            for msg in sample_messages(code.k(), 2) {
                let cw = code.encode(&msg);
                for a in 0..code.n() {
                    for b in (a + 1)..code.n() {
                        let mut r = cw.clone();
                        r.flip(a);
                        r.flip(b);
                        assert_eq!(
                            code.decode(&r).outcome,
                            DecodeOutcome::DetectedUncorrectable,
                            "m={m} pattern ({a},{b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn minimum_distance_is_structurally_four() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            let code = ColumnCode::sec_ded(m);
            let h = code.parity_check();
            let n = code.n();
            let cols: Vec<u64> = (0..n).map(|j| h.col(j).to_u64()).collect();
            // Weight 1: no zero column. Weight 2: no repeated column.
            // Weight 3: any two columns XOR to an even-overall value, every
            // column is odd-overall, so the XOR matches no third column.
            let overall_bit = 1u64 << (code.parity_check().rows() - 1);
            for (i, &ci) in cols.iter().enumerate() {
                assert_ne!(ci, 0, "m={m}: column {i} is zero");
                assert_ne!(ci & overall_bit, 0, "m={m}: column {i} even overall");
                for &cj in cols.iter().skip(i + 1) {
                    assert_ne!(ci, cj, "m={m}: repeated column");
                }
            }
            assert_eq!(code.min_distance(), 4);
            // A weight-4 codeword exists: encode a weight-2 message whose two
            // column codes XOR into two parity positions. Data codes 3 and 5
            // (bits 0+1 and 0+2) XOR to 6 = parity bits 1 and 2.
            let mut msg = BitVec::zeros(code.k());
            msg.set(0, true); // column code 3
            msg.set(1, true); // column code 5
            assert_eq!(code.encode(&msg).weight(), 4, "m={m}");
        }
    }

    #[test]
    fn smallest_member_matches_extended_hamming_84_capability() {
        let secded = ColumnCode::sec_ded(2);
        let h84 = crate::ColumnCode::hamming84();
        assert_eq!((secded.n(), secded.k()), (h84.n(), h84.k()));
        assert_eq!(secded.min_distance(), h84.min_distance());
        // Same weight distribution (both are (8,4) d=4 self-dual codes).
        use crate::weight::WeightDistribution;
        assert_eq!(
            WeightDistribution::of_code(&secded).counts,
            WeightDistribution::of_code(&h84).counts
        );
    }

    #[test]
    fn non_codeword_yields_no_message() {
        let code = ColumnCode::sec_ded(6);
        let msg = sample_messages(64, 1).pop().unwrap();
        let mut bad = code.encode(&msg);
        bad.flip(0);
        assert_eq!(code.message_of(&bad), None);
    }

    #[test]
    #[should_panic(expected = "data-width exponent")]
    fn rejects_out_of_range_m() {
        let _ = ColumnCode::sec_ded(7);
    }
}
