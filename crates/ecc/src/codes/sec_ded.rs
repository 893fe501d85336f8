//! Parameterized SEC-DED (single-error-correcting, double-error-detecting)
//! codes: shortened *extended* Hamming codes for power-of-two data widths.
//!
//! The paper's extended Hamming(8,4) code is the smallest member of a family
//! that real superconducting memory and link deployments use at much wider
//! words — most prominently the (72,64) code protecting 64-bit words with
//! eight check bits. [`SecDed::new`]`(m)` constructs the member with `k = 2^m`
//! data bits:
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
//! never be mistaken for a column — the decoder raises
//! [`DecodeOutcome::DetectedUncorrectable`](crate::DecodeOutcome) instead.
//! This is the structural argument behind `d_min = 4` for every member.
//!
//! The family is deliberately decoder-friendly for the bit-sliced batch
//! engine: the hard decision depends only on the `(n−k)`-bit syndrome
//! (≤ 256 values at (72,64)), so the `sfq-batch` syndrome-action table stays
//! exact.

use crate::decoder::Decoded;
use crate::{validate_code_matrices, BlockCode, HardDecoder};
use gf2::{BitMat, BitVec};

/// Smallest supported data-width exponent (`k = 4`, the paper's word size).
pub const SECDED_MIN_M: usize = 2;
/// Largest supported data-width exponent (`k = 64`, the (72,64) code).
pub const SECDED_MAX_M: usize = 6;

/// A shortened extended-Hamming SEC-DED code with `2^m` data bits.
#[derive(Debug, Clone)]
pub struct SecDed {
    m: usize,
    k: usize,
    /// Inner Hamming redundancy (`m + 1`); total check bits are `r + 1`.
    r: usize,
    g: BitMat,
    h: BitMat,
    name: String,
    /// Syndrome (as integer) → error position, for single-error correction.
    /// `None` entries are syndromes reachable only by ≥2 errors.
    syndrome_table: Vec<Option<usize>>,
}

impl SecDed {
    /// Constructs the SEC-DED code with `k = 2^m` data bits.
    ///
    /// # Panics
    /// Panics if `m` is outside [`SECDED_MIN_M`]`..=`[`SECDED_MAX_M`].
    #[must_use]
    pub fn new(m: usize) -> Self {
        assert!(
            (SECDED_MIN_M..=SECDED_MAX_M).contains(&m),
            "SEC-DED data-width exponent must be in {SECDED_MIN_M}..={SECDED_MAX_M} (got {m})"
        );
        let k = 1usize << m;
        let r = m + 1;
        let n = k + r + 1;

        // Column codes of the data positions: the first k non-power-of-two
        // values, exactly the data columns of the parent Hamming code that
        // survive shortening.
        let codes: Vec<usize> = (3..(1usize << r))
            .filter(|v| !v.is_power_of_two())
            .take(k)
            .collect();
        assert_eq!(codes.len(), k, "parent Hamming code too short for k={k}");

        // Systematic generator: [ I_k | P | q ].
        let mut g = BitMat::zeros(k, n);
        for (i, &v) in codes.iter().enumerate() {
            g.set(i, i, true);
            for t in 0..r {
                if (v >> t) & 1 == 1 {
                    g.set(i, k + t, true);
                }
            }
            // Overall parity keeps every row (hence every codeword) even.
            g.set(i, n - 1, (1 + v.count_ones() as usize) % 2 == 1);
        }

        // Parity check: r inner rows + the all-ones overall-parity row.
        let mut h = BitMat::zeros(r + 1, n);
        for t in 0..r {
            for (i, &v) in codes.iter().enumerate() {
                if (v >> t) & 1 == 1 {
                    h.set(t, i, true);
                }
            }
            h.set(t, k + t, true);
        }
        for j in 0..n {
            h.set(r, j, true);
        }
        validate_code_matrices(&g, &h);

        // Every column of H, as an integer, names the single-error syndrome
        // of its position.
        let mut syndrome_table = vec![None; 1 << (r + 1)];
        for pos in 0..n {
            let s = (0..=r).fold(0usize, |acc, t| acc | (usize::from(h.get(t, pos)) << t));
            debug_assert!(syndrome_table[s].is_none(), "duplicate column in H");
            syndrome_table[s] = Some(pos);
        }

        SecDed {
            m,
            k,
            r,
            g,
            h,
            name: format!("SEC-DED({n},{k})"),
            syndrome_table,
        }
    }

    /// Every catalog member from (13,8) up to (72,64).
    #[must_use]
    pub fn family() -> Vec<SecDed> {
        (3..=SECDED_MAX_M).map(SecDed::new).collect()
    }

    /// The data-width exponent `m` (`k = 2^m`).
    #[must_use]
    pub fn data_exponent(&self) -> usize {
        self.m
    }

    /// Number of check bits (`n − k = m + 2`).
    #[must_use]
    pub fn check_bits(&self) -> usize {
        self.r + 1
    }

    /// Extracts the message from a codeword: the code is systematic, so the
    /// message is the first `k` positions.
    #[must_use]
    pub fn extract_message(&self, codeword: &BitVec) -> BitVec {
        codeword.slice(0..self.k)
    }
}

impl BlockCode for SecDed {
    fn name(&self) -> &str {
        &self.name
    }
    fn n(&self) -> usize {
        self.k + self.r + 1
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
    fn min_distance(&self) -> usize {
        // Exhaustive enumeration is impossible at k = 64; the distance is
        // structural: no column of H is zero, columns are pairwise distinct,
        // and any two columns XOR to an even-last-row value that matches no
        // column, so no codeword of weight ≤ 3 exists — while two data
        // columns plus the two matching parity columns form a weight-4
        // codeword. Verified structurally in the unit tests.
        4
    }
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if self.is_codeword(codeword) {
            Some(self.extract_message(codeword))
        } else {
            None
        }
    }
}

impl HardDecoder for SecDed {
    /// Standard SEC-DED syndrome decoding:
    ///
    /// * zero syndrome → accept;
    /// * syndrome equals a column of `H` (odd overall parity) → flip that
    ///   position;
    /// * any other syndrome (in particular every double error, whose overall
    ///   parity is even) → detected but uncorrectable.
    ///
    /// The decision depends only on the syndrome, which is what lets the
    /// bit-sliced batch engine tabulate this decoder exactly.
    fn decode(&self, received: &BitVec) -> Decoded {
        assert_eq!(received.len(), self.n(), "received word length mismatch");
        let syndrome = self.syndrome(received).to_u64() as usize;
        if syndrome == 0 {
            let msg = self.extract_message(received);
            return Decoded::clean(received.clone(), msg);
        }
        match self.syndrome_table[syndrome] {
            Some(pos) => {
                let mut corrected = received.clone();
                corrected.flip(pos);
                let msg = self.extract_message(&corrected);
                Decoded::corrected(corrected, msg, 1)
            }
            None => Decoded::detected(),
        }
    }

    /// The decision rule above *is* column matching against `H` (the
    /// syndrome table is keyed by column values), so the batch engine may
    /// compile this decoder without enumerating syndromes.
    fn syndrome_class(&self) -> crate::SyndromeClass {
        crate::SyndromeClass::ColumnFlip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodeOutcome;

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
            let code = SecDed::new(m);
            assert_eq!((code.n(), code.k()), (n, k), "m={m}");
            assert_eq!(code.check_bits(), m + 2);
            assert_eq!(code.name(), format!("SEC-DED({n},{k})"));
            assert_eq!(code.data_exponent(), m);
        }
        assert_eq!(SecDed::family().len(), 4);
    }

    #[test]
    fn code_is_systematic() {
        for m in SECDED_MIN_M..=SECDED_MAX_M {
            let code = SecDed::new(m);
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
            let code = SecDed::new(m);
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
            let code = SecDed::new(m);
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
            let code = SecDed::new(m);
            let h = code.parity_check();
            let n = code.n();
            let cols: Vec<u64> = (0..n).map(|j| h.col(j).to_u64()).collect();
            // Weight 1: no zero column. Weight 2: no repeated column.
            // Weight 3: any two columns XOR to an even-overall value, every
            // column is odd-overall, so the XOR matches no third column.
            let overall_bit = 1u64 << code.check_bits().saturating_sub(1);
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
        let secded = SecDed::new(2);
        let h84 = crate::Hamming84::new();
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
        let code = SecDed::new(6);
        let msg = sample_messages(64, 1).pop().unwrap();
        let mut bad = code.encode(&msg);
        bad.flip(0);
        assert_eq!(code.message_of(&bad), None);
    }

    #[test]
    #[should_panic(expected = "data-width exponent")]
    fn rejects_out_of_range_m() {
        let _ = SecDed::new(7);
    }
}
