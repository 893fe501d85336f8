//! Dense linear algebra over the binary field GF(2).
//!
//! This crate provides the arithmetic substrate used by the error-correction
//! code crates in this workspace: bit vectors ([`BitVec`]), bit matrices
//! ([`BitMat`]), and the standard operations needed to construct and analyze
//! linear block codes — matrix products, rank, reduced row-echelon form,
//! systematic form, null spaces, and exhaustive weight enumeration helpers.
//!
//! The representation is word-packed (`u64` limbs) so that the operations the
//! encoder evaluation loops perform millions of times (vector-matrix products,
//! Hamming-weight computation, syndrome lookups) stay cache friendly.
//!
//! # Example
//!
//! ```
//! use gf2::{BitMat, BitVec};
//!
//! // Generator matrix of the extended Hamming(8,4) code (paper, Eq. 1).
//! let g = BitMat::from_rows_u64(4, 8, &[
//!     0b1_0000_111 & 0xff, // placeholder rows; see the `ecc` crate for the real one
//!     0b0_0011_001,
//!     0b0_0101_010,
//!     0b0_1001_100,
//! ]);
//! let m = BitVec::from_bits(&[true, false, true, true]);
//! let c = g.left_mul_vec(&m);
//! assert_eq!(c.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod limb;
pub mod mat;
pub mod slice;
pub mod vec;

pub use field::Gf2m;
pub use limb::{byte_transpose_8x8, syndrome_bytes, syndrome_bytes_inverse, transpose8x8};
pub use mat::BitMat;
pub use slice::{or_reduce, BitSlice64};
pub use vec::BitVec;

/// Number of bits stored per limb.
pub(crate) const LIMB_BITS: usize = 64;

/// Returns the number of `u64` limbs needed to store `bits` bits.
#[inline]
pub(crate) fn limbs_for(bits: usize) -> usize {
    bits.div_ceil(LIMB_BITS)
}

/// Computes the binomial coefficient `n choose k` as a `u64`.
///
/// Used by the error-pattern enumeration analysis (Table I of the paper) and
/// by weight-distribution bounds. Panics on overflow, which cannot occur for
/// the short blocklengths (n ≤ 64) this workspace targets.
#[must_use]
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.checked_mul(n - i).expect("binomial overflow") / (i + 1);
    }
    acc
}

/// Iterator over all bit patterns of length `n` with exactly `weight` ones.
///
/// Patterns are yielded as `u64` masks in increasing numeric order (Gosper's
/// hack). `n` must be at most 63.
#[derive(Debug, Clone)]
pub struct WeightPatterns {
    current: Option<u64>,
    limit: u64,
}

impl WeightPatterns {
    /// Creates an iterator over all length-`n` patterns of the given weight.
    ///
    /// # Panics
    /// Panics if `n > 63` or `weight > n`.
    #[must_use]
    pub fn new(n: usize, weight: usize) -> Self {
        assert!(n <= 63, "WeightPatterns supports n <= 63");
        assert!(weight <= n, "weight must not exceed n");
        let start = if weight == 0 { 0 } else { (1u64 << weight) - 1 };
        WeightPatterns {
            current: Some(start),
            limit: 1u64 << n,
        }
    }
}

impl Iterator for WeightPatterns {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let cur = self.current?;
        if cur >= self.limit {
            self.current = None;
            return None;
        }
        // Gosper's hack: next integer with the same popcount.
        if cur == 0 {
            self.current = None;
            return Some(0);
        }
        let c = cur & cur.wrapping_neg();
        let r = cur + c;
        let next = (((r ^ cur) >> 2) / c) | r;
        self.current = Some(next);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(7, 3), 35);
        assert_eq!(binomial(8, 4), 70);
        assert_eq!(binomial(38, 2), 703);
        assert_eq!(binomial(4, 7), 0);
    }

    #[test]
    fn weight_patterns_count_matches_binomial() {
        for n in 0..=10usize {
            for w in 0..=n {
                let count = WeightPatterns::new(n, w).count() as u64;
                assert_eq!(count, binomial(n as u64, w as u64), "n={n} w={w}");
            }
        }
    }

    #[test]
    fn weight_patterns_all_have_requested_weight() {
        for pattern in WeightPatterns::new(8, 3) {
            assert_eq!(pattern.count_ones(), 3);
            assert!(pattern < (1 << 8));
        }
    }

    #[test]
    fn weight_patterns_zero_weight_is_single_zero() {
        let v: Vec<u64> = WeightPatterns::new(6, 0).collect();
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn limbs_for_boundary_cases() {
        assert_eq!(limbs_for(0), 0);
        assert_eq!(limbs_for(1), 1);
        assert_eq!(limbs_for(64), 1);
        assert_eq!(limbs_for(65), 2);
        assert_eq!(limbs_for(128), 2);
        assert_eq!(limbs_for(129), 3);
    }
}
