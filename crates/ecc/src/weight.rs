//! Weight distributions.
//!
//! These utilities complement the exhaustive analysis of [`crate::analysis`]:
//! the weight enumerator of a code, its minimum distance, and the weight
//! enumerator of its dual by the MacWilliams identity.

use crate::BlockCode;
use gf2::binomial;
use serde::{Deserialize, Serialize};

/// The weight enumerator `A_0, A_1, …, A_n` of a code: `A_w` is the number of
/// codewords of Hamming weight `w`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightDistribution {
    /// Code length `n`.
    pub n: usize,
    /// `counts[w]` = number of codewords of weight `w`.
    pub counts: Vec<u64>,
}

impl WeightDistribution {
    /// Computes the weight distribution of a code by enumerating its codebook.
    ///
    /// # Panics
    /// Panics if `k > 24` (enumeration would be too large).
    pub fn of_code<C: BlockCode + ?Sized>(code: &C) -> Self {
        let n = code.n();
        let mut counts = vec![0u64; n + 1];
        for (_, cw) in code.codebook() {
            counts[cw.weight()] += 1;
        }
        WeightDistribution { n, counts }
    }

    /// Total number of codewords (must equal `2^k`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Minimum distance: the smallest nonzero weight with a nonzero count.
    #[must_use]
    pub fn min_distance(&self) -> usize {
        self.counts
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, &c)| c > 0)
            .map_or(0, |(w, _)| w)
    }

    /// Applies the MacWilliams identity to obtain the weight distribution of
    /// the dual code, given the dimension `k` of this code.
    #[must_use]
    pub fn dual(&self, k: usize) -> WeightDistribution {
        let n = self.n;
        let mut dual_counts = vec![0f64; n + 1];
        // B_j = (1 / 2^k) * sum_w A_w * K_j(w), with Krawtchouk polynomial K.
        for (j, slot) in dual_counts.iter_mut().enumerate() {
            let mut acc = 0f64;
            for (w, &a) in self.counts.iter().enumerate() {
                acc += a as f64 * krawtchouk(n, j, w);
            }
            *slot = acc / 2f64.powi(k as i32);
        }
        WeightDistribution {
            n,
            counts: dual_counts.iter().map(|&x| x.round() as u64).collect(),
        }
    }
}

/// Krawtchouk polynomial `K_j(w)` over GF(2) of length `n`:
/// `K_j(w) = Σ_i (-1)^i C(w, i) C(n-w, j-i)`.
#[must_use]
pub fn krawtchouk(n: usize, j: usize, w: usize) -> f64 {
    let mut acc = 0f64;
    for i in 0..=j.min(w) {
        if j - i > n - w {
            continue;
        }
        let term =
            binomial(w as u64, i as u64) as f64 * binomial((n - w) as u64, (j - i) as u64) as f64;
        if i % 2 == 0 {
            acc += term;
        } else {
            acc -= term;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::reed_muller::Rm13;
    use crate::ColumnCode;

    #[test]
    fn hamming74_weight_enumerator() {
        let wd = WeightDistribution::of_code(&ColumnCode::hamming74());
        assert_eq!(wd.counts, vec![1, 0, 0, 7, 7, 0, 0, 1]);
        assert_eq!(wd.total(), 16);
        assert_eq!(wd.min_distance(), 3);
    }

    #[test]
    fn hamming84_weight_enumerator_is_self_dual() {
        let wd = WeightDistribution::of_code(&ColumnCode::hamming84());
        assert_eq!(wd.counts, vec![1, 0, 0, 0, 14, 0, 0, 0, 1]);
        // The extended Hamming(8,4) code is self-dual: the MacWilliams
        // transform must reproduce the same distribution.
        let dual = wd.dual(4);
        assert_eq!(dual.counts, wd.counts);
    }

    #[test]
    fn rm13_and_hamming84_share_weight_distribution() {
        let a = WeightDistribution::of_code(&Rm13::new());
        let b = WeightDistribution::of_code(&ColumnCode::hamming84());
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn hamming74_dual_is_simplex_code() {
        // The dual of Hamming(7,4) is the [7,3] simplex code: all 7 nonzero
        // codewords have weight 4.
        let wd = WeightDistribution::of_code(&ColumnCode::hamming74());
        let dual = wd.dual(4);
        assert_eq!(dual.counts, vec![1, 0, 0, 0, 7, 0, 0, 0]);
    }

    #[test]
    fn krawtchouk_zeroth_is_binomial() {
        for w in 0..=8 {
            assert_eq!(krawtchouk(8, 0, w), 1.0);
        }
        assert_eq!(krawtchouk(8, 1, 0), 8.0);
        assert_eq!(krawtchouk(8, 1, 8), -8.0);
    }
}
