//! Syndrome-only algebraic decoding data for batch engines.
//!
//! A scalar [`HardDecoder`](crate::HardDecoder) consumes a full received
//! word. That forces a batch engine to *un-transpose* every dirty lane —
//! allocate a [`BitVec`](gf2::BitVec), gather `n` bits, decode, diff the
//! result back — which dominates the all-dirty cost of algebraic codes. For
//! syndrome-only decoders (every decoder in this workspace is
//! coset-invariant) none of that is necessary: the correction is a function
//! of the syndrome alone, and the power syndromes a BCH decoder starts from
//! are GF(2)-linear in the received bits, so a batch engine can accumulate
//! them *bit-sliced* across a whole limb and hand each dirty lane its
//! syndromes for free.
//!
//! A decoder of class
//! [`SyndromeClass::Algebraic`](crate::SyndromeClass::Algebraic) hands the
//! batch engine two things: a [`SlicedSyndromePlan`], the constant data a
//! kernel needs to accumulate the power syndromes bit-sliced (per odd power,
//! one support mask per field bit; the even powers follow from Frobenius,
//! `S_{2i} = S_i²`, via the included squaring table), and an
//! [`AlgebraicActionFn`] that decides one dirty lane from
//! `(power syndromes, full syndrome)` alone, answering with an
//! [`AlgebraicAction`] — either "detected, flag the lane" or "flip exactly
//! these positions".

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The action a syndrome-only decoder takes on one dirty lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgebraicAction {
    /// Errors present but uncorrectable: raise the lane's error flag.
    Detected,
    /// Flip exactly the codeword positions set in the mask (bit `j` ↦
    /// position `j`); the result is guaranteed to be a codeword.
    Flip(u128),
}

/// Constant data for bit-sliced power-syndrome accumulation.
///
/// For a code over GF(2^m) with `2t` decoding syndromes, only the odd
/// powers `S_1, S_3, …, S_{2t−1}` need accumulating: each is GF(2)-linear
/// in the received bits, so bit `b` of `S_i` is the parity of the received
/// bits selected by a fixed support mask — one AND-free XOR reduction per
/// (odd power, field bit) per limb when the received word is bit-sliced.
/// The even powers follow pointwise from `S_{2i} = S_i²`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlicedSyndromePlan {
    /// Field extension degree `m` (syndromes are `m`-bit values).
    pub field_bits: usize,
    /// Total number of decoding syndromes, `2t`.
    pub syndrome_count: usize,
    /// `odd_supports[h][b]`: positions of the received word (bit `j` ↦
    /// position `j`) whose parity gives bit `b` of `S_{2h+1}`.
    pub odd_supports: Vec<Vec<u128>>,
    /// Squaring table over GF(2^m): `square[a] = a²`, indexed by the
    /// polynomial bitmask of `a`. Length `2^m`.
    pub square: Vec<u16>,
}

impl SlicedSyndromePlan {
    /// Number of odd power syndromes (`t`): the rows a kernel accumulates.
    #[must_use]
    pub fn odd_count(&self) -> usize {
        self.syndrome_count.div_ceil(2)
    }

    /// Completes a per-lane syndrome vector from its odd entries.
    ///
    /// On entry, `syndromes[i − 1]` must hold `S_i` for every odd `i`; on
    /// return the even entries are filled via `S_{2i} = S_i²`.
    ///
    /// # Panics
    /// Panics if `syndromes` is shorter than [`Self::syndrome_count`].
    #[inline]
    pub fn fill_even_syndromes(&self, syndromes: &mut [u16]) {
        for i in (2..=self.syndrome_count).step_by(2) {
            syndromes[i - 1] = self.square[syndromes[i / 2 - 1] as usize];
        }
    }
}

/// The per-lane algebra of the sliced residual stage:
/// `(power syndromes, full syndrome) → action`.
///
/// `power_syndromes` holds `S_1 … S_{2t}` (as produced by a
/// [`SlicedSyndromePlan`]); `full_syndrome` is `H·rᵀ` with bit `u` =
/// syndrome row `u`, nonzero (zero-syndrome lanes never reach the residual
/// stage). The action must be *outcome-identical* to the scalar
/// [`decode`](crate::HardDecoder::decode): [`AlgebraicAction::Detected`]
/// exactly when `decode(r)` flags uncorrectable, and otherwise a flip mask
/// reproducing `decode(r)`'s corrected codeword. The workspace's
/// equivalence suites assert this exhaustively over the syndrome space.
pub type AlgebraicActionFn = Arc<dyn Fn(&[u16], u128) -> AlgebraicAction + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_even_syndromes_applies_frobenius() {
        // GF(2^4) squaring table via gf2.
        let f = gf2::Gf2m::new(4);
        let square: Vec<u16> = (0..16).map(|a| f.square(a)).collect();
        let plan = SlicedSyndromePlan {
            field_bits: 4,
            syndrome_count: 4,
            odd_supports: vec![vec![0; 4]; 2],
            square,
        };
        assert_eq!(plan.odd_count(), 2);
        let s1 = f.alpha_pow(3);
        let s3 = f.alpha_pow(11);
        let mut syndromes = [s1, 0, s3, 0];
        plan.fill_even_syndromes(&mut syndromes);
        assert_eq!(syndromes[1], f.square(s1));
        assert_eq!(syndromes[3], f.square(f.square(s1)));
        assert_eq!(syndromes[2], s3);
    }
}
