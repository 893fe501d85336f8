//! Limb abstraction and bit-transpose primitives for wide decode kernels.
//!
//! [`BitSlice64`](crate::BitSlice64) stores batches as `u64` limbs — 64
//! messages per word. The batch decode kernels in `sfq-batch` want to chew
//! through *several* of those words per reduction step: one AND/XNOR over a
//! 4-word software-SIMD limb processes 256 messages (lowered to vector
//! instructions by the backend). The [`Limb`] trait is the abstraction those
//! kernels are generic over: a fixed number of consecutive `u64` words
//! loaded, combined with bitwise ops, and stored back. The one-word `u64`
//! implementation lives here; wider software-SIMD limbs live next to the
//! kernels that use them (the 256-bit limb in `sfq-batch`'s kernel module)
//! and only need to implement this trait.
//!
//! The transpose primitives serve the *direct-dispatch* kernels for codes
//! with redundancy `r ≤ 8`: per `u64` limb, the `r` syndrome bit-slices are
//! bit-transposed into one syndrome **byte per lane** (the classic 8×8
//! bit-matrix transpose, applied blockwise), which then indexes a 256-entry
//! action table directly — no per-entry pattern matching at all.

/// A decode-kernel limb: [`Self::WORDS`] consecutive `u64` words of a
/// [`BitSlice64`](crate::BitSlice64) lane, combined with bitwise operations.
///
/// All operations are lane-wise (no carries cross word boundaries), so a
/// kernel written against `Limb` produces bit-identical results at every
/// width — the property the workspace's batch equivalence suite checks
/// against the scalar decoders.
pub trait Limb: Copy + Eq {
    /// Number of consecutive `u64` words this limb covers.
    const WORDS: usize;
    /// The all-zero limb.
    const ZERO: Self;

    /// Loads [`Self::WORDS`] words from the front of `words`.
    ///
    /// # Panics
    /// Panics if `words` is shorter than [`Self::WORDS`].
    fn load(words: &[u64]) -> Self;

    /// Stores the limb into the front of `words`.
    ///
    /// # Panics
    /// Panics if `words` is shorter than [`Self::WORDS`].
    fn store(self, words: &mut [u64]);

    /// XORs the limb into the front of `words`.
    ///
    /// # Panics
    /// Panics if `words` is shorter than [`Self::WORDS`].
    fn xor_into(self, words: &mut [u64]);

    /// Bitwise AND.
    #[must_use]
    fn and(self, other: Self) -> Self;

    /// Bitwise OR.
    #[must_use]
    fn or(self, other: Self) -> Self;

    /// Bitwise XOR.
    #[must_use]
    fn xor(self, other: Self) -> Self;

    /// Bitwise complement.
    #[must_use]
    fn not(self) -> Self;

    /// `true` when no bit is set (the kernels' early-exit test).
    fn is_zero(self) -> bool;

    /// Number of set bits (lane-count telemetry).
    fn count_ones(self) -> u32;
}

impl Limb for u64 {
    const WORDS: usize = 1;
    const ZERO: Self = 0;

    #[inline]
    fn load(words: &[u64]) -> Self {
        words[0]
    }

    #[inline]
    fn store(self, words: &mut [u64]) {
        words[0] = self;
    }

    #[inline]
    fn xor_into(self, words: &mut [u64]) {
        words[0] ^= self;
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }

    #[inline]
    fn not(self) -> Self {
        !self
    }

    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
}

/// AND-reduction of XNOR matches across bit-slices, generic over the limb
/// width — the wide-limb counterpart of
/// [`and_xnor_reduce`](crate::and_xnor_reduce). Starting from `init`, folds
/// `acc &= if pattern bit t { slices[t] } else { !slices[t] }`, early-exiting
/// when the accumulator empties.
#[inline]
#[must_use]
pub fn and_xnor_reduce_limb<L: Limb>(init: L, slices: &[L], pattern: u128) -> L {
    let mut acc = init;
    for (t, &slice) in slices.iter().enumerate() {
        acc = acc.and(if (pattern >> t) & 1 == 1 {
            slice
        } else {
            slice.not()
        });
        if acc.is_zero() {
            return acc;
        }
    }
    acc
}

/// OR-reduction across bit-slices, generic over the limb width — the
/// wide-limb counterpart of [`or_reduce`](crate::or_reduce).
#[inline]
#[must_use]
pub fn or_reduce_limb<L: Limb>(slices: &[L]) -> L {
    slices.iter().fold(L::ZERO, |acc, &s| acc.or(s))
}

/// Exchanges the bits of `x` selected by `mask` with the bits `shift`
/// positions above them (a delta swap, the primitive step of in-register
/// transposes).
#[inline]
const fn delta_swap(x: u64, mask: u64, shift: u32) -> u64 {
    let t = ((x >> shift) ^ x) & mask;
    x ^ t ^ (t << shift)
}

/// Transposes a `u64` viewed as an 8×8 bit matrix (bit `8r + c` = row `r`,
/// column `c`). An involution: applying it twice is the identity.
#[inline]
#[must_use]
pub const fn transpose8x8(x: u64) -> u64 {
    let x = delta_swap(x, 0x00AA_00AA_00AA_00AA, 7);
    let x = delta_swap(x, 0x0000_CCCC_0000_CCCC, 14);
    delta_swap(x, 0x0000_0000_F0F0_F0F0, 28)
}

/// Transposes eight words viewed as an 8×8 matrix of *bytes* (`words[r]`
/// byte `c` ↔ `words[c]` byte `r`). An involution.
#[inline]
pub fn byte_transpose_8x8(words: &mut [u64; 8]) {
    // Delta swaps across word pairs, one round per index bit: after all
    // three rounds, byte c of word r holds what byte r of word c held.
    for shift in [1usize, 2, 4] {
        let mask = match shift {
            1 => 0x00FF_00FF_00FF_00FFu64,
            2 => 0x0000_FFFF_0000_FFFFu64,
            _ => 0x0000_0000_FFFF_FFFFu64,
        };
        let bits = (shift * 8) as u32;
        let mut r = 0;
        while r < 8 {
            for i in r..r + shift {
                let a = words[i];
                let b = words[i + shift];
                let t = ((a >> bits) ^ b) & mask;
                words[i + shift] = b ^ t;
                words[i] = a ^ (t << bits);
            }
            r += 2 * shift;
        }
    }
}

/// Bit-transposes up to eight syndrome slices into per-lane syndrome bytes:
/// on return, byte `j` of `out[q]` holds the syndrome of lane `8q + j`, with
/// slice `t` contributing bit `t` (slices beyond `slices.len()` read as
/// zero). This is the front end of the direct-dispatch decode kernels for
/// `r ≤ 8` codes: one transpose per limb replaces per-entry syndrome
/// matching.
///
/// # Panics
/// Panics if more than 8 slices are passed (syndrome bytes are 8 bits).
#[inline]
pub fn syndrome_bytes(slices: &[u64], out: &mut [u64; 8]) {
    assert!(
        slices.len() <= 8,
        "syndrome bytes hold at most 8 slice bits"
    );
    out.fill(0);
    out[..slices.len()].copy_from_slice(slices);
    byte_transpose_8x8(out);
    for word in out.iter_mut() {
        *word = transpose8x8(*word);
    }
}

/// The inverse of [`syndrome_bytes`]: scatters per-lane syndrome bytes back
/// into `slices.len()` syndrome slices. `syndrome_bytes` followed by
/// `syndrome_bytes_inverse` is the identity on any slice set (asserted by
/// the workspace's transpose proptests); bytes' bits at positions `>=
/// slices.len()` must be zero for the round trip to be exact.
///
/// # Panics
/// Panics if more than 8 slices are requested.
#[inline]
pub fn syndrome_bytes_inverse(bytes: &[u64; 8], slices: &mut [u64]) {
    assert!(
        slices.len() <= 8,
        "syndrome bytes hold at most 8 slice bits"
    );
    let mut work = *bytes;
    for word in work.iter_mut() {
        *word = transpose8x8(*word);
    }
    byte_transpose_8x8(&mut work);
    slices.copy_from_slice(&work[..slices.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_words(n: usize, mut state: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect()
    }

    #[test]
    fn u64_limb_roundtrips_loads_and_stores() {
        let words = lcg_words(2, 1);
        let a = <u64 as Limb>::load(&words);
        assert_eq!(a, words[0]);
        let mut out = vec![0u64; 2];
        a.store(&mut out);
        assert_eq!(out, vec![words[0], 0]);
        a.xor_into(&mut out);
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn limb_bit_ops_match_word_ops() {
        let w = lcg_words(2, 7);
        let (a, b) = (<u64 as Limb>::load(&w), <u64 as Limb>::load(&w[1..]));
        assert_eq!(Limb::and(a, b), w[0] & w[1]);
        assert_eq!(Limb::or(a, b), w[0] | w[1]);
        assert_eq!(Limb::xor(a, b), w[0] ^ w[1]);
        assert_eq!(
            Limb::count_ones(Limb::not(a)) + Limb::count_ones(a),
            64,
            "complement partitions the bits"
        );
        assert!(<u64 as Limb>::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn wide_reduces_match_scalar_reduces() {
        // The width-generic reductions at `u64` agree with the scalar ones.
        use crate::{and_xnor_reduce, or_reduce};
        let words = lcg_words(5, 99);
        assert_eq!(or_reduce_limb(&words), or_reduce(&words));
        for pattern in [0u128, 0b10110, 0b01101, 0b11111] {
            assert_eq!(
                and_xnor_reduce_limb(u64::MAX, &words, pattern),
                and_xnor_reduce(u64::MAX, &words, pattern),
                "pattern {pattern:b}"
            );
        }
    }

    /// Naive reference: bit (8r + c) of the transposed word is bit (8c + r).
    fn transpose8x8_naive(x: u64) -> u64 {
        let mut out = 0u64;
        for r in 0..8 {
            for c in 0..8 {
                if (x >> (8 * r + c)) & 1 == 1 {
                    out |= 1 << (8 * c + r);
                }
            }
        }
        out
    }

    #[test]
    fn transpose8x8_matches_naive_and_is_involutive() {
        for &x in &lcg_words(50, 3) {
            let t = transpose8x8(x);
            assert_eq!(t, transpose8x8_naive(x));
            assert_eq!(transpose8x8(t), x);
        }
        assert_eq!(transpose8x8(0), 0);
        assert_eq!(transpose8x8(u64::MAX), u64::MAX);
    }

    #[test]
    fn byte_transpose_matches_naive_and_is_involutive() {
        let words: Vec<u64> = lcg_words(8, 11);
        let mut got: [u64; 8] = words.clone().try_into().unwrap();
        byte_transpose_8x8(&mut got);
        for (r, &row) in got.iter().enumerate() {
            for (c, &word) in words.iter().enumerate() {
                let expect = (word >> (8 * r)) & 0xFF;
                assert_eq!((row >> (8 * c)) & 0xFF, expect, "byte ({r},{c})");
            }
        }
        byte_transpose_8x8(&mut got);
        assert_eq!(got.as_slice(), words.as_slice());
    }

    #[test]
    fn syndrome_bytes_gathers_per_lane_syndromes() {
        for r in 1..=8usize {
            let slices = lcg_words(r, r as u64 * 13 + 1);
            let mut bytes = [0u64; 8];
            syndrome_bytes(&slices, &mut bytes);
            for lane in 0..64usize {
                let expect: u64 = (0..r)
                    .map(|t| ((slices[t] >> lane) & 1) << t)
                    .fold(0, |a, b| a | b);
                let got = (bytes[lane / 8] >> (8 * (lane % 8))) & 0xFF;
                assert_eq!(got, expect, "r={r} lane {lane}");
            }
            let mut back = vec![0u64; r];
            syndrome_bytes_inverse(&bytes, &mut back);
            assert_eq!(back, slices, "r={r} inverse");
        }
    }
}
