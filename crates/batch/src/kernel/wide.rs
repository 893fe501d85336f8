//! The width-generic prefix-bucket walk kernel and the 256-bit limb.
//!
//! [`run_walk`] is the per-`u64` column-matching loop made generic over
//! [`gf2::Limb`]: every mask, reduction, and flip operates on `L::WORDS`
//! consecutive words of the batch at once. Instantiated at `u64` it walks one
//! word per step; at [`W256`] each AND/XNOR reduction step covers 256
//! messages.
//!
//! [`W256`] is a software-SIMD limb: four `u64`s combined with element-wise
//! bitwise ops in safe code (`sfq-batch` forbids `unsafe`, so no intrinsics).
//! The fixed-width inner loops are exactly the shape LLVM's auto-vectorizer
//! turns into packed vector instructions.

use ecc::BatchDecoded;
use gf2::{and_xnor_reduce_limb, or_reduce_limb, BitSlice64, Limb};

use super::KernelStats;
use crate::{ColumnMatchProgram, PREFIX_SLOTS};

/// Upper bound on `Limb::WORDS` across the walk widths (sizing the per-chunk
/// validity buffer).
const MAX_LIMB_WORDS: usize = 4;

/// Upper bound on syndrome lanes (`r < MAX_BLOCK_LENGTH`), sizing the
/// per-call gather buffer.
const MAX_SLICES: usize = 128;

/// A 256-bit limb: four `u64` words, element-wise ops, no carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct W256([u64; 4]);

impl Limb for W256 {
    const WORDS: usize = 4;
    const ZERO: Self = W256([0; 4]);

    #[inline]
    fn load(words: &[u64]) -> Self {
        W256([words[0], words[1], words[2], words[3]])
    }

    #[inline]
    fn store(self, words: &mut [u64]) {
        words[..4].copy_from_slice(&self.0);
    }

    #[inline]
    fn xor_into(self, words: &mut [u64]) {
        for (w, x) in words.iter_mut().zip(self.0) {
            *w ^= x;
        }
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        W256(std::array::from_fn(|i| self.0[i] & other.0[i]))
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        W256(std::array::from_fn(|i| self.0[i] | other.0[i]))
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        W256(std::array::from_fn(|i| self.0[i] ^ other.0[i]))
    }

    #[inline]
    fn not(self) -> Self {
        W256(std::array::from_fn(|i| !self.0[i]))
    }

    #[inline]
    fn is_zero(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) == 0
    }

    #[inline]
    fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

/// Executes the column-matching program over the word range
/// `[first, last)` with limb width `L`, writing corrections, `corrected`,
/// and `flagged` words into `out`.
///
/// The range length must be a multiple of `L::WORDS` (see
/// [`run_walk_chunked`] for the ragged tail); the batch's partial last word
/// is located from `syndromes` itself so invalid lanes never match or flag.
pub(crate) fn run_walk<L: Limb>(
    program: &ColumnMatchProgram,
    syndromes: &BitSlice64,
    first: usize,
    last: usize,
    out: &mut BatchDecoded,
    stats: &mut KernelStats,
) {
    debug_assert_eq!((last - first) % L::WORDS, 0);
    let total_words = syndromes.words();
    let tail = syndromes.tail_mask();
    let redundancy = syndromes.bits();
    debug_assert!(redundancy <= MAX_SLICES);
    let prefix_bits = program.prefix_bits;
    let mut gather = [L::ZERO; MAX_SLICES];
    let mut valid_words = [u64::MAX; MAX_LIMB_WORDS];

    let mut base = first;
    while base < last {
        let gather = &mut gather[..redundancy];
        for (t, slot) in gather.iter_mut().enumerate() {
            *slot = L::load(&syndromes.lane(t)[base..]);
        }

        // Clean-chunk short-circuit: all-zero syndromes across the whole
        // limb (the dominant case in Monte-Carlo traffic).
        if or_reduce_limb(gather).is_zero() {
            stats.clean_limbs += L::WORDS as u64;
            base += L::WORDS;
            continue;
        }

        let valid = if base + L::WORDS >= total_words {
            valid_words[total_words - 1 - base] = tail;
            let v = L::load(&valid_words);
            valid_words[total_words - 1 - base] = u64::MAX;
            v
        } else {
            L::load(&valid_words)
        };

        // Shared prefix AND-tree by successive halving: masks[v] = lanes
        // whose low `prefix_bits` syndrome bits equal v. Partitions `valid`.
        let mut masks = [L::ZERO; PREFIX_SLOTS];
        masks[0] = valid;
        for (t, &slice) in gather.iter().take(prefix_bits).enumerate() {
            let width = 1usize << t;
            for i in 0..width {
                let m = masks[i];
                masks[i | width] = m.and(slice);
                masks[i] = m.and(slice.not());
            }
        }
        let suffix = &gather[prefix_bits..];

        let clean = and_xnor_reduce_limb(masks[0], suffix, 0);
        let mut matched = L::ZERO;
        for &(b, start, end) in &program.buckets {
            let mut bucket_base = masks[b as usize];
            if b == 0 {
                bucket_base = bucket_base.and(clean.not());
            }
            if bucket_base.is_zero() {
                stats.buckets_skipped += 1;
                continue;
            }
            stats.buckets_visited += 1;
            for entry in &program.entries[start as usize..end as usize] {
                stats.entries_tested += 1;
                let m = and_xnor_reduce_limb(bucket_base, suffix, entry.pattern >> prefix_bits);
                if m.is_zero() {
                    continue;
                }
                matched = matched.or(m);
                bucket_base = bucket_base.and(m.not());
                let mut flip = entry.flip;
                while flip != 0 {
                    let p = flip.trailing_zeros() as usize;
                    m.xor_into(&mut out.codewords.lane_mut(p)[base..]);
                    flip &= flip - 1;
                }
                if bucket_base.is_zero() {
                    break;
                }
            }
        }
        matched.store(&mut out.corrected[base..]);
        let flagged = valid.and(clean.not()).and(matched.not());
        flagged.store(&mut out.flagged[base..]);
        stats.lanes_matched += u64::from(matched.count_ones());
        stats.lanes_flagged += u64::from(flagged.count_ones());
        base += L::WORDS;
    }
}

/// [`run_walk`] over the whole batch: full [`W256`] chunks first, then the
/// ragged remainder (fewer than four words — the whole batch when it is
/// that short) with the `u64` walk. Both produce bit-identical words, so the
/// seam is invisible.
pub(crate) fn run_walk_chunked(
    program: &ColumnMatchProgram,
    syndromes: &BitSlice64,
    out: &mut BatchDecoded,
    stats: &mut KernelStats,
) {
    let total_words = syndromes.words();
    let full = total_words - total_words % W256::WORDS;
    run_walk::<W256>(program, syndromes, 0, full, out, stats);
    if full < total_words {
        run_walk::<u64>(program, syndromes, full, total_words, out, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w256_limb_ops_match_wordwise_reference() {
        let a = W256([0xDEAD_BEEF, !0, 0, 0x0123_4567_89AB_CDEF]);
        let b = W256([0xFFFF_0000, 0x5555_5555, !0, 0xFEDC_BA98_7654_3210]);
        for i in 0..4 {
            assert_eq!(a.and(b).0[i], a.0[i] & b.0[i]);
            assert_eq!(a.or(b).0[i], a.0[i] | b.0[i]);
            assert_eq!(a.xor(b).0[i], a.0[i] ^ b.0[i]);
            assert_eq!(a.not().0[i], !a.0[i]);
        }
        assert!(W256::ZERO.is_zero());
        assert!(!a.is_zero());
        assert_eq!(
            a.count_ones(),
            a.0.iter().map(|w| w.count_ones()).sum::<u32>()
        );
        let mut roundtrip = [0u64; 4];
        a.store(&mut roundtrip);
        assert_eq!(W256::load(&roundtrip), a);
        a.xor_into(&mut roundtrip);
        assert_eq!(roundtrip, [0; 4]);
        // The width-generic reductions act word by word.
        let slices = [a, b, a.xor(b)];
        for i in 0..4 {
            let words: Vec<u64> = slices.iter().map(|s| s.0[i]).collect();
            assert_eq!(or_reduce_limb(&slices).0[i], gf2::or_reduce(&words));
            for pattern in [0u128, 0b101, 0b110] {
                assert_eq!(
                    and_xnor_reduce_limb(W256([!0; 4]), &slices, pattern).0[i],
                    gf2::and_xnor_reduce(!0, &words, pattern),
                    "word {i} pattern {pattern:b}"
                );
            }
        }
    }
}
