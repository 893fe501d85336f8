//! Bit-sliced (lane-transposed) batches of GF(2) vectors.
//!
//! A [`BitSlice64`] stores a batch of `B` equal-length bit vectors
//! *transposed*: one lane per bit position, with vector `i`'s bit packed at
//! bit `i % 64` of limb `i / 64` of that lane. In this layout a single
//! `u64` XOR/AND operates on the same bit position of 64 independent vectors
//! at once, which is what makes the batch codec engine in the `sfq-batch`
//! crate run encode/syndrome/decode as a handful of word operations per 64
//! codewords instead of per-message loops.
//!
//! ```text
//! scalar:   msg0: b0 b1 b2 …      transposed:  lane0: msg0.b0 msg1.b0 … msg63.b0
//!           msg1: b0 b1 b2 …                   lane1: msg0.b1 msg1.b1 … msg63.b1
//!           …                                  …
//! ```
//!
//! [`BitSlice64::pack`] and [`BitSlice64::unpack`] convert between the scalar
//! [`BitVec`] representation and the transposed one.

use crate::vec::BitVec;
use crate::LIMB_BITS;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A batch of `batch` bit vectors of length `bits`, stored one lane per bit
/// position with 64 vectors per `u64` limb.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSlice64 {
    bits: usize,
    batch: usize,
    words: usize,
    /// Lane-major storage: lane `b` occupies `lanes[b * words .. (b+1) * words]`.
    lanes: Vec<u64>,
}

impl BitSlice64 {
    /// Creates an all-zero batch of `batch` vectors of `bits` bits each.
    #[must_use]
    pub fn zeros(bits: usize, batch: usize) -> Self {
        let words = batch.div_ceil(LIMB_BITS);
        BitSlice64 {
            bits,
            batch,
            words,
            lanes: vec![0; bits * words],
        }
    }

    /// Packs a slice of equal-length vectors into transposed form.
    ///
    /// # Panics
    /// Panics if the vectors do not all have the same length.
    #[must_use]
    pub fn pack(vectors: &[BitVec]) -> Self {
        let bits = vectors.first().map_or(0, BitVec::len);
        let mut out = Self::zeros(bits, vectors.len());
        for (i, v) in vectors.iter().enumerate() {
            assert_eq!(v.len(), bits, "all vectors must have equal length");
            for b in 0..bits {
                if v.get(b) {
                    out.lanes[b * out.words + i / LIMB_BITS] |= 1u64 << (i % LIMB_BITS);
                }
            }
        }
        out
    }

    /// Unpacks the batch back into one [`BitVec`] per vector.
    #[must_use]
    pub fn unpack(&self) -> Vec<BitVec> {
        (0..self.batch).map(|i| self.extract(i)).collect()
    }

    /// Extracts vector `i` of the batch.
    ///
    /// # Panics
    /// Panics if `i >= self.batch()`.
    #[must_use]
    pub fn extract(&self, i: usize) -> BitVec {
        assert!(
            i < self.batch,
            "index {i} out of range for batch {}",
            self.batch
        );
        let (word, shift) = (i / LIMB_BITS, i % LIMB_BITS);
        (0..self.bits)
            .map(|b| (self.lanes[b * self.words + word] >> shift) & 1 == 1)
            .collect()
    }

    /// Vector length in bits (the number of lanes).
    #[must_use]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of vectors in the batch.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of `u64` limbs per lane.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Returns bit `bit` of vector `i`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, bit: usize) -> bool {
        assert!(i < self.batch && bit < self.bits, "index out of range");
        (self.lanes[bit * self.words + i / LIMB_BITS] >> (i % LIMB_BITS)) & 1 == 1
    }

    /// Sets bit `bit` of vector `i`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, bit: usize, value: bool) {
        assert!(i < self.batch && bit < self.bits, "index out of range");
        let limb = &mut self.lanes[bit * self.words + i / LIMB_BITS];
        let mask = 1u64 << (i % LIMB_BITS);
        if value {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
    }

    /// The lane of bit position `bit`: limb `w` holds that bit for vectors
    /// `64w .. 64w+63`.
    ///
    /// # Panics
    /// Panics if `bit >= self.bits()`.
    #[inline]
    #[must_use]
    pub fn lane(&self, bit: usize) -> &[u64] {
        assert!(
            bit < self.bits,
            "lane {bit} out of range for {} bits",
            self.bits
        );
        &self.lanes[bit * self.words..(bit + 1) * self.words]
    }

    /// Mutable access to the lane of bit position `bit`.
    ///
    /// Bits at batch indices `>= self.batch()` in the final limb must be left
    /// zero; [`tail_mask`](Self::tail_mask) gives the valid-bit mask of the
    /// last limb.
    ///
    /// # Panics
    /// Panics if `bit >= self.bits()`.
    #[inline]
    pub fn lane_mut(&mut self, bit: usize) -> &mut [u64] {
        assert!(
            bit < self.bits,
            "lane {bit} out of range for {} bits",
            self.bits
        );
        &mut self.lanes[bit * self.words..(bit + 1) * self.words]
    }

    /// The raw lane-major storage: lane `b` occupies words
    /// `[b * self.words() .. (b + 1) * self.words())`.
    ///
    /// Kernel hot loops index this directly — one flat bounds check per
    /// store instead of re-deriving a lane slice per access. The same
    /// tail-bit invariant as [`lane_mut`](Self::lane_mut) applies.
    #[inline]
    pub fn lane_words_mut(&mut self) -> &mut [u64] {
        &mut self.lanes
    }

    /// XORs `src`'s lane `src_bit` into `self`'s lane `dst_bit`.
    ///
    /// # Panics
    /// Panics if the batch sizes differ or either lane is out of range.
    pub fn xor_lane_from(&mut self, dst_bit: usize, src: &BitSlice64, src_bit: usize) {
        assert_eq!(self.batch, src.batch, "batch size mismatch");
        let dst = &mut self.lanes[dst_bit * self.words..(dst_bit + 1) * self.words];
        let src = &src.lanes[src_bit * src.words..(src_bit + 1) * src.words];
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }

    /// The mask of valid batch bits in the *last* limb of every lane (all
    /// ones when the batch size is a multiple of 64).
    #[must_use]
    pub fn tail_mask(&self) -> u64 {
        let rem = self.batch % LIMB_BITS;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Total number of set bits across the whole batch.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.lanes.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Re-shapes the batch in place to `bits × batch`, zeroing every lane.
    ///
    /// Reuses the existing limb allocation when it is large enough, which is
    /// what lets scratch buffers survive across Monte-Carlo iterations
    /// without touching the allocator.
    pub fn reset(&mut self, bits: usize, batch: usize) {
        let words = batch.div_ceil(LIMB_BITS);
        self.bits = bits;
        self.batch = batch;
        self.words = words;
        self.lanes.clear();
        self.lanes.resize(bits * words, 0);
    }

    /// Makes `self` a copy of `src` in place, reusing the limb allocation.
    pub fn copy_from(&mut self, src: &BitSlice64) {
        self.bits = src.bits;
        self.batch = src.batch;
        self.words = src.words;
        self.lanes.clear();
        self.lanes.extend_from_slice(&src.lanes);
    }

    /// Gathers limb `word` of every lane into `out[0..self.bits()]` — the
    /// transposed access pattern of word-at-a-time decode kernels, done once
    /// per limb instead of once per (entry, lane) pair.
    ///
    /// # Panics
    /// Panics if `word >= self.words()` or `out` is shorter than `bits`.
    #[inline]
    pub fn gather_word(&self, word: usize, out: &mut [u64]) {
        assert!(word < self.words, "word {word} out of range");
        assert!(out.len() >= self.bits, "gather buffer too small");
        for (bit, slot) in out.iter_mut().enumerate().take(self.bits) {
            *slot = self.lanes[bit * self.words + word];
        }
    }
}

/// OR-reduction across bit-slices: the 64-wide indicator of "any of these
/// bits is set". Used as the all-zero-syndrome fast path of the batch
/// decoder.
#[inline]
#[must_use]
pub fn or_reduce(slices: &[u64]) -> u64 {
    slices.iter().fold(0, |acc, &s| acc | s)
}

impl Default for BitSlice64 {
    /// An empty `0 × 0` batch — the natural initial state of reusable
    /// scratch buffers, re-shaped on first use via [`BitSlice64::reset`].
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl fmt::Debug for BitSlice64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSlice64({} bits x {} vectors)", self.bits, self.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch(bits: usize, batch: usize) -> Vec<BitVec> {
        // Deterministic pseudo-random vectors via an LCG.
        let mut state = 0x1234_5678_9abc_def0u64;
        (0..batch)
            .map(|_| {
                (0..bits)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 63 == 1
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for batch in [0usize, 1, 7, 63, 64, 65, 130] {
            let vectors = sample_batch(8, batch);
            let sliced = BitSlice64::pack(&vectors);
            assert_eq!(sliced.bits(), if batch == 0 { 0 } else { 8 });
            assert_eq!(sliced.batch(), batch);
            assert_eq!(sliced.unpack(), vectors, "batch {batch}");
        }
    }

    #[test]
    fn get_set_match_pack() {
        let vectors = sample_batch(7, 70);
        let sliced = BitSlice64::pack(&vectors);
        for (i, v) in vectors.iter().enumerate() {
            for b in 0..7 {
                assert_eq!(sliced.get(i, b), v.get(b), "vector {i} bit {b}");
            }
        }
        let mut modified = sliced.clone();
        modified.set(69, 6, !sliced.get(69, 6));
        assert_ne!(modified.extract(69), vectors[69]);
        modified.set(69, 6, sliced.get(69, 6));
        assert_eq!(modified.extract(69), vectors[69]);
    }

    #[test]
    fn lanes_are_transposed_columns() {
        let vectors = sample_batch(4, 65);
        let sliced = BitSlice64::pack(&vectors);
        assert_eq!(sliced.words(), 2);
        for b in 0..4 {
            let lane = sliced.lane(b);
            for (i, v) in vectors.iter().enumerate() {
                let bit = (lane[i / 64] >> (i % 64)) & 1 == 1;
                assert_eq!(bit, v.get(b));
            }
        }
    }

    #[test]
    fn xor_lane_from_is_bitwise_xor() {
        let a = sample_batch(3, 64);
        let b = sample_batch(3, 64);
        let mut sa = BitSlice64::pack(&a);
        let sb = BitSlice64::pack(&b);
        sa.xor_lane_from(0, &sb, 2);
        for i in 0..64 {
            assert_eq!(sa.get(i, 0), a[i].get(0) ^ b[i].get(2));
            assert_eq!(sa.get(i, 1), a[i].get(1));
        }
    }

    #[test]
    fn tail_mask_covers_partial_last_limb() {
        assert_eq!(BitSlice64::zeros(1, 64).tail_mask(), u64::MAX);
        assert_eq!(BitSlice64::zeros(1, 65).tail_mask(), 1);
        assert_eq!(BitSlice64::zeros(1, 70).tail_mask(), 0x3F);
    }

    #[test]
    fn count_ones_matches_scalar_weights() {
        let vectors = sample_batch(8, 100);
        let sliced = BitSlice64::pack(&vectors);
        let scalar: usize = vectors.iter().map(BitVec::weight).sum();
        assert_eq!(sliced.count_ones(), scalar);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pack_rejects_ragged_input() {
        let _ = BitSlice64::pack(&[BitVec::zeros(3), BitVec::zeros(4)]);
    }

    #[test]
    fn reset_reshapes_and_zeroes_in_place() {
        let mut s = BitSlice64::pack(&sample_batch(8, 100));
        s.reset(5, 70);
        assert_eq!((s.bits(), s.batch(), s.words()), (5, 70, 2));
        assert_eq!(s.count_ones(), 0);
        // Growing past the old allocation still works.
        s.reset(16, 300);
        assert_eq!((s.bits(), s.batch(), s.words()), (16, 300, 5));
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = BitSlice64::pack(&sample_batch(7, 130));
        let mut dst = BitSlice64::zeros(1, 1);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn gather_word_collects_lane_limbs() {
        let s = BitSlice64::pack(&sample_batch(6, 100));
        let mut out = vec![0u64; 6];
        for w in 0..s.words() {
            s.gather_word(w, &mut out);
            for (bit, &limb) in out.iter().enumerate() {
                assert_eq!(limb, s.lane(bit)[w], "word {w} bit {bit}");
            }
        }
    }

    #[test]
    fn or_reduce_is_any_bit_set() {
        assert_eq!(or_reduce(&[]), 0);
        assert_eq!(or_reduce(&[0, 0]), 0);
        assert_eq!(or_reduce(&[0b100, 0b001]), 0b101);
    }
}
