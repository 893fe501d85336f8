//! Batch (bit-sliced) encoding and decoding interfaces.
//!
//! These traits are the batch counterparts of [`crate::BlockCode`] and
//! [`crate::HardDecoder`]: instead of one message at a time they operate on a
//! [`BitSlice64`] batch — messages stored transposed, one `u64`-limb lane per
//! bit position, 64 messages per limb — so that implementations can encode,
//! compute syndromes, and hard-decode 64 codewords per word operation.
//!
//! The reference implementation lives in the `sfq-batch` crate
//! (`BatchCodec`), which is constructed from any scalar code + decoder and is
//! bit-exact with the scalar path by construction (verified exhaustively by
//! the workspace's equivalence tests).

use gf2::BitSlice64;

/// Reusable working memory for the batch codec hot path.
///
/// Decoding a batch needs temporaries — syndrome bit-slices and a per-limb
/// lane-gather buffer — that would otherwise be allocated per call. Monte-
/// Carlo loops construct one `BatchScratch` per worker and thread it through
/// [`BatchDecode::decode_batch_with`]; the buffers are re-shaped in place
/// ([`BitSlice64::reset`]) and only ever grow, so the steady-state inner
/// loop touches no allocator at all.
///
/// The fields are public working storage: implementations may use them
/// freely between calls, and callers must not rely on their contents.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// `(n-k)`-lane syndrome slices of the batch being decoded.
    pub syndromes: BitSlice64,
    /// Kernel work buffer: the detection screen's per-limb gather (one
    /// limb per syndrome lane) and the `sfq-batch` decision-tree kernel's
    /// chunk of syndrome slices and per-node lane masks.
    pub gather: Vec<u64>,
}

impl BatchScratch {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Batch encoding of `k`-bit messages into `n`-bit codewords.
pub trait BatchEncode {
    /// Codeword length `n` in bits.
    fn n(&self) -> usize;

    /// Message length `k` in bits.
    fn k(&self) -> usize;

    /// Encodes a batch of messages (`k` lanes) into codewords (`n` lanes).
    ///
    /// # Panics
    /// Panics if `messages.bits() != self.k()`.
    fn encode_batch(&self, messages: &BitSlice64) -> BitSlice64;

    /// Like [`BatchEncode::encode_batch`], but writes into a caller-provided
    /// buffer (re-shaped in place) instead of allocating. The default
    /// falls back to the allocating method; high-throughput implementations
    /// override it.
    ///
    /// # Panics
    /// Panics if `messages.bits() != self.k()`.
    fn encode_batch_into(&self, messages: &BitSlice64, codewords: &mut BitSlice64) {
        *codewords = self.encode_batch(messages);
    }
}

/// Batch hard-decision decoding of `n`-bit received words.
///
/// Semantics match [`crate::HardDecoder::decode`]: ambiguous received words
/// (decoder ties) raise the error flag instead of being resolved, which is
/// the property that makes the per-syndrome behaviour coset-invariant and
/// therefore expressible as pure lane operations.
pub trait BatchDecode: BatchEncode {
    /// Computes the `(n-k)`-lane syndrome batch of a received batch.
    ///
    /// # Panics
    /// Panics if `received.bits() != self.n()`.
    fn syndrome_batch(&self, received: &BitSlice64) -> BitSlice64;

    /// Like [`BatchDecode::syndrome_batch`], but writes into a caller-provided
    /// buffer. The default falls back to the allocating method.
    ///
    /// # Panics
    /// Panics if `received.bits() != self.n()`.
    fn syndrome_batch_into(&self, received: &BitSlice64, syndromes: &mut BitSlice64) {
        *syndromes = self.syndrome_batch(received);
    }

    /// Hard-decodes a batch of received words.
    ///
    /// # Panics
    /// Panics if `received.bits() != self.n()`.
    fn decode_batch(&self, received: &BitSlice64) -> BatchDecoded;

    /// Like [`BatchDecode::decode_batch`], but reuses caller-provided scratch
    /// and output buffers so a steady-state decode loop performs no
    /// allocation. The default ignores the scratch and falls back to the
    /// allocating method; high-throughput implementations override it.
    ///
    /// # Panics
    /// Panics if `received.bits() != self.n()`.
    fn decode_batch_with(
        &self,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        out: &mut BatchDecoded,
    ) {
        let _ = scratch;
        *out = self.decode_batch(received);
    }
}

/// Result of decoding one batch: per-message codeword/message estimates plus
/// flag masks, all in transposed form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDecoded {
    /// Decoded messages, `k` lanes. Lanes are zeroed at flagged positions
    /// (the scalar decoder returns no message there).
    pub messages: BitSlice64,
    /// Corrected codewords, `n` lanes. At flagged positions the received word
    /// is passed through unchanged.
    pub codewords: BitSlice64,
    /// Per-message error-flag mask, one limb per 64 messages: bit `i % 64` of
    /// limb `i / 64` is set when message `i` was detected-uncorrectable.
    pub flagged: Vec<u64>,
    /// Per-message correction mask (same layout): set when the decoder
    /// flipped at least one bit.
    pub corrected: Vec<u64>,
}

impl BatchDecoded {
    /// An empty result, ready to be passed to
    /// [`BatchDecode::decode_batch_with`] (which re-shapes it in place).
    #[must_use]
    pub fn empty() -> Self {
        BatchDecoded {
            messages: BitSlice64::default(),
            codewords: BitSlice64::default(),
            flagged: Vec::new(),
            corrected: Vec::new(),
        }
    }

    /// Returns `true` if message `i` raised the error flag.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn is_flagged(&self, i: usize) -> bool {
        assert!(i < self.messages.batch(), "index out of range");
        (self.flagged[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns `true` if the decoder corrected message `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn is_corrected(&self, i: usize) -> bool {
        assert!(i < self.messages.batch(), "index out of range");
        (self.corrected[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of flagged (detected-uncorrectable) messages in the batch.
    #[must_use]
    pub fn flagged_count(&self) -> usize {
        self.flagged.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Number of corrected messages in the batch.
    #[must_use]
    pub fn corrected_count(&self) -> usize {
        self.corrected.iter().map(|l| l.count_ones() as usize).sum()
    }
}
