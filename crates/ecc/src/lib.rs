//! Lightweight error-correction codes for short blocklengths.
//!
//! This crate implements the coding-theory layer of the paper *"Lightweight
//! Error-Correction Code Encoders in Superconducting Electronic Systems"*
//! (SOCC 2025) and the catalog built around it:
//!
//! * [`ColumnCode`] — every single-error-correcting code, decoded by one
//!   rule (a syndrome equal to column `j` of `H` flips bit `j`; any other
//!   nonzero syndrome raises the error flag): the paper's Hamming(7,4) and
//!   extended Hamming(8,4) codes (Eq. 1), the general Hamming family, the
//!   (38,32) code of the prior-art SFQ encoder the paper compares against,
//!   the shortened Hamming family, the SEC-DED family up to (72,64), and the
//!   uncoded baseline;
//! * [`Rm13`] — the first-order Reed–Muller RM(1,3) code with its fast
//!   Hadamard transform decoder, and the RM(r,m) family ([`ReedMuller`]) it
//!   belongs to;
//! * [`Bch`] and [`Ldpc`] — the multi-error members, decoded algebraically
//!   and by bit flipping.
//!
//! Besides encoding and decoding, the crate provides the *exhaustive
//! error-pattern analysis* that generates Table I of the paper: for every
//! code and every error weight it classifies each error pattern as corrected,
//! detected, miscorrected, or undetected, under both a correction-oriented
//! ("worst case") and a detection-oriented ("best case") decoding policy.
//!
//! # Quick start
//!
//! ```
//! use ecc::{BlockCode, ColumnCode, DecodeOutcome, HardDecoder};
//! use gf2::BitVec;
//!
//! let code = ColumnCode::hamming84();
//! // The stimulus used in Fig. 3 of the paper: message 1011 -> codeword 01100110.
//! let msg = BitVec::from_str01("1011");
//! let cw = code.encode(&msg);
//! assert_eq!(cw.to_string01(), "01100110");
//!
//! // A single bit error anywhere is corrected.
//! let mut received = cw.clone();
//! received.flip(5);
//! let decoded = code.decode(&received);
//! assert_eq!(decoded.message.unwrap(), msg);
//!
//! // A double error matches no column of H: detected, not corrected.
//! received.flip(0);
//! assert_eq!(code.decode(&received).outcome, DecodeOutcome::DetectedUncorrectable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebraic;
pub mod analysis;
pub mod batch;
pub mod codes;
pub mod decoder;
pub mod iterative;
pub mod weight;

pub use algebraic::{AlgebraicAction, AlgebraicActionFn, SlicedSyndromePlan};
pub use analysis::{CodeAnalysis, DecodingPolicy, ErrorPatternStats};
pub use batch::{BatchDecode, BatchDecoded, BatchEncode, BatchScratch};
pub use codes::bch::{Bch, BchSpec};
pub use codes::column::ColumnCode;
pub use codes::ldpc::Ldpc;
pub use codes::reed_muller::{ReedMuller, Rm13};
pub use codes::sec_ded::{SECDED_MAX_M, SECDED_MIN_M};
pub use decoder::{DecodeOutcome, Decoded, SyndromeClass};
pub use iterative::BitFlipPlan;

use gf2::{BitMat, BitVec};

/// A binary linear block code of length `n` and dimension `k`.
///
/// Implementations expose the generator matrix `G` (k × n) and parity-check
/// matrix `H` ((n−k) × n). Encoding is `codeword = message · G (mod 2)`,
/// exactly Eq. (2) of the paper.
pub trait BlockCode {
    /// Human-readable name of the code, e.g. `"Hamming(8,4)"`.
    fn name(&self) -> &str;

    /// Codeword length `n` in bits.
    fn n(&self) -> usize;

    /// Message length `k` in bits.
    fn k(&self) -> usize;

    /// The k × n generator matrix.
    fn generator(&self) -> &BitMat;

    /// The (n−k) × n parity-check matrix.
    fn parity_check(&self) -> &BitMat;

    /// Encodes a `k`-bit message into an `n`-bit codeword.
    ///
    /// # Panics
    /// Panics if `message.len() != self.k()`.
    fn encode(&self, message: &BitVec) -> BitVec {
        assert_eq!(message.len(), self.k(), "message length must equal k");
        self.generator().left_mul_vec(message)
    }

    /// Computes the syndrome `H · rᵀ` of a received word.
    ///
    /// # Panics
    /// Panics if `received.len() != self.n()`.
    fn syndrome(&self, received: &BitVec) -> BitVec {
        assert_eq!(received.len(), self.n(), "received length must equal n");
        self.parity_check().mul_vec(received)
    }

    /// Returns `true` if `word` is a codeword (zero syndrome).
    fn is_codeword(&self, word: &BitVec) -> bool {
        self.syndrome(word).is_zero()
    }

    /// The minimum Hamming distance of the code, computed by exhaustive
    /// enumeration of the 2^k − 1 nonzero codewords.
    fn min_distance(&self) -> usize {
        let k = self.k();
        assert!(
            k <= 24,
            "exhaustive min-distance only supported for k <= 24"
        );
        (1u64..(1 << k))
            .map(|m| self.encode(&BitVec::from_u64(k, m)).weight())
            .min()
            .unwrap_or(0)
    }

    /// Enumerates every codeword (message, codeword) pair.
    ///
    /// Only intended for short codes (`k ≤ 24`).
    fn codebook(&self) -> Vec<(BitVec, BitVec)> {
        let k = self.k();
        assert!(k <= 24, "codebook enumeration only supported for k <= 24");
        (0u64..(1 << k))
            .map(|m| {
                let msg = BitVec::from_u64(k, m);
                let cw = self.encode(&msg);
                (msg, cw)
            })
            .collect()
    }

    /// Recovers the message from a *codeword* (not an arbitrary word).
    ///
    /// The default implementation solves `m · G = c` by Gaussian elimination
    /// — `O(k·n)` bit-row operations, valid for any `k` — via
    /// [`generator_right_inverse`]; codes that decode many words override
    /// this with an extractor computed once ([`ColumnCode`]) or direct bit
    /// extraction.
    ///
    /// Returns `None` if `codeword` is not in the code.
    fn message_of(&self, codeword: &BitVec) -> Option<BitVec> {
        if !self.is_codeword(codeword) {
            return None;
        }
        let (pivots, transform) = generator_right_inverse(self.generator());
        let k = self.k();
        let mut message = BitVec::zeros(k);
        for (i, &p) in pivots.iter().enumerate() {
            if codeword.get(p) {
                message.xor_assign(transform.row(i));
            }
        }
        Some(message)
    }

    /// Code rate `k / n`.
    fn rate(&self) -> f64 {
        self.k() as f64 / self.n() as f64
    }
}

/// Hard-decision decoding of a received `n`-bit word.
pub trait HardDecoder: BlockCode {
    /// Decodes a hard-decision received word.
    ///
    /// # Panics
    /// Panics if `received.len() != self.n()`.
    fn decode(&self, received: &BitVec) -> Decoded;

    /// The shape of this decoder's syndrome → action map, with the residual
    /// plan its class needs (see [`SyndromeClass`]): everything a batch
    /// engine compiles the decoder from, without enumerating the syndrome
    /// space. Every decoder states its class: there is no default.
    /// Batch/scalar equivalence is enforced by the workspace's exhaustive
    /// tests, and batch construction re-verifies the column arm with one
    /// scalar probe per position.
    fn syndrome_class(&self) -> SyndromeClass;

    /// Best-effort decoding: like [`HardDecoder::decode`] but ambiguous
    /// received words are resolved with a deterministic tie-break instead of
    /// being flagged as uncorrectable.
    ///
    /// Codes whose decoder never flags ambiguity (e.g. the perfect
    /// Hamming(7,4) code) behave identically under both methods. The RM(1,3)
    /// decoder overrides this to resolve Hadamard-spectrum ties, which is
    /// what lets it correct certain 2-bit error patterns (the "best case"
    /// column of Table I of the paper).
    fn decode_best_effort(&self, received: &BitVec) -> Decoded {
        self.decode(received)
    }
}

/// Solves the encoding map for inversion: returns `(pivots, transform)` such
/// that for any codeword `c`, the message is recovered as
/// `m = Σ_{i : c[pivots[i]] = 1} transform.row(i)`.
///
/// Derivation: row-reducing the augmented matrix `[G | I_k]` yields
/// `[R | T]` with `R = T · G` in reduced row-echelon form. Because `G` has
/// full row rank `k`, all `k` pivots land in the first `n` columns. `R`'s
/// rows are a basis of the code with `R[i][pivots[j]] = δ_ij`, so any
/// codeword satisfies `c = Σ_i c[pivots[i]] · R.row(i)` and therefore
/// `m = Σ_i c[pivots[i]] · T.row(i)`.
///
/// This is also the construction behind the batch codec's message-extraction
/// lanes (`sfq-batch`).
///
/// # Panics
/// Panics if `g` does not have full row rank.
#[must_use]
pub fn generator_right_inverse(g: &BitMat) -> (Vec<usize>, BitMat) {
    let (k, n) = (g.rows(), g.cols());
    let augmented = g.hconcat(&BitMat::identity(k));
    let (reduced, pivots) = augmented.rref();
    assert_eq!(pivots.len(), k, "generator matrix must have full row rank");
    assert!(
        pivots.iter().all(|&p| p < n),
        "generator matrix must have full row rank within its own columns"
    );
    let transform = BitMat::from_rows(
        (0..k)
            .map(|i| (0..k).map(|j| reduced.get(i, n + j)).collect())
            .collect(),
    );
    (pivots, transform)
}

/// Validates that `g` and `h` describe the same code: `G · Hᵀ = 0` and the
/// ranks are `k` and `n − k` respectively.
///
/// Used by the constructors of every concrete code in this crate as an
/// internal consistency check.
///
/// # Panics
/// Panics if the matrices are inconsistent.
pub fn validate_code_matrices(g: &BitMat, h: &BitMat) {
    let n = g.cols();
    let k = g.rows();
    assert_eq!(h.cols(), n, "G and H must have the same number of columns");
    assert_eq!(h.rows(), n - k, "H must have n-k rows");
    assert_eq!(g.rank(), k, "G must have full row rank");
    assert_eq!(h.rank(), n - k, "H must have full row rank");
    let prod = g.mul(&h.transpose());
    assert!(prod.is_zero(), "G * H^T must be zero");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_codes_have_expected_parameters() {
        let h74 = ColumnCode::hamming74();
        assert_eq!((h74.n(), h74.k(), h74.min_distance()), (7, 4, 3));
        let h84 = ColumnCode::hamming84();
        assert_eq!((h84.n(), h84.k(), h84.min_distance()), (8, 4, 4));
        let rm = Rm13::new();
        assert_eq!((rm.n(), rm.k(), rm.min_distance()), (8, 4, 4));
    }

    #[test]
    fn rate_matches_k_over_n() {
        let h84 = ColumnCode::hamming84();
        assert!((h84.rate() - 0.5).abs() < 1e-12);
        let h74 = ColumnCode::hamming74();
        assert!((h74.rate() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn codebook_size_is_two_to_k() {
        let h74 = ColumnCode::hamming74();
        let cb = h74.codebook();
        assert_eq!(cb.len(), 16);
        // All codewords distinct.
        let mut words: Vec<u64> = cb.iter().map(|(_, c)| c.to_u64()).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), 16);
    }

    #[test]
    fn message_of_inverts_encode() {
        let h84 = ColumnCode::hamming84();
        for m in 0u64..16 {
            let msg = BitVec::from_u64(4, m);
            let cw = h84.encode(&msg);
            assert_eq!(h84.message_of(&cw), Some(msg));
        }
        // Non-codeword returns None.
        let mut bad = h84.encode(&BitVec::from_u64(4, 5));
        bad.flip(0);
        assert_eq!(h84.message_of(&bad), None);
    }

    #[test]
    fn validate_code_matrices_accepts_consistent_codes() {
        let h84 = ColumnCode::hamming84();
        validate_code_matrices(h84.generator(), h84.parity_check());
    }

    #[test]
    fn generator_right_inverse_recovers_messages() {
        for g in [
            ColumnCode::hamming84().generator().clone(),
            ColumnCode::hamming74().generator().clone(),
            Rm13::new().generator().clone(),
        ] {
            let (pivots, transform) = generator_right_inverse(&g);
            assert_eq!(pivots.len(), g.rows());
            for m in 0u64..(1 << g.rows()) {
                let msg = BitVec::from_u64(g.rows(), m);
                let cw = g.left_mul_vec(&msg);
                let mut recovered = BitVec::zeros(g.rows());
                for (i, &p) in pivots.iter().enumerate() {
                    if cw.get(p) {
                        recovered.xor_assign(transform.row(i));
                    }
                }
                assert_eq!(recovered, msg);
            }
        }
    }

    #[test]
    fn default_message_of_handles_k_32_without_brute_force() {
        // A wrapper that hides the cached extractor of the (38,32) code so
        // the trait's default Gaussian-elimination path is exercised at a
        // dimension (2^32 messages) the old brute-force search could never
        // enumerate.
        struct Opaque(ColumnCode);
        impl BlockCode for Opaque {
            fn name(&self) -> &str {
                "opaque(38,32)"
            }
            fn n(&self) -> usize {
                self.0.n()
            }
            fn k(&self) -> usize {
                self.0.k()
            }
            fn generator(&self) -> &BitMat {
                self.0.generator()
            }
            fn parity_check(&self) -> &BitMat {
                self.0.parity_check()
            }
        }
        let code = Opaque(ColumnCode::shortened_hamming_38_32());
        for value in [0u64, 1, 0xDEAD_BEEF, 0xFFFF_FFFF, 0x1357_9BDF] {
            let msg = BitVec::from_u64(32, value);
            let cw = code.0.encode(&msg);
            assert_eq!(code.message_of(&cw), Some(msg));
        }
        // Non-codewords still return None.
        let mut bad = code.0.encode(&BitVec::from_u64(32, 42));
        bad.flip(0);
        assert_eq!(code.message_of(&bad), None);
    }
}
