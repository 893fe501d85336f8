//! Common decoder output types shared by every code in this crate.

use crate::{AlgebraicActionFn, BitFlipPlan, SlicedSyndromePlan};
use gf2::BitVec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Classification of a single decoding attempt.
///
/// The categories follow the terminology used in Section II-C of the paper
/// when comparing the "worst case" and "best case" behaviour of each code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodeOutcome {
    /// The received word was already a codeword; no correction applied.
    ///
    /// Note that this does *not* imply the transmission was error free: an
    /// error pattern equal to a nonzero codeword is invisible to the decoder.
    NoErrorDetected,
    /// The decoder corrected one or more bits and produced a codeword.
    Corrected {
        /// Number of bit positions the decoder flipped.
        bits_flipped: usize,
    },
    /// The decoder established that errors are present but could not correct
    /// them (e.g. a double error under an extended-Hamming decoder). The
    /// error flag of Fig. 1 is raised.
    DetectedUncorrectable,
}

impl DecodeOutcome {
    /// Returns `true` if the decoder raised the error flag (detected but did
    /// not correct).
    #[must_use]
    pub fn error_flag(&self) -> bool {
        matches!(self, DecodeOutcome::DetectedUncorrectable)
    }

    /// Returns `true` if the decoder performed a correction.
    #[must_use]
    pub fn corrected(&self) -> bool {
        matches!(self, DecodeOutcome::Corrected { .. })
    }
}

/// How a hard decoder's decision depends on the syndrome, together with the
/// data a batch engine compiles it from — the contract that lets batch
/// engines turn the decoder into lane operations without enumerating the
/// `2^(n-k)` syndrome space.
///
/// Every decoder in this crate is *coset-invariant* (the correction depends
/// only on the syndrome); this enum names the shape of the map. All three
/// classes share the column arm (a syndrome equal to column `j` of `H` flips
/// position `j`) and differ in what they do with the other nonzero
/// syndromes: flag them, run the algebra, or run bit-flip rounds.
#[derive(Clone)]
pub enum SyndromeClass {
    /// Textbook single-error syndrome decoding with detection fallback:
    ///
    /// * zero syndrome → accept the word;
    /// * syndrome equal to column `j` of the parity-check matrix → flip
    ///   position `j`;
    /// * any other syndrome → [`DecodeOutcome::DetectedUncorrectable`].
    ///
    /// Batch engines exploit this to match syndromes against the `n` columns
    /// of `H` directly (`O(n · (n-k))` bit-ops per limb), with construction
    /// cost independent of `2^(n-k)` — this is what admits codes with large
    /// redundancy. For perfect codes the fallback arm is simply unreachable.
    /// [`crate::ColumnCode`] and the tie-detecting RM(1,3) decoder
    /// ([`crate::Rm13`]) are the members.
    ColumnFlip,
    /// Multi-error algebraic decoding (e.g. BCH): the correction is computed
    /// from an error-locator polynomial (Berlekamp–Massey + Chien search)
    /// rather than looked up per column, and the set of correctable syndromes
    /// is far too large to tabulate (`Σ C(n,i)` for `i ≤ t`).
    ///
    /// Batch engines match the `n` columns of `H` exactly as for
    /// [`SyndromeClass::ColumnFlip`] (a single error is the decoder's
    /// answer to a column syndrome), then, on the dirty lanes no column
    /// matched, accumulate the power syndromes bit-sliced by `plan` and run
    /// `action` per lane (see [`crate::algebraic`]).
    Algebraic {
        /// The constant accumulation plan for the code's power syndromes.
        plan: SlicedSyndromePlan,
        /// Decides one residual lane from its power syndromes and full
        /// syndrome.
        action: AlgebraicActionFn,
    },
    /// Iterative message-passing decoding (e.g. LDPC bit flipping): the
    /// correction emerges from repeated whole-word check/flip rounds, not
    /// from a per-syndrome lookup or a locator polynomial. Batch engines
    /// match the `n` columns of `H` first, then run the plan's *same
    /// synchronous schedule bit-sliced* on the lanes no column matched —
    /// each round is whole-limb AND/XOR/majority work shared by 64 lanes —
    /// so even all-dirty limbs never leave the sliced domain (see
    /// [`crate::iterative`]).
    Iterative(BitFlipPlan),
}

impl fmt::Debug for SyndromeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyndromeClass::ColumnFlip => f.write_str("ColumnFlip"),
            SyndromeClass::Algebraic { plan, .. } => f
                .debug_struct("Algebraic")
                .field("plan", plan)
                .finish_non_exhaustive(),
            SyndromeClass::Iterative(plan) => f.debug_tuple("Iterative").field(plan).finish(),
        }
    }
}

/// Result of decoding one received word.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decoded {
    /// The decoder's estimate of the transmitted codeword, when it produced
    /// one. `None` when the outcome is [`DecodeOutcome::DetectedUncorrectable`].
    pub codeword: Option<BitVec>,
    /// The decoder's estimate of the transmitted message, when available.
    pub message: Option<BitVec>,
    /// What the decoder concluded about the received word.
    pub outcome: DecodeOutcome,
}

impl Decoded {
    /// Constructs a result for a received word accepted as a codeword.
    #[must_use]
    pub fn clean(codeword: BitVec, message: BitVec) -> Self {
        Decoded {
            codeword: Some(codeword),
            message: Some(message),
            outcome: DecodeOutcome::NoErrorDetected,
        }
    }

    /// Constructs a result for a corrected word.
    #[must_use]
    pub fn corrected(codeword: BitVec, message: BitVec, bits_flipped: usize) -> Self {
        Decoded {
            codeword: Some(codeword),
            message: Some(message),
            outcome: DecodeOutcome::Corrected { bits_flipped },
        }
    }

    /// Constructs a result for a detected-but-uncorrectable word.
    #[must_use]
    pub fn detected() -> Self {
        Decoded {
            codeword: None,
            message: None,
            outcome: DecodeOutcome::DetectedUncorrectable,
        }
    }

    /// Returns `true` if the decoded message equals `expected`.
    ///
    /// A detected-uncorrectable outcome returns `false`.
    #[must_use]
    pub fn message_is(&self, expected: &BitVec) -> bool {
        self.message.as_ref() == Some(expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_flags() {
        assert!(!DecodeOutcome::NoErrorDetected.error_flag());
        assert!(!DecodeOutcome::NoErrorDetected.corrected());
        assert!(DecodeOutcome::Corrected { bits_flipped: 1 }.corrected());
        assert!(!DecodeOutcome::Corrected { bits_flipped: 1 }.error_flag());
        assert!(DecodeOutcome::DetectedUncorrectable.error_flag());
    }

    #[test]
    fn constructors_populate_fields() {
        let cw = BitVec::from_str01("01100110");
        let msg = BitVec::from_str01("1011");
        let d = Decoded::clean(cw.clone(), msg.clone());
        assert!(d.message_is(&msg));
        assert_eq!(d.codeword.as_ref().unwrap(), &cw);

        let c = Decoded::corrected(cw, msg.clone(), 1);
        assert_eq!(c.outcome, DecodeOutcome::Corrected { bits_flipped: 1 });
        assert!(c.message_is(&msg));

        let det = Decoded::detected();
        assert!(det.message.is_none());
        assert!(!det.message_is(&msg));
        assert!(det.outcome.error_flag());
    }
}
