//! Iterative bit-flipping decoding data for batch engines.
//!
//! Algebraic codes keep a scalar region — Berlekamp–Massey and the locator
//! solve run per dirty lane. An LDPC bit-flipping decoder has no such
//! region: every round is "compute check parities, flip the variables whose
//! checks disagree", and both halves are GF(2)-parallel across a batch. A
//! batch engine can therefore run the *whole* decoder bit-sliced — each
//! round is one XOR reduction per check row plus one majority per variable,
//! shared by 64 lanes — and never unpack a lane even when every lane is
//! dirty.
//!
//! The contract that makes batch and scalar bit-identical is the
//! **synchronous schedule**: every round computes all check parities from
//! the same snapshot, then applies all flips at once. A lane whose checks
//! are all satisfied flips nothing and stays fixed, so per-lane early exit
//! (scalar) and run-to-cap (batch) converge to the same word. The flip
//! decision depends only on check parities, which depend only on the error
//! pattern — the decoder is coset-invariant like every other in this crate.
//!
//! A decoder of class
//! [`SyndromeClass::Iterative`](crate::SyndromeClass::Iterative) carries
//! this schedule as a [`BitFlipPlan`]; the batch crate compiles the plan
//! into its bit-flip kernel, and the scalar
//! [`decode`](crate::HardDecoder::decode) must follow the identical
//! schedule: running the plan on any received word must reproduce the
//! scalar decoder's corrected codeword or error flag bit for bit. The
//! workspace's equivalence suites assert this over exhaustive low-weight
//! patterns and random noise.

use serde::{Deserialize, Serialize};

/// Constant data for one synchronous bit-flipping schedule.
///
/// The plan describes the *decoding* parity-check matrix — for a regular
/// LDPC code the low-density `H` whose row space equals (but whose row count
/// exceeds) the full-rank `H′` reported by
/// [`BlockCode::parity_check`](crate::BlockCode::parity_check) — plus the
/// flip rule and the iteration cap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitFlipPlan {
    /// `check_supports[c]`: codeword positions (bit `j` ↦ position `j`)
    /// participating in check `c`.
    pub check_supports: Vec<u128>,
    /// `var_checks[j]`: the checks variable `j` participates in. Every
    /// variable has exactly three (column weight 3), which is what lets the
    /// flip rule be a whole-limb 3-input majority.
    pub var_checks: Vec<[usize; 3]>,
    /// Maximum number of synchronous flip rounds before the decoder gives
    /// up and flags the lane.
    pub max_iterations: usize,
}

impl BitFlipPlan {
    /// Number of decoding checks (rows of the low-density matrix).
    #[must_use]
    pub fn checks(&self) -> usize {
        self.check_supports.len()
    }

    /// Validates internal consistency: every variable's checks are in
    /// range and mutually distinct, and each lists the variable in its
    /// support.
    ///
    /// # Panics
    /// Panics on an inconsistent plan (a construction bug).
    pub fn validate(&self) {
        assert!(self.max_iterations > 0, "iteration cap must be positive");
        for (j, checks) in self.var_checks.iter().enumerate() {
            assert!(
                checks[0] != checks[1] && checks[0] != checks[2] && checks[1] != checks[2],
                "variable {j} lists a check twice"
            );
            for &c in checks {
                assert!(
                    self.check_supports[c] & (1u128 << j) != 0,
                    "check {c} does not cover variable {j}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_validation_accepts_a_consistent_toy_plan() {
        let plan = BitFlipPlan {
            check_supports: vec![0b011, 0b101, 0b110, 0b111],
            var_checks: vec![[0, 1, 3], [0, 2, 3], [1, 2, 3]],
            max_iterations: 8,
        };
        assert_eq!(plan.checks(), 4);
        plan.validate();
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn plan_validation_rejects_a_check_missing_its_variable() {
        let plan = BitFlipPlan {
            check_supports: vec![0b010, 0b101, 0b110],
            var_checks: vec![[0, 1, 2]; 1],
            max_iterations: 8,
        };
        plan.validate();
    }
}
