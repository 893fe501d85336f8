//! The whole-limb bit-flipping residual stage for iteratively decoded (LDPC)
//! codes.
//!
//! Nothing here is per-lane: a synchronous bit-flip round *is* bit-sliced
//! work. Each round computes every low-density check parity as one XOR chain
//! over its support lanes (shared by 64 words), then flips each variable by
//! a whole-limb 3-input majority of its check slices. Even a limb whose every
//! lane is residual never unpacks a lane.
//!
//! The schedule is the synchronous one the decoder's
//! [`ecc::SyndromeClass::Iterative`] plan ([`ecc::BitFlipPlan`]) contracts:
//! all parities from one snapshot, all flips at once. Parities are masked to the residual lanes (the dirty lanes the
//! shared column stage left unmatched); every other lane holds a codeword,
//! whose parities are zero anyway. Converged lanes are fixed points (zero
//! parities → zero majorities), so running a limb to the shared cap is
//! bit-identical to the scalar decoder's per-word early exit; a limb whose
//! lanes have all converged or stalled breaks out early. Classification is
//! by final parity: a residual lane that ends with clean checks was
//! corrected, anything still unsatisfied at the cap keeps its error flag.

use ecc::{BatchDecoded, BitFlipPlan};
use gf2::BitSlice64;

/// Upper bound on the number of low-density checks (parity slices live in a
/// fixed stack array). The catalog's LDPC(60,32) uses 30.
const MAX_CHECKS: usize = 64;

/// Per-call statistics of the bit-flip residual stage, flushed to the
/// `batch.ldpc.*` counters once per decode call.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BitFlipStats {
    /// Limbs that ran the flip rounds (at least one residual lane).
    pub flip_limbs: u64,
    /// Residual lanes.
    pub dirty_lanes: u64,
    /// Residual lanes whose checks all cleared (corrected).
    pub corrected: u64,
    /// Residual lanes still unsatisfied at the iteration cap (flagged).
    pub flagged: u64,
    /// Synchronous rounds executed across all limbs.
    pub rounds: u64,
    /// Variable flips applied (lane-bits across all rounds).
    pub flips: u64,
}

/// Decodes the residual lanes of one batch: on entry `out.flagged` holds
/// the dirty lanes the column stage left unmatched, and on return each of
/// them is either corrected or still flagged. Rounds mutate `out.codewords`
/// in place; a lane that stays flagged gets its `received` bits back.
pub(crate) fn run_bit_flip(
    plan: &BitFlipPlan,
    received: &BitSlice64,
    out: &mut BatchDecoded,
    stats: &mut BitFlipStats,
) {
    let checks = plan.checks();
    debug_assert!(checks <= MAX_CHECKS);
    let mut parity = [0u64; MAX_CHECKS];

    // One check parity slice: XOR chain over the support lanes of limb `w`.
    let parity_slice = |out: &BatchDecoded, support: u128, w: usize| -> u64 {
        let mut acc = 0u64;
        let mut rest = support;
        while rest != 0 {
            let p = rest.trailing_zeros() as usize;
            acc ^= out.codewords.lane(p)[w];
            rest &= rest - 1;
        }
        acc
    };

    for w in 0..received.words() {
        let residual = out.flagged[w];
        if residual == 0 {
            continue;
        }
        stats.flip_limbs += 1;
        stats.dirty_lanes += u64::from(residual.count_ones());

        for _ in 0..plan.max_iterations {
            let mut unsat = 0u64;
            for (c, &support) in plan.check_supports.iter().enumerate() {
                let p = parity_slice(out, support, w) & residual;
                parity[c] = p;
                unsat |= p;
            }
            if unsat == 0 {
                break;
            }
            stats.rounds += 1;
            let mut any_flip = 0u64;
            for (j, vc) in plan.var_checks.iter().enumerate() {
                let (a, b, c) = (parity[vc[0]], parity[vc[1]], parity[vc[2]]);
                let flip = (a & b) | (a & c) | (b & c);
                if flip != 0 {
                    out.codewords.lane_mut(j)[w] ^= flip;
                    any_flip |= flip;
                    stats.flips += u64::from(flip.count_ones());
                }
            }
            if any_flip == 0 {
                // Every lane has converged or stalled: further rounds are
                // no-ops, exactly like the scalar decoder's stall break.
                break;
            }
        }

        // Final classification by residual low-density parity.
        let mut flagged = 0u64;
        for &support in &plan.check_supports {
            flagged |= parity_slice(out, support, w) & residual;
        }
        let corrected = residual & !flagged;
        out.flagged[w] = flagged;
        out.corrected[w] |= corrected;
        stats.flagged += u64::from(flagged.count_ones());
        stats.corrected += u64::from(corrected.count_ones());

        // Flagged lanes deliver the received word unchanged, like every
        // other stage: undo whatever partial flips the rounds left behind.
        if flagged != 0 {
            for p in 0..received.bits() {
                let lane = out.codewords.lane(p)[w];
                out.codewords.lane_mut(p)[w] = (lane & !flagged) | (received.lane(p)[w] & flagged);
            }
        }
    }
}
