//! The sliced algebraic residual stage for multi-error (BCH) codes.
//!
//! By the time this stage runs, the shared column stage has corrected every
//! lane whose syndrome is a column of `H` — the distance-1 cosets, the
//! dominant dirty population in Monte-Carlo traffic — and left the other
//! dirty lanes flagged. For those residual lanes this stage accumulates the
//! **bit-slices of the odd power syndromes across the whole limb** (one XOR
//! chain per GF(2^m) coefficient bit, shared by up to 64 lanes), then runs
//! the scalar algebra — Berlekamp–Massey plus the closed-form locator root
//! solve — per residual lane with its syndromes supplied for free: no
//! `BitVec` is ever materialized, no matrix product performed, and even
//! syndromes come from the Frobenius square rather than the channel. A limb
//! without residual lanes skips the accumulation entirely.

use ecc::{AlgebraicAction, BatchDecoded, SlicedSyndromePlan};
use gf2::BitSlice64;

use crate::MAX_BLOCK_LENGTH;

/// Upper bound on `odd_count × field_bits` (the sliced accumulator array):
/// `m ≤ 8` and `t ≤ 16` comfortably cover every code the catalog admits.
const MAX_POWER_SLICES: usize = 128;

/// Upper bound on the per-lane power-syndrome vector (`2t`).
const MAX_SYNDROMES: usize = 32;

/// Per-call statistics of the sliced residual stage, flushed to the
/// `batch.algebraic.*` counters once per decode call.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SlicedStats {
    /// Limbs that ran the sliced power-syndrome accumulation.
    pub sliced_limbs: u64,
    /// Residual lanes (each runs the per-lane algebra).
    pub dirty_lanes: u64,
    /// Residual lanes corrected.
    pub corrected: u64,
    /// Residual lanes flagged detected-uncorrectable.
    pub flagged: u64,
    /// Error-locator evaluations: with the closed-form root solve the
    /// decoder evaluates the locator only at its claimed roots, so this is
    /// the popcount of the applied flip masks.
    pub locator_evals: u64,
}

/// Decodes the residual lanes of one batch: on entry `out.flagged` holds
/// the dirty lanes the column stage left unmatched, and on return each of
/// them is either corrected or still flagged. Power syndromes accumulate
/// from `received` (a residual lane's codeword bits are still its received
/// bits).
pub(crate) fn run_sliced(
    plan: &SlicedSyndromePlan,
    action: &(dyn Fn(&[u16], u128) -> AlgebraicAction + Send + Sync),
    received: &BitSlice64,
    syndromes: &BitSlice64,
    out: &mut BatchDecoded,
    stats: &mut SlicedStats,
) {
    let m = plan.field_bits;
    let odd_count = plan.odd_count();
    debug_assert!(odd_count * m <= MAX_POWER_SLICES);
    debug_assert!(plan.syndrome_count <= MAX_SYNDROMES);
    let mut power = [0u64; MAX_POWER_SLICES];
    let mut synd = [0u16; MAX_SYNDROMES];
    // Per-limb full-syndrome slices (`r < n ≤ MAX_BLOCK_LENGTH`).
    let mut gather = [0u64; MAX_BLOCK_LENGTH];
    let gather = &mut gather[..syndromes.bits()];

    for w in 0..received.words() {
        let residual = out.flagged[w];
        if residual == 0 {
            continue;
        }
        out.flagged[w] = 0;
        stats.sliced_limbs += 1;
        stats.dirty_lanes += u64::from(residual.count_ones());
        syndromes.gather_word(w, gather);

        // Bit-sliced accumulation: word `h·m + b` holds, in lane order, bit
        // `b` of odd power syndrome S_{2h+1} for all 64 lanes at once — one
        // XOR chain over the support positions, shared by the whole limb.
        for (h, supports) in plan.odd_supports.iter().enumerate() {
            for (b, &support) in supports.iter().enumerate() {
                let mut acc = 0u64;
                let mut rest = support;
                while rest != 0 {
                    let p = rest.trailing_zeros() as usize;
                    acc ^= received.lane(p)[w];
                    rest &= rest - 1;
                }
                power[h * m + b] = acc;
            }
        }

        // Per residual lane: read the odd syndromes out of the slices,
        // square up the even ones, and hand the algebra its inputs for free.
        let mut rest = residual;
        while rest != 0 {
            let lane = rest.trailing_zeros();
            let bit = 1u64 << lane;
            rest &= rest - 1;

            let synd = &mut synd[..plan.syndrome_count];
            for h in 0..odd_count {
                let mut s = 0u16;
                for b in 0..m {
                    s |= (((power[h * m + b] >> lane) & 1) as u16) << b;
                }
                synd[2 * h] = s;
            }
            plan.fill_even_syndromes(synd);

            let mut full = 0u128;
            for (t, &slice) in gather.iter().enumerate() {
                full |= u128::from((slice >> lane) & 1) << t;
            }

            match action(synd, full) {
                AlgebraicAction::Detected => {
                    out.flagged[w] |= bit;
                    stats.flagged += 1;
                }
                AlgebraicAction::Flip(mask) => {
                    stats.locator_evals += u64::from(mask.count_ones());
                    let mut flip = mask;
                    while flip != 0 {
                        let p = flip.trailing_zeros() as usize;
                        out.codewords.lane_mut(p)[w] ^= bit;
                        flip &= flip - 1;
                    }
                    out.corrected[w] |= bit;
                    stats.corrected += 1;
                }
            }
        }
    }
}
