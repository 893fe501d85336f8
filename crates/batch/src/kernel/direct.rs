//! Direct-dispatch decode kernels for codes with redundancy `r ≤ 8`.
//!
//! When the whole syndrome space fits 256 values, the program compiles into
//! a flat [`DirectTable`]: every syndrome maps to its action — flip one
//! position, or flag. The kernels here *index* that table instead of
//! matching entries:
//!
//! * [`run_direct4`] (`r ≤ 4`): a successive-halving tree over the `r`
//!   slices yields **all** `2^r` syndrome-equality lane masks — so each
//!   table action applies to its whole lane mask at once, never per lane.
//! * [`run_direct8`] (`5 ≤ r ≤ 8`): dense limbs are bit-transposed into
//!   per-lane syndrome bytes ([`gf2::syndrome_bytes`]) and each dirty lane
//!   applies its table entry branch-free (one unconditional XOR); sparse
//!   limbs skip the transpose and gather each dirty lane's byte from the
//!   slices directly.

use ecc::BatchDecoded;
use gf2::{or_reduce, syndrome_bytes, BitSlice64};

use super::KernelStats;
use crate::MatchEntry;

/// Dirty-lane count at which [`run_direct8`] switches from per-lane byte
/// gathering to the whole-limb transpose. The transpose + 64 branch-free
/// applications cost ~1k ops; gathering costs ~35 ops per dirty lane.
const DENSE_LANES: u32 = 20;

/// Dirty-lane count at which [`run_direct8`] abandons per-lane work
/// entirely and partitions the limb into all `2^r` syndrome-equality masks
/// (the [`run_direct4`] strategy, full-width): `2·(2^r − 1)` ANDs plus one
/// wholesale table action per nonzero mask, independent of how many lanes
/// are dirty. Only worthwhile while the table is small — the partition's
/// fixed cost doubles with every syndrome bit, so `r ≥ 7` always prefers
/// the transposed per-lane path (see [`PARTITION_MAX_REDUNDANCY`]).
const PARTITION_LANES: u32 = 32;

/// Largest redundancy for which the full-width partition can beat the
/// transposed dense path: at `r = 7` its `2·(2^r − 1)` AND tree plus
/// per-syndrome scan already costs more than 64 branch-free lane applies.
const PARTITION_MAX_REDUNDANCY: usize = 6;

/// Base of the eight discard slots (248..=255) that non-correcting
/// syndromes target: the dense path XORs such lanes into
/// `DUMP_BASE | (syndrome & 7)` and never reads the slot back. Spreading
/// the discards over eight slots keeps the lanes of a flagged-heavy limb
/// from chaining their XORs through one store-forwarded address. Positions
/// are `< MAX_BLOCK_LENGTH = 128`, so the slots never alias a real lane.
const DUMP_BASE: u8 = 248;

/// The flat syndrome→action table driving the direct kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirectTable {
    /// Indexed by syndrome value (bits ≥ `redundancy` unused): the codeword
    /// position a correctable syndrome flips, and a discard slot
    /// (`≥ DUMP_BASE`) for every other value, which flags. Boxed so the
    /// table doesn't bloat every codec by 256 bytes; the dense loop hoists
    /// the reference once per limb.
    targets: Box<[u8; 256]>,
    /// Syndrome width `r ≤ 8`.
    redundancy: usize,
}

impl DirectTable {
    /// Compiles the match entries of a program with `redundancy ≤ 8` into a
    /// flat table: matched syndromes flip their position, and every other
    /// value flags (the complement rule, now materialized). The zero
    /// syndrome's discard slot is only ever hit by the clean lanes of a
    /// dense limb, whose XORs are dropped.
    pub(crate) fn compile(entries: &[MatchEntry], redundancy: usize) -> Self {
        debug_assert!(redundancy <= 8);
        let mut targets = Box::new([0u8; 256]);
        for (s, target) in targets.iter_mut().enumerate() {
            *target = DUMP_BASE | (s as u8 & 7);
        }
        for entry in entries {
            debug_assert!(entry.pattern > 0 && entry.pattern < (1 << redundancy));
            targets[entry.pattern as usize] = entry.position;
        }
        DirectTable {
            targets,
            redundancy,
        }
    }

    /// The position syndrome `s` flips, or `None` when it flags.
    #[inline]
    fn position(&self, s: usize) -> Option<usize> {
        let target = self.targets[s];
        (target < DUMP_BASE).then_some(usize::from(target))
    }
}

/// The `r ≤ 4` direct kernel: successive halving partitions each limb's
/// lanes into all `2^r` syndrome-equality masks, and each mask takes its
/// table action wholesale.
pub(crate) fn run_direct4(
    table: &DirectTable,
    syndromes: &BitSlice64,
    out: &mut BatchDecoded,
    stats: &mut KernelStats,
) {
    let words = syndromes.words();
    let tail = syndromes.tail_mask();
    let r = table.redundancy;
    debug_assert!(r <= 4);
    let mut gather = [0u64; 4];
    for w in 0..words {
        let gather = &mut gather[..r];
        syndromes.gather_word(w, gather);
        if or_reduce(gather) == 0 {
            stats.clean_limbs += 1;
            continue;
        }
        let valid = if w + 1 == words { tail } else { u64::MAX };

        // masks[s] = lanes whose whole syndrome equals s (partition of
        // `valid`), by successive halving over all r slices.
        let mut masks = [0u64; 16];
        masks[0] = valid;
        for (t, &slice) in gather.iter().enumerate() {
            let width = 1usize << t;
            for i in 0..width {
                let m = masks[i];
                masks[i | width] = m & slice;
                masks[i] = m & !slice;
            }
        }

        let mut matched = 0u64;
        let mut flagged = 0u64;
        for (s, &m) in masks.iter().enumerate().take(1 << r).skip(1) {
            if m == 0 {
                continue;
            }
            match table.position(s) {
                Some(p) => {
                    matched |= m;
                    out.codewords.lane_mut(p)[w] ^= m;
                }
                None => flagged |= m,
            }
        }
        out.corrected[w] = matched;
        out.flagged[w] = flagged;
        stats.lanes_matched += u64::from(matched.count_ones());
        stats.lanes_flagged += u64::from(flagged.count_ones());
    }
}

/// The full-width successive-halving partition: `masks[s]` = lanes whose
/// whole syndrome equals `s`, then each nonzero mask takes its table action
/// wholesale. Returns `(matched, flagged)` for the word.
#[inline]
fn partition_word(
    table: &DirectTable,
    gather: &[u64],
    valid: u64,
    w: usize,
    out: &mut BatchDecoded,
) -> (u64, u64) {
    let r = table.redundancy;
    let mut masks = [0u64; 256];
    masks[0] = valid;
    for (t, &slice) in gather.iter().enumerate() {
        let width = 1usize << t;
        for i in 0..width {
            let m = masks[i];
            masks[i | width] = m & slice;
            masks[i] = m & !slice;
        }
    }
    let mut matched = 0u64;
    let mut flagged = 0u64;
    for (s, &m) in masks.iter().enumerate().take(1 << r).skip(1) {
        if m == 0 {
            continue;
        }
        match table.position(s) {
            Some(p) => {
                matched |= m;
                out.codewords.lane_mut(p)[w] ^= m;
            }
            None => flagged |= m,
        }
    }
    (matched, flagged)
}

/// The `5 ≤ r ≤ 8` direct kernel, density-tiered: all-dirty limbs are
/// partitioned into syndrome-equality masks (per-syndrome cost, not
/// per-lane), moderately dirty limbs are byte-transposed and walked
/// branch-free per lane, and sparse limbs gather each dirty lane's byte
/// straight from the slices.
pub(crate) fn run_direct8(
    table: &DirectTable,
    syndromes: &BitSlice64,
    out: &mut BatchDecoded,
    stats: &mut KernelStats,
) {
    let words = syndromes.words();
    let tail = syndromes.tail_mask();
    let r = table.redundancy;
    debug_assert!((5..=8).contains(&r));
    let partition_lanes = PARTITION_LANES.min(1 << (r - 2));
    let n = out.codewords.bits();
    let stride = out.codewords.words();
    let mut gather = [0u64; 8];
    // Position-indexed flip accumulator for the dense path: targets are
    // bytes, so indexing needs no bounds check, and the codeword lanes are
    // touched once per limb (the sweep) instead of once per dirty lane. The
    // sweep re-zeros every entry it drains, keeping the array all-zero
    // between limbs.
    let mut flips = [0u64; 256];
    for w in 0..words {
        let gather = &mut gather[..r];
        syndromes.gather_word(w, gather);
        let valid = if w + 1 == words { tail } else { u64::MAX };
        // Invalid lanes carry all-zero slices, so they are never dirty; the
        // `& valid` documents the invariant rather than enforcing it.
        let dirty = or_reduce(gather) & valid;
        if dirty == 0 {
            stats.clean_limbs += 1;
            continue;
        }

        let mut matched = 0u64;
        let mut flagged = 0u64;
        if r <= PARTITION_MAX_REDUNDANCY && dirty.count_ones() >= partition_lanes {
            (matched, flagged) = partition_word(table, gather, valid, w, out);
        } else if dirty.count_ones() >= DENSE_LANES {
            // Dense: one transpose yields every lane's syndrome byte, then
            // every lane issues exactly one unconditional XOR into its
            // table target, which for non-correcting syndromes is a discard
            // slot. No flag logic runs per lane: a lane was corrected iff
            // the sweep finds its bit in a real position's accumulator, and
            // every other dirty lane is flagged by the complement rule.
            let mut bytes = [0u64; 8];
            syndrome_bytes(gather, &mut bytes);
            let targets: &[u8; 256] = &table.targets;
            for (q, &group_word) in bytes.iter().enumerate() {
                if group_word == 0 {
                    continue;
                }
                let mut group = group_word;
                for j in 0..8 {
                    let byte = (group & 0xFF) as usize;
                    group >>= 8;
                    flips[usize::from(targets[byte])] ^= 1u64 << (8 * q + j);
                }
            }
            let cw = out.codewords.lane_words_mut();
            for (p, flip) in flips.iter_mut().enumerate().take(n) {
                let f = *flip;
                if f != 0 {
                    matched |= f;
                    cw[p * stride + w] ^= f;
                    *flip = 0;
                }
            }
            flips[usize::from(DUMP_BASE)..].fill(0);
            flagged = dirty & !matched;
        } else {
            // Sparse: gather each dirty lane's syndrome byte straight from
            // the slices; no transpose.
            let mut rest = dirty;
            while rest != 0 {
                let lane = rest.trailing_zeros();
                let bit = 1u64 << lane;
                rest &= rest - 1;
                let mut byte = 0usize;
                for (t, &slice) in gather.iter().enumerate() {
                    byte |= (((slice >> lane) & 1) as usize) << t;
                }
                match table.position(byte) {
                    Some(p) => {
                        matched |= bit;
                        out.codewords.lane_mut(p)[w] ^= bit;
                    }
                    None => flagged |= bit,
                }
            }
        }
        out.corrected[w] = matched;
        out.flagged[w] = flagged;
        stats.lanes_matched += u64::from(matched.count_ones());
        stats.lanes_flagged += u64::from(flagged.count_ones());
    }
}
