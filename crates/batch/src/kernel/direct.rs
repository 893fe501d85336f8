//! Direct-dispatch decode kernels for codes with redundancy `r ≤ 8`.
//!
//! When the whole syndrome space fits 256 values, the decoder compiles into
//! a flat [`DirectTable`]: every syndrome maps to its action — accept,
//! flip (≤ 2 recorded positions, or a general mask), or flag. The kernels
//! here *index* that table instead of matching entries, which removes the
//! per-entry AND-tree overhead entirely:
//!
//! * [`run_direct4`] (`r ≤ 4`): the successive-halving tree the bucket walk
//!   used for prefixes already yields **all** `2^r` syndrome-equality lane
//!   masks — so each table action applies to its whole lane mask at once,
//!   never per lane.
//! * [`run_direct8`] (`5 ≤ r ≤ 8`): dense limbs are bit-transposed into
//!   per-lane syndrome bytes ([`gf2::syndrome_bytes`]) and each dirty lane
//!   applies its table entry branch-free (masked XORs); sparse limbs skip
//!   the transpose and gather each dirty lane's byte from the slices
//!   directly.

use ecc::BatchDecoded;
use gf2::{or_reduce, syndrome_bytes, BitSlice64};

use super::KernelStats;
use crate::MatchEntry;

/// Action flags of a [`DirectEntry`].
const APPLY1: u8 = 1 << 0;
const APPLY2: u8 = 1 << 1;
const FLAGGED: u8 = 1 << 2;
const CORRECTED: u8 = 1 << 3;
/// Correction flips more than two positions: apply via the `flip` mask.
const MULTI: u8 = 1 << 4;

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

/// Base of the dense path's eight discard slots (248..=255): flips of
/// non-correcting entries XOR into `DUMP_BASE | (syndrome & 7)` and are
/// never read. Spreading the discards over eight slots matters: weight-1
/// corrections are the common case, and a single shared slot would chain
/// every lane's second XOR through one store-forwarded address. Positions
/// are `< MAX_BLOCK_LENGTH = 128`, so the slots never alias a real lane.
const DUMP_BASE: u16 = 248;

/// One syndrome's compiled action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirectEntry {
    /// First / second flip position (codeword lane index); 0 when unused
    /// (the masked apply then XORs zero into lane 0 — a no-op).
    p1: u8,
    p2: u8,
    /// [`APPLY1`] | [`APPLY2`] | [`FLAGGED`] | [`CORRECTED`] | [`MULTI`];
    /// `0` = accept (the zero syndrome, and values above `2^r`).
    flags: u8,
    /// Full flip mask, used by the [`MULTI`] path and [`run_direct4`].
    flip: u128,
}

/// The flat syndrome→action table driving the direct kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirectTable {
    /// Indexed by syndrome value; length 256 (bits ≥ `redundancy` unused).
    entries: Vec<DirectEntry>,
    /// The dense-path view of `entries`: `p1 | p2 << 8`, with unused slots
    /// (non-correcting entries, absent second flips) redirected to the
    /// [`DUMP`] accumulator slot. The branch-free inner loop then issues one
    /// 2-byte load and two unconditional XORs per lane — no flag masks.
    /// Boxed so the table doesn't bloat every codec by 512 bytes; the dense
    /// loop hoists the reference once per limb.
    packed: Box<[u16; 256]>,
    /// Syndrome width `r ≤ 8`.
    redundancy: usize,
    /// Any correction flips more than two positions (e.g. repetition
    /// decoding): [`run_direct8`] then always uses its per-lane path, whose
    /// mask loop handles arbitrary flips.
    multi_flip: bool,
}

impl DirectTable {
    /// Compiles the match entries of a program with `redundancy ≤ 8` into a
    /// flat table: matched syndromes act, the zero syndrome accepts, and
    /// every other value flags (the complement rule, now materialized).
    pub(crate) fn compile(entries: &[MatchEntry], redundancy: usize) -> Self {
        debug_assert!(redundancy <= 8);
        let mut table = vec![
            DirectEntry {
                p1: 0,
                p2: 0,
                flags: 0,
                flip: 0,
            };
            256
        ];
        for value in table.iter_mut().take(1usize << redundancy).skip(1) {
            value.flags = FLAGGED;
        }
        let mut multi_flip = false;
        for entry in entries {
            let s = entry.pattern as usize;
            debug_assert!(s > 0 && s < (1 << redundancy));
            let weight = entry.flip.count_ones();
            let p1 = entry.flip.trailing_zeros() as u8;
            let rest = entry.flip & (entry.flip - 1);
            let p2 = if weight >= 2 {
                rest.trailing_zeros() as u8
            } else {
                0
            };
            let mut flags = CORRECTED | APPLY1;
            if weight >= 2 {
                flags |= APPLY2;
            }
            if weight > 2 {
                flags |= MULTI;
                multi_flip = true;
            }
            table[s] = DirectEntry {
                p1,
                p2,
                flags,
                flip: entry.flip,
            };
        }
        let mut packed = Box::new([0u16; 256]);
        for (s, (slot, entry)) in packed.iter_mut().zip(&table).enumerate() {
            let dump = DUMP_BASE | (s as u16 & 7);
            let correcting = entry.flags & CORRECTED != 0;
            let p1 = if correcting {
                u16::from(entry.p1)
            } else {
                dump
            };
            let p2 = if correcting && entry.flags & APPLY2 != 0 {
                u16::from(entry.p2)
            } else {
                dump
            };
            *slot = p1 | (p2 << 8);
        }
        DirectTable {
            entries: table,
            packed,
            redundancy,
            multi_flip,
        }
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
        // `valid`) — the bucket walk's prefix tree, now covering all of r.
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
            let entry = table.entries[s];
            if entry.flags & FLAGGED != 0 {
                flagged |= m;
                continue;
            }
            matched |= m;
            let mut flip = entry.flip;
            while flip != 0 {
                let p = flip.trailing_zeros() as usize;
                out.codewords.lane_mut(p)[w] ^= m;
                flip &= flip - 1;
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
        let entry = table.entries[s];
        if entry.flags & FLAGGED != 0 {
            flagged |= m;
            continue;
        }
        matched |= m;
        let mut flip = entry.flip;
        while flip != 0 {
            let p = flip.trailing_zeros() as usize;
            out.codewords.lane_mut(p)[w] ^= m;
            flip &= flip - 1;
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
    // Position-indexed flip accumulator for the dense path: `p1`/`p2` come
    // from a packed byte, so indexing needs no bounds check, and the
    // codeword lanes are touched once per limb (the sweep) instead of twice
    // per dirty lane. The sweep re-zeros every entry it drains, keeping the
    // array all-zero between limbs.
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
        } else if !table.multi_flip && dirty.count_ones() >= DENSE_LANES {
            // Dense: one transpose yields every lane's syndrome byte, then
            // every lane issues exactly two unconditional XORs — its packed
            // entry's flip targets, which for non-correcting syndromes are
            // the discard slot. No flag logic runs per lane: a lane was
            // corrected iff the sweep finds its bit in a real position's
            // accumulator (every correction flips at least one position),
            // and every other dirty lane is flagged by the complement rule.
            let mut bytes = [0u64; 8];
            syndrome_bytes(gather, &mut bytes);
            let packed: &[u16; 256] = &table.packed;
            for (q, &group_word) in bytes.iter().enumerate() {
                if group_word == 0 {
                    continue;
                }
                let mut group = group_word;
                for j in 0..8 {
                    let byte = (group & 0xFF) as usize;
                    group >>= 8;
                    let entry = packed[byte];
                    let bit = 1u64 << (8 * q + j);
                    flips[(entry & 0xFF) as usize] ^= bit;
                    flips[(entry >> 8) as usize] ^= bit;
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
            flips[DUMP_BASE as usize..].fill(0);
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
                let entry = table.entries[byte];
                if entry.flags & FLAGGED != 0 {
                    flagged |= bit;
                    continue;
                }
                matched |= bit;
                let mut flip = entry.flip;
                while flip != 0 {
                    let p = flip.trailing_zeros() as usize;
                    out.codewords.lane_mut(p)[w] ^= bit;
                    flip &= flip - 1;
                }
            }
        }
        out.corrected[w] = matched;
        out.flagged[w] = flagged;
        stats.lanes_matched += u64::from(matched.count_ones());
        stats.lanes_flagged += u64::from(flagged.count_ones());
    }
}
