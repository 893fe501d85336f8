//! The `tree` column-stage kernel for codes with redundancy `r > 8` (see
//! the `kernel` module docs). Every internal node of the compiled tree
//! splits its entries on one syndrome bit that separates them, so `E`
//! entries need `E − 1` nodes and every leaf holds one entry. A lane that
//! descends to a leaf agrees with the leaf's pattern on the bits its path
//! tested, and matches the entry iff it also agrees on all the others.

use std::collections::VecDeque;

use ecc::BatchDecoded;
use gf2::BitSlice64;

use super::KernelStats;
use crate::MatchEntry;

/// `u64` words per chunk: 256 lanes.
const CHUNK: usize = 4;

/// Cost of one dense-tier chunk operation relative to one sparse-tier
/// per-lane step, as `(numerator, denominator)`. A chunk operation is one
/// bitwise op over four words, branch-free; a sparse step is one gathered
/// syndrome bit or one dependent tree descent. Fitted to the measured
/// crossovers of the catalog's five `r > 8` members (x86-64, 4096-lane
/// batches at 1/64 to all-dirty), whose individual ratios span 0.56–0.75.
/// The crate's `#[ignore]`d `tree_tiers_win_on_their_own_side` re-measures
/// both tiers, also on 40-lane batches, and fails if the crossover picks
/// one more than 1.5× slower than the other.
const DENSE_OP_COST: (usize, usize) = (2, 3);

type Chunk = [u64; CHUNK];

/// One internal node: test syndrome bit `slice` and descend to the slot
/// `children[bit]`. Slots `0..nodes.len()` are internal nodes, the rest
/// leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    slice: u32,
    children: [u32; 2],
}

/// A compiled column-match program as a breadth-first binary decision tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecisionTree {
    /// Internal nodes in breadth-first order (slot `i` is `nodes[i]`, the
    /// root is slot 0), so consecutive nodes never depend on each other.
    nodes: Vec<Node>,
    /// Per leaf (slot − `nodes.len()`): its pattern and flip position.
    patterns: Vec<u128>,
    positions: Vec<u8>,
    /// Per syndrome slice `t`: the leaves whose pattern has bit `t`.
    slice_leaves: Vec<Vec<u32>>,
    /// Chunks with fewer dirty lanes than this run the sparse tier.
    pub(crate) sparse_below: u64,
}

/// Bit `t` of `value`.
fn bit(value: u128, t: usize) -> bool {
    (value >> t) & 1 == 1
}

impl DecisionTree {
    /// Compiles `entries` (distinct nonzero patterns over `redundancy`
    /// bits) into the tree, its per-slice leaf lists, its per-leaf flip
    /// positions, and the dense/sparse crossover.
    pub(crate) fn compile(entries: &[MatchEntry], redundancy: usize) -> Self {
        // Breadth-first: a set of two or more entries is an internal node,
        // split on its most balanced bit; one entry is a leaf. `E` entries
        // make `E − 1` internal nodes, so internal nodes take slots
        // `0..E − 1` and leaves the rest, each in the order they are placed.
        let internal = entries.len().saturating_sub(1);
        let mut leaves: Vec<(&MatchEntry, usize)> = Vec::new();
        let mut queued = 0;
        let mut place = |set: Vec<usize>, depth, queue: &mut VecDeque<_>| {
            if let [entry] = set[..] {
                leaves.push((&entries[entry], depth));
                (internal + leaves.len() - 1) as u32
            } else {
                queue.push_back((set, depth));
                queued += 1;
                queued - 1
            }
        };
        let mut queue = VecDeque::new();
        if !entries.is_empty() {
            place((0..entries.len()).collect(), 0, &mut queue);
        }
        let mut nodes = Vec::with_capacity(internal);
        while let Some((set, depth)) = queue.pop_front() {
            let slice = most_balanced_slice(entries, &set, redundancy);
            let (high, low) = set
                .into_iter()
                .partition(|&e| bit(entries[e].pattern, slice));
            let children = [
                place(low, depth + 1, &mut queue),
                place(high, depth + 1, &mut queue),
            ];
            let slice = slice as u32;
            nodes.push(Node { slice, children });
        }
        let patterns: Vec<u128> = leaves.iter().map(|(e, _)| e.pattern).collect();
        let positions: Vec<u8> = leaves.iter().map(|(e, _)| e.position).collect();
        let slice_leaves: Vec<Vec<u32>> = (0..redundancy)
            .map(|t| {
                (0..patterns.len() as u32)
                    .filter(|&e| bit(patterns[e as usize], t))
                    .collect()
            })
            .collect();

        // Crossover: a dense chunk costs two ops per node, one per verify
        // term and slice, and two per leaf (its hit mask and its flip); a
        // sparse lane gathers r bits and descends the tree's mean leaf
        // depth.
        let dense = 2 * internal
            + slice_leaves.iter().map(Vec::len).sum::<usize>()
            + redundancy
            + 2 * patterns.len();
        let leaf_count = patterns.len().max(1);
        let depth_sum: usize = leaves.iter().map(|&(_, depth)| depth).sum();
        let (cost, steps) = DENSE_OP_COST;
        let sparse_below =
            (cost * dense * leaf_count).div_ceil(steps * (redundancy * leaf_count + depth_sum));
        DecisionTree {
            nodes,
            patterns,
            positions,
            slice_leaves,
            sparse_below: sparse_below.min(CHUNK * 64 + 1) as u64,
        }
    }
}

/// The syndrome bit that splits `set` most evenly (ties: the lowest bit).
/// `set` holds at least two distinct patterns, so some bit separates it.
fn most_balanced_slice(entries: &[MatchEntry], set: &[usize], redundancy: usize) -> usize {
    let balance = |t: usize| {
        let high = set.iter().filter(|&&e| bit(entries[e].pattern, t)).count();
        high.min(set.len() - high)
    };
    (0..redundancy)
        .max_by_key(|&t| (balance(t), std::cmp::Reverse(t)))
        .filter(|&t| balance(t) > 0)
        .expect("match entries have distinct patterns")
}

/// `op` applied word by word.
#[inline]
fn zip(a: Chunk, b: Chunk, op: impl Fn(u64, u64) -> u64) -> Chunk {
    std::array::from_fn(|i| op(a[i], b[i]))
}

#[inline]
fn ones(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Runs the tree over the whole batch in four-word (256-lane) chunks, a
/// ragged tail zero-padded to a full chunk. Chunks with fewer than
/// `sparse_below` dirty lanes (the tree's own crossover, or `0` to force
/// dense and `257` to force sparse) run the sparse tier. `buffer` holds the
/// chunk's syndrome slices and the dense tier's slot masks (resized in
/// place).
pub(crate) fn run_tree(
    tree: &DecisionTree,
    syndromes: &BitSlice64,
    buffer: &mut Vec<u64>,
    out: &mut BatchDecoded,
    stats: &mut KernelStats,
    sparse_below: u64,
) {
    let (words, r) = (syndromes.words(), syndromes.bits());
    debug_assert_eq!(r, tree.slice_leaves.len());
    // Every node and leaf, and at least the root: an empty program still
    // pushes the dirty mask into slot 0.
    let slots = (tree.nodes.len() + tree.patterns.len()).max(1);
    buffer.resize((r + slots) * CHUNK, 0);
    let (slices, masks) = buffer.as_chunks_mut::<CHUNK>().0.split_at_mut(r);

    for base in (0..words).step_by(CHUNK) {
        let len = CHUNK.min(words - base);
        // Gather the chunk, zero-padding a ragged tail: padded (and
        // invalid tail) lanes have zero syndromes, so they are never dirty.
        for (t, slice) in slices.iter_mut().enumerate() {
            let lane = &syndromes.lane(t)[base..base + len];
            *slice = std::array::from_fn(|i| lane.get(i).copied().unwrap_or(0));
        }
        let dirty = slices
            .iter()
            .fold([0; CHUNK], |acc, &s| zip(acc, s, |a, s| a | s));
        let count = ones(&dirty);
        if count == 0 {
            stats.clean_limbs += len as u64;
            continue;
        }
        let (corrected, flagged) = if count < sparse_below {
            stats.sparse_chunks += 1;
            sparse_chunk(tree, slices, dirty, base, len, out)
        } else {
            stats.dense_chunks += 1;
            dense_chunk(tree, slices, dirty, masks, base, len, out)
        };
        out.corrected[base..base + len].copy_from_slice(&corrected[..len]);
        out.flagged[base..base + len].copy_from_slice(&flagged[..len]);
        stats.lanes_matched += ones(&corrected[..len]);
        stats.lanes_flagged += ones(&flagged[..len]);
    }
}

/// The dense tier on one chunk: the dirty mask is pushed down the whole
/// tree (two ANDs per node) to one candidate mask per leaf. Candidates
/// partition the dirty lanes, so the XOR of those whose pattern has bit `t`
/// is the slice every lane *should* have, and `bad = OR_t (s_t ⊕ expected_t)`
/// marks the lanes whose syndrome differs from their leaf's pattern. Each
/// leaf's position flips in `candidate & !bad`. Returns `(corrected,
/// flagged)`.
fn dense_chunk(
    tree: &DecisionTree,
    slices: &[Chunk],
    dirty: Chunk,
    masks: &mut [Chunk],
    base: usize,
    len: usize,
    out: &mut BatchDecoded,
) -> (Chunk, Chunk) {
    masks[0] = dirty;
    for (i, node) in tree.nodes.iter().enumerate() {
        let (m, s) = (masks[i], slices[node.slice as usize]);
        masks[node.children[0] as usize] = zip(m, s, |m, s| m & !s);
        masks[node.children[1] as usize] = zip(m, s, |m, s| m & s);
    }
    let leaves = &masks[tree.nodes.len()..tree.nodes.len() + tree.patterns.len()];
    let mut bad = [0; CHUNK];
    for (&s, with_bit) in slices.iter().zip(&tree.slice_leaves) {
        let expected = with_bit
            .iter()
            .fold(s, |acc, &e| zip(acc, leaves[e as usize], |a, c| a ^ c));
        bad = zip(bad, expected, |b, x| b | x);
    }
    for (&candidate, &p) in leaves.iter().zip(&tree.positions) {
        let hit = zip(candidate, bad, |c, b| c & !b);
        if hit == [0; CHUNK] {
            continue;
        }
        let lane = &mut out.codewords.lane_mut(p.into())[base..base + len];
        for (word, h) in lane.iter_mut().zip(hit) {
            *word ^= h;
        }
    }
    (
        zip(dirty, bad, |d, b| d & !b),
        zip(dirty, bad, |d, b| d & b),
    )
}

/// The sparse tier on one chunk: each dirty lane gathers its syndrome,
/// descends, and checks its leaf. Returns `(corrected, flagged)`.
fn sparse_chunk(
    tree: &DecisionTree,
    slices: &[Chunk],
    dirty: Chunk,
    base: usize,
    len: usize,
    out: &mut BatchDecoded,
) -> (Chunk, Chunk) {
    let mut corrected = [0; CHUNK];
    let mut flagged = [0; CHUNK];
    for j in 0..len {
        let mut rest = dirty[j];
        while rest != 0 {
            let lane = rest.trailing_zeros();
            let lane_bit = 1u64 << lane;
            rest &= rest - 1;
            // Top slice first, one shift per bit: a load, a shift, and an
            // OR per syndrome bit, with no variable-width u128 shift.
            let key = slices
                .iter()
                .rev()
                .fold(0u128, |key, s| (key << 1) | u128::from((s[j] >> lane) & 1));
            let mut slot = 0;
            while let Some(node) = tree.nodes.get(slot) {
                slot = node.children[((key >> node.slice) & 1) as usize] as usize;
            }
            let leaf = slot - tree.nodes.len();
            if tree.patterns.get(leaf) != Some(&key) {
                flagged[j] |= lane_bit;
                continue;
            }
            corrected[j] |= lane_bit;
            out.codewords.lane_mut(tree.positions[leaf].into())[base + j] ^= lane_bit;
        }
    }
    (corrected, flagged)
}
