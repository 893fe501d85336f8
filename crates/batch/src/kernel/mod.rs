//! The decode stages' kernels: the column-stage kernel family and its
//! selection, plus the two residual stages ([`sliced`], [`bitflip`]).
//!
//! One compiled column-match program is executed by one of three kernels,
//! chosen by the code's redundancy alone and all bit-identical to the
//! program's rule (an equal pattern flips, a zero syndrome accepts,
//! anything else is flagged). The workspace's equivalence suite checks each
//! against the scalar decoder, and the crate's tests force every kernel and
//! tier on the same syndromes against a brute-force column stage:
//!
//! * **direct4 / direct8** — direct-dispatch kernels for codes with
//!   redundancy `r ≤ 8`, where the whole syndrome→action map fits a
//!   256-entry table. `direct4` (`r ≤ 4`) partitions the lanes into all
//!   `2^r` syndrome-equality masks by successive halving and applies each
//!   table action to its whole mask at once. `direct8` (`5 ≤ r ≤ 8`)
//!   bit-transposes the syndrome slices into per-lane syndrome *bytes*
//!   ([`gf2::syndrome_bytes`]) and walks the dirty lanes branch-free — no
//!   per-entry matching at all.
//! * **tree** — for `r > 8`, the program compiled into a breadth-first
//!   binary decision tree over syndrome slices ([`tree::DecisionTree`]).
//!   Dense 256-lane chunks push their dirty mask down the tree bit-sliced
//!   and verify every leaf at once; sparse chunks walk the tree once per
//!   dirty lane. The crossover comes from the tree's size.
//!
//! Selection depends on the code's redundancy only ([`select`]).

pub(crate) mod bitflip;
pub(crate) mod direct;
pub(crate) mod sliced;
pub(crate) mod tree;

/// A column-stage kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelChoice {
    Direct4,
    Direct8,
    Tree,
}

impl KernelChoice {
    /// Every kernel, in [`KernelChoice::index`] order (sizing the per-codec
    /// telemetry counter tables).
    pub(crate) const ALL: [KernelChoice; 3] = [
        KernelChoice::Direct4,
        KernelChoice::Direct8,
        KernelChoice::Tree,
    ];

    /// Dense index into [`KernelChoice::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable kernel name, used by telemetry and bench reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            KernelChoice::Direct4 => "direct4",
            KernelChoice::Direct8 => "direct8",
            KernelChoice::Tree => "tree",
        }
    }
}

/// Selects the column-stage kernel for a code with `redundancy` syndrome
/// bits: direct dispatch whenever the syndrome fits a byte, otherwise the
/// decision tree. `None` when `r = 0`: every word is a codeword and there
/// is nothing to match.
pub(crate) fn select(redundancy: usize) -> Option<KernelChoice> {
    match redundancy {
        0 => None,
        1..=4 => Some(KernelChoice::Direct4),
        5..=8 => Some(KernelChoice::Direct8),
        _ => Some(KernelChoice::Tree),
    }
}

/// Per-call column-stage statistics, accumulated in plain locals by every
/// kernel and flushed to the telemetry registry once per decode call.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KernelStats {
    pub clean_limbs: u64,
    pub lanes_matched: u64,
    pub lanes_flagged: u64,
    /// `tree` only: dirty chunks run by its dense and sparse tiers.
    pub dense_chunks: u64,
    pub sparse_chunks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Selection prefers direct dispatch, then the tree, by syndrome width
    /// alone.
    #[test]
    fn auto_prefers_direct_then_width() {
        assert_eq!(select(0), None);
        assert_eq!(select(3), Some(KernelChoice::Direct4));
        assert_eq!(select(5), Some(KernelChoice::Direct8));
        assert_eq!(select(8), Some(KernelChoice::Direct8));
        assert_eq!(select(9), Some(KernelChoice::Tree));
        assert_eq!(select(21), Some(KernelChoice::Tree));
    }

    #[test]
    fn kernel_names_are_stable() {
        for (choice, name) in [
            (KernelChoice::Direct4, "direct4"),
            (KernelChoice::Direct8, "direct8"),
            (KernelChoice::Tree, "tree"),
        ] {
            assert_eq!(choice.name(), name);
            assert_eq!(KernelChoice::ALL[choice.index()], choice);
        }
    }
}
