//! The decode stages' kernels: the column-stage kernel family and its
//! selection, plus the two residual stages ([`sliced`], [`bitflip`]).
//!
//! One compiled column-match program can be executed by four
//! interchangeable kernels, all bit-identical (the workspace's equivalence
//! suite checks each against the scalar decoder through an input shape
//! that selects it, and the crate's tests force each one on the same
//! syndromes):
//!
//! * **direct4 / direct8** — direct-dispatch kernels for codes with
//!   redundancy `r ≤ 8`, where the whole syndrome→action map fits a
//!   256-entry table. `direct4` (`r ≤ 4`) partitions the lanes into all
//!   `2^r` syndrome-equality masks by successive halving and applies each
//!   table action to its whole mask at once. `direct8` (`5 ≤ r ≤ 8`)
//!   bit-transposes the syndrome slices into per-lane syndrome *bytes*
//!   ([`gf2::syndrome_bytes`]) and walks the dirty lanes branch-free — no
//!   per-entry matching at all.
//! * **walk-w256 / walk-u64** — the prefix-bucket AND-tree walk for
//!   `r > 8`, generic over the [`gf2::Limb`] width: the 256-bit
//!   software-SIMD limb ([`wide::W256`]) covers four `u64` words of the
//!   batch per reduction step, and the one-word walk finishes the ragged
//!   tail (the whole batch when it is shorter than four words).
//!
//! Selection depends on the code's redundancy and the batch length only
//! ([`select`]).

pub(crate) mod bitflip;
pub(crate) mod direct;
pub(crate) mod sliced;
pub(crate) mod wide;

use gf2::Limb;

/// A column-stage kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelChoice {
    Direct4,
    Direct8,
    Walk64,
    Walk256,
}

impl KernelChoice {
    /// Every kernel, in [`KernelChoice::index`] order (sizing the per-codec
    /// telemetry counter tables).
    pub(crate) const ALL: [KernelChoice; 4] = [
        KernelChoice::Direct4,
        KernelChoice::Direct8,
        KernelChoice::Walk64,
        KernelChoice::Walk256,
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
            KernelChoice::Walk64 => "walk-u64",
            KernelChoice::Walk256 => "walk-w256",
        }
    }
}

/// Selects the column-stage kernel for a code with `redundancy` syndrome
/// bits over a batch of `words` limb words: direct dispatch whenever the
/// syndrome fits a byte, otherwise the widest walk limb the batch fills.
/// `None` when `r = 0`: every word is a codeword and there is nothing to
/// match.
pub(crate) fn select(redundancy: usize, words: usize) -> Option<KernelChoice> {
    match redundancy {
        0 => None,
        1..=4 => Some(KernelChoice::Direct4),
        5..=8 => Some(KernelChoice::Direct8),
        _ if words >= wide::W256::WORDS => Some(KernelChoice::Walk256),
        _ => Some(KernelChoice::Walk64),
    }
}

/// Per-call column-stage statistics, accumulated in plain locals by every
/// kernel and flushed to the telemetry registry once per decode call. The
/// direct kernels have no buckets or entries to count — those stay zero.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KernelStats {
    pub clean_limbs: u64,
    pub buckets_visited: u64,
    pub buckets_skipped: u64,
    pub entries_tested: u64,
    pub lanes_matched: u64,
    pub lanes_flagged: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_prefers_direct_then_width() {
        assert_eq!(select(0, 64), None);
        assert_eq!(select(3, 64), Some(KernelChoice::Direct4));
        assert_eq!(select(8, 1), Some(KernelChoice::Direct8));
        // Past one syndrome byte the width depends on batch length.
        assert_eq!(select(21, 1), Some(KernelChoice::Walk64));
        assert_eq!(select(21, 3), Some(KernelChoice::Walk64));
        assert_eq!(select(21, 4), Some(KernelChoice::Walk256));
        assert_eq!(select(21, 64), Some(KernelChoice::Walk256));
    }

    #[test]
    fn kernel_names_are_stable() {
        for (choice, name) in [
            (KernelChoice::Direct4, "direct4"),
            (KernelChoice::Direct8, "direct8"),
            (KernelChoice::Walk64, "walk-u64"),
            (KernelChoice::Walk256, "walk-w256"),
        ] {
            assert_eq!(choice.name(), name);
            assert_eq!(KernelChoice::ALL[choice.index()], choice);
        }
    }
}
