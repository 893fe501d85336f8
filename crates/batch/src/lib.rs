//! # sfq-batch — bit-sliced batch codec engine
//!
//! Scalar encode/decode of the paper's short block codes spends its time in
//! per-message loops over 4–8 bits: one `BitVec` allocation and one
//! matrix-vector product per message. For the workloads this workspace cares
//! about — exhaustive Table I sweeps and Fig. 5 Monte-Carlo runs over
//! thousands of chips × hundreds of messages — the same operations can be
//! performed on 64 messages at once by storing the batch *transposed*
//! ([`gf2::BitSlice64`]): one `u64`-limb lane per bit position, message `i`
//! at bit `i % 64` of limb `i / 64`. Encoding a lane is then a handful of
//! XORs; the whole batch path touches no per-message state at all. The same
//! word-level parallelism powers the massively parallel syndrome processing
//! units of superconducting QEC decoders (QECOOL, NEO-QEC), applied here to
//! classical link codes.
//!
//! ## One staged decode pipeline
//!
//! [`BatchCodec`] is built from any scalar [`BlockCode`] + [`HardDecoder`]
//! whose hard decisions are **coset-invariant**: the correction applied to a
//! received word depends only on its syndrome. Every decode runs the same
//! stages, in one body ([`BatchCodec::try_decode_batch_with`]):
//!
//! 1. **Syndrome** — the `r = n − k` syndrome bit-slices of the batch.
//! 2. **Column stage** — construction compiles a *column-match program*, a
//!    list of `(syndrome pattern, flip mask)` entries, and a kernel executes
//!    it over the batch's 64-message limbs. A limb (for `tree`, a four-limb
//!    chunk) whose syndromes are all zero (the dominant case in Monte-Carlo
//!    traffic) skips matching entirely; lanes
//!    whose syndrome matches an entry are flipped and marked corrected;
//!    every other dirty lane is flagged.
//! 3. **Residual stage** — what happens to the flagged lanes depends on the
//!    decoder's [`SyndromeClass`]:
//!    * [`SyndromeClass::ColumnFlip`] / [`SyndromeClass::General`]: the
//!      program covers every correctable syndrome, so the flag stands —
//!      detected-uncorrectable syndromes are handled *by complement* and
//!      cost nothing;
//!    * [`SyndromeClass::Algebraic`] (multi-error BCH,
//!      [`BatchCodec::with_sliced_algebraic`]): odd power syndromes are
//!      accumulated bit-sliced across each residual limb (even powers follow
//!      from the Frobenius square), and only the scalar algebra —
//!      Berlekamp–Massey plus a closed-form locator root solve — runs per
//!      residual lane, with its syndromes supplied for free;
//!    * [`SyndromeClass::Iterative`] (LDPC, [`BatchCodec::with_bit_flip`]):
//!      synchronous bit-flip rounds run whole-limb over the residual lanes,
//!      with no per-lane region at all.
//! 4. **One stats flush** of the call's telemetry (see below).
//! 5. **Message extraction** from the corrected codeword lanes.
//!
//! How the program is built depends on the class. `General` decoders (e.g.
//! majority-vote repetition) are interrogated once per syndrome value —
//! exact, but only tractable for small `r`. Every other class compiles
//! **directly from the columns of `H`**: one entry per codeword position,
//! verified with one scalar probe per position (a syndrome equal to column
//! `j` puts the word in the coset of `e_j`, and the probe checks that the
//! scalar decoder answers that coset with "flip `j`"). Construction and
//! per-limb matching cost a polynomial in `n` and `r`, independent of
//! `2^r` — which is what lets the engine serve codes such as the catalog's
//! Shortened Hamming(85,64) with `r = 21`.
//!
//! ## Column-stage kernels
//!
//! One compiled program is executed by one of three kernels (see the
//! crate's `kernel` module), chosen by the code's redundancy alone. For
//! codes whose whole syndrome fits one byte (`r ≤ 8`), *direct dispatch*:
//! `direct4` / `direct8` index a flat 256-entry syndrome→action table per
//! lane, with dense limbs bit-transposed into per-lane syndrome bytes
//! ([`gf2::syndrome_bytes`]). For wider codes, `tree`: a binary decision
//! tree over syndrome slices, run bit-sliced on dense 256-lane chunks and
//! walked per dirty lane on sparse ones. Every kernel is bit-identical;
//! [`BatchCodec::selected_kernel_name`] and the `batch.kernel.*` counters
//! show which one ran.
//!
//! Bit-exactness with the scalar path is enforced by the workspace's
//! equivalence tests, and the RM(1,3) tie-break policy note applies
//! unchanged: the batch engine tabulates the tie-*detecting* decoder
//! (`decode`), not `decode_best_effort`.
//!
//! ## Allocation-free hot path
//!
//! Every batch operation has a buffer-reusing twin ([`BatchEncode::
//! encode_batch_into`], [`BatchDecode::decode_batch_with`]) threaded through
//! an [`ecc::BatchScratch`]; the Monte-Carlo drivers in `cryolink` keep one
//! scratch per worker thread so the steady-state inner loop never touches
//! the allocator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecc::{
    generator_right_inverse, AlgebraicAction, AlgebraicDecode, BatchDecode, BatchDecoded,
    BatchEncode, BatchScratch, Bch, BchSpec, BitFlipPlan, BlockCode, DecodeOutcome, Hamming74,
    Hamming84, HardDecoder, IterativeDecode, Ldpc, Repetition, Rm13, SecDed, ShortenedHamming,
    SlicedSyndromePlan, SyndromeClass, Uncoded,
};
use gf2::{or_reduce, BitMat, BitSlice64, BitVec};
use std::sync::Arc;

mod kernel;

use kernel::bitflip::{run_bit_flip, BitFlipStats};
use kernel::direct::{run_direct4, run_direct8, DirectTable};
use kernel::sliced::{run_sliced, SlicedStats};
use kernel::tree::{run_tree, DecisionTree};
use kernel::{KernelChoice, KernelStats};

/// Largest supported codeword length: syndrome patterns, column supports,
/// and flip masks are single `u128`s. This is the batch engine's only size
/// limit — the redundancy `n - k` is unconstrained.
pub const MAX_BLOCK_LENGTH: usize = 128;

/// One compiled decode rule: when a word's syndrome equals `pattern`, XOR
/// `flip` into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MatchEntry {
    /// Syndrome value (bit `t` = syndrome lane `t`). Never zero — the zero
    /// syndrome always means "accept" and is handled separately.
    pattern: u128,
    /// Error pattern to XOR into the received word (bit `p` = codeword
    /// position `p`). Never zero — a nonzero syndrome's correction flips at
    /// least one bit.
    flip: u128,
}

/// The compiled column stage: match entries for correctable syndromes. The
/// zero syndrome accepts, and any other unmatched syndrome is flagged for
/// the residual stage. Construction compiles the entries into the form the
/// code's kernel executes: a flat table for `r ≤ 8`, a decision tree above.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColumnMatchProgram {
    /// The entries, in compilation order.
    entries: Vec<MatchEntry>,
    /// The flat syndrome→action table the `direct4`/`direct8` kernels
    /// index, compiled whenever `1 ≤ r ≤ 8`.
    direct: Option<DirectTable>,
    /// The decision tree the `tree` kernel runs, compiled whenever `r > 8`.
    tree: Option<DecisionTree>,
}

/// The type-erased per-lane algebra of the sliced residual stage:
/// `(power syndromes, full syndrome) → action`.
type AlgebraicActionFn = Arc<dyn Fn(&[u16], u128) -> AlgebraicAction + Send + Sync>;

/// The sliced-syndrome residual stage for [`SyndromeClass::Algebraic`]
/// decoders: odd power syndromes are accumulated bit-sliced across each
/// residual limb, and the per-lane algebra runs from those syndromes alone —
/// no `BitVec` is ever materialized.
#[derive(Clone)]
struct SlicedAlgebraic {
    /// The code's constant accumulation plan (supports, squaring table).
    plan: SlicedSyndromePlan,
    /// The per-lane algebra.
    action: AlgebraicActionFn,
    /// `batch.bch.*` telemetry handles.
    metrics: AlgebraicMetrics,
}

impl std::fmt::Debug for SlicedAlgebraic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlicedAlgebraic")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// The whole-limb bit-flipping residual stage for
/// [`SyndromeClass::Iterative`] decoders: each synchronous round is one XOR
/// reduction per low-density check plus one 3-input majority per variable,
/// shared by 64 lanes — no per-lane work at all.
#[derive(Debug, Clone)]
struct BitFlipEngine {
    /// The code's constant synchronous schedule.
    plan: BitFlipPlan,
    /// `batch.ldpc.*` telemetry handles.
    metrics: BitFlipMetrics,
}

/// What a [`BatchCodec`] does with the dirty lanes its column stage left
/// unmatched.
#[derive(Debug, Clone)]
enum Residual {
    /// Keep them flagged (`ColumnFlip` / `General`: the program already
    /// covers every correctable syndrome).
    Flag,
    /// Sliced power syndromes + per-lane algebra (`Algebraic`).
    Sliced(SlicedAlgebraic),
    /// Whole-limb synchronous bit flipping (`Iterative`).
    BitFlip(BitFlipEngine),
}

/// Telemetry handles of the sliced residual stage, registered under the
/// `batch.bch.*` names (see `docs/OBSERVABILITY.md`). Like
/// [`DecodeMetrics`], the stage accumulates into locals and the decode call
/// flushes once.
#[derive(Debug, Clone)]
struct AlgebraicMetrics {
    /// Residual lanes (each runs the per-lane algebra).
    dirty_lanes: sfq_telemetry::Counter,
    /// Residual lanes the algebra corrected.
    fallback_corrected: sfq_telemetry::Counter,
    /// Residual lanes the algebra flagged detected-uncorrectable.
    fallback_flagged: sfq_telemetry::Counter,
    /// Error-locator evaluations (applied flip bits of the closed-form
    /// solve).
    locator_evals: sfq_telemetry::Counter,
    /// Limbs that ran the bit-sliced power-syndrome accumulation.
    sliced_syndrome_limbs: sfq_telemetry::Counter,
    /// `batch.kernel.selected.sliced` — decode calls served.
    kernel_selected: sfq_telemetry::Counter,
    /// `batch.kernel.sliced.limbs` — limbs processed.
    kernel_limbs: sfq_telemetry::Counter,
}

impl AlgebraicMetrics {
    fn new() -> Self {
        let registry = sfq_telemetry::global();
        AlgebraicMetrics {
            dirty_lanes: registry.counter("batch.bch.dirty_lanes"),
            fallback_corrected: registry.counter("batch.bch.fallback_corrected"),
            fallback_flagged: registry.counter("batch.bch.fallback_flagged"),
            locator_evals: registry.counter("batch.bch.locator_evals"),
            sliced_syndrome_limbs: registry.counter("batch.bch.sliced_syndrome_limbs"),
            kernel_selected: registry.counter("batch.kernel.selected.sliced"),
            kernel_limbs: registry.counter("batch.kernel.sliced.limbs"),
        }
    }
}

/// Telemetry handles of the bit-flip residual stage, registered under the
/// `batch.ldpc.*` names (see `docs/OBSERVABILITY.md`). Accumulated in
/// locals and flushed once per decode call, like every other stage.
#[derive(Debug, Clone)]
struct BitFlipMetrics {
    /// Residual lanes.
    dirty_lanes: sfq_telemetry::Counter,
    /// Residual lanes whose checks all cleared (corrected).
    corrected: sfq_telemetry::Counter,
    /// Residual lanes still unsatisfied at the iteration cap (flagged).
    flagged: sfq_telemetry::Counter,
    /// Synchronous flip rounds executed (whole-limb each).
    rounds: sfq_telemetry::Counter,
    /// Variable flips applied (lane-bits across all rounds).
    flips: sfq_telemetry::Counter,
    /// Limbs that ran at least one flip round.
    flip_limbs: sfq_telemetry::Counter,
    /// `batch.kernel.selected.bit-flip` — decode calls served.
    kernel_selected: sfq_telemetry::Counter,
    /// `batch.kernel.bit-flip.limbs` — limbs processed.
    kernel_limbs: sfq_telemetry::Counter,
}

impl BitFlipMetrics {
    fn new() -> Self {
        let registry = sfq_telemetry::global();
        BitFlipMetrics {
            dirty_lanes: registry.counter("batch.ldpc.dirty_lanes"),
            corrected: registry.counter("batch.ldpc.corrected"),
            flagged: registry.counter("batch.ldpc.flagged"),
            rounds: registry.counter("batch.ldpc.rounds"),
            flips: registry.counter("batch.ldpc.flips"),
            flip_limbs: registry.counter("batch.ldpc.flip_limbs"),
            kernel_selected: registry.counter("batch.kernel.selected.bit-flip"),
            kernel_limbs: registry.counter("batch.kernel.bit-flip.limbs"),
        }
    }
}

/// Decode telemetry handles, registered once per codec under the
/// `batch.decode.*` names (each codec is a shard of the global registry;
/// see `docs/OBSERVABILITY.md`). The stages accumulate into plain locals
/// and [`BatchCodec::decode_batch_with`] flushes once per call, so the
/// per-limb loops see no atomics. With the `telemetry` feature off these
/// handles are zero-sized no-ops.
#[derive(Debug, Clone)]
struct DecodeMetrics {
    /// Decode calls (one per batch).
    calls: sfq_telemetry::Counter,
    /// 64-lane limbs processed.
    limbs: sfq_telemetry::Counter,
    /// Limbs that skipped matching because their syndromes (for `tree`,
    /// those of their whole chunk) were all zero.
    clean_limbs: sfq_telemetry::Counter,
    /// Lanes corrected (by the column or the residual stage).
    lanes_matched: sfq_telemetry::Counter,
    /// Lanes flagged detected-uncorrectable.
    lanes_flagged: sfq_telemetry::Counter,
    /// `batch.kernel.selected.<name>`, indexed by [`KernelChoice::index`] —
    /// decode calls each column-stage kernel served.
    kernel_selected: [sfq_telemetry::Counter; 3],
    /// `batch.kernel.<name>.limbs`, indexed by [`KernelChoice::index`] —
    /// limbs each column-stage kernel processed.
    kernel_limbs: [sfq_telemetry::Counter; 3],
    /// `batch.kernel.tree.{dense,sparse}_chunks` — dirty 256-lane chunks
    /// each tier of the `tree` kernel ran.
    tree_chunks: [sfq_telemetry::Counter; 2],
    /// Detection-only calls (one per [`BatchCodec::detect_batch_with`]).
    detect_calls: sfq_telemetry::Counter,
    /// Limbs screened by detection-only calls.
    detect_limbs: sfq_telemetry::Counter,
    /// Dirty (nonzero-syndrome) lanes found by detection-only calls.
    detect_dirty_lanes: sfq_telemetry::Counter,
}

impl DecodeMetrics {
    fn new() -> Self {
        let registry = sfq_telemetry::global();
        DecodeMetrics {
            calls: registry.counter("batch.decode.calls"),
            limbs: registry.counter("batch.decode.limbs"),
            clean_limbs: registry.counter("batch.decode.clean_limbs"),
            lanes_matched: registry.counter("batch.decode.lanes_matched"),
            lanes_flagged: registry.counter("batch.decode.lanes_flagged"),
            kernel_selected: KernelChoice::ALL
                .map(|c| registry.counter(&format!("batch.kernel.selected.{}", c.name()))),
            kernel_limbs: KernelChoice::ALL
                .map(|c| registry.counter(&format!("batch.kernel.{}.limbs", c.name()))),
            tree_chunks: ["dense", "sparse"]
                .map(|tier| registry.counter(&format!("batch.kernel.tree.{tier}_chunks"))),
            detect_calls: registry.counter("batch.detect.calls"),
            detect_limbs: registry.counter("batch.detect.limbs"),
            detect_dirty_lanes: registry.counter("batch.detect.dirty_lanes"),
        }
    }
}

impl ColumnMatchProgram {
    /// Compiles a finished entry list for the code's kernel: the flat
    /// direct-dispatch table when the syndrome fits a byte, the decision
    /// tree when it does not.
    fn new(entries: Vec<MatchEntry>, redundancy: usize) -> Self {
        let direct = (1..=8)
            .contains(&redundancy)
            .then(|| DirectTable::compile(&entries, redundancy));
        let tree = (redundancy > 8).then(|| DecisionTree::compile(&entries, redundancy));
        ColumnMatchProgram {
            entries,
            direct,
            tree,
        }
    }

    /// The direct-dispatch table (present whenever `1 ≤ r ≤ 8`, which is
    /// exactly when the kernel selection picks `direct4`/`direct8`).
    fn direct_table(&self) -> &DirectTable {
        self.direct
            .as_ref()
            .expect("r ≤ 8 programs compile a direct table")
    }
}

/// A received batch whose lane count is not the code's block length `n`:
/// the error [`BatchCodec::try_decode_batch_with`] and
/// [`BatchCodec::try_detect_batch_with`] return instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeError {
    /// The code's block length `n`.
    pub expected: usize,
    /// The received batch's lane count.
    pub got: usize,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (got, n) = (self.got, self.expected);
        write!(f, "received lanes must equal n: got {got} lanes, n = {n}")
    }
}

impl std::error::Error for ShapeError {}

/// Outcome counts of one detection-only screen
/// ([`BatchCodec::detect_batch_with`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectSummary {
    /// Messages whose syndrome was zero (delivered unchanged).
    pub clean: u64,
    /// Messages whose syndrome was nonzero (flagged for rescrub).
    pub dirty: u64,
}

/// A bit-sliced batch encoder/decoder for one short block code.
///
/// Precomputes, from the scalar code:
///
/// * the generator's column supports (for lane encoding),
/// * the parity-check rows (for lane syndromes),
/// * the per-code column-match program (the column stage) and the
///   residual stage its decoder class needs,
/// * the pivot/transform pair of [`generator_right_inverse`] (for lane
///   message extraction).
///
/// All masks are single `u128`s, so the code must satisfy `n ≤`
/// [`MAX_BLOCK_LENGTH`]; there is no constraint on the redundancy.
#[derive(Debug, Clone)]
pub struct BatchCodec {
    name: String,
    n: usize,
    k: usize,
    /// `encode_masks[j]`: support of generator column `j` over message bits.
    encode_masks: Vec<u128>,
    /// `syndrome_masks[t]`: support of parity-check row `t` over codeword bits.
    syndrome_masks: Vec<u128>,
    /// The column stage.
    program: ColumnMatchProgram,
    /// The residual stage.
    residual: Residual,
    /// `extract_masks[j]`: support over codeword bits whose parity is message
    /// bit `j` (from the generator's right inverse).
    extract_masks: Vec<u128>,
    /// Decode telemetry (write-only; never affects results).
    metrics: DecodeMetrics,
}

impl BatchCodec {
    /// Builds the batch engine for a scalar code + hard decoder whose
    /// corrections are all table lookups: `ColumnFlip` decoders compile
    /// straight from the columns of `H` (no syndrome-space enumeration, so
    /// the redundancy is unlimited); `General` decoders are interrogated
    /// once per syndrome value.
    ///
    /// # Panics
    /// Panics if the code exceeds `n ≤ 128` (masks are single `u128`s), if
    /// the parity-check matrix does not have full row rank, if a
    /// `ColumnFlip` decoder fails its per-column scalar probe, or if the
    /// decoder declares [`SyndromeClass::Algebraic`] (build those with
    /// [`BatchCodec::with_sliced_algebraic`]) or
    /// [`SyndromeClass::Iterative`] (build those with
    /// [`BatchCodec::with_bit_flip`]).
    #[must_use]
    pub fn new<C: BlockCode + HardDecoder>(code: &C) -> Self {
        match code.syndrome_class() {
            SyndromeClass::ColumnFlip | SyndromeClass::General => {}
            SyndromeClass::Algebraic => panic!(
                "{}: algebraic decoders correct more than the columns of H; build with \
                 BatchCodec::with_sliced_algebraic (registry members are one \
                 BatchCodec::bch_spec call away)",
                code.name()
            ),
            SyndromeClass::Iterative => panic!(
                "{}: iterative decoders correct by synchronous flip rounds, not \
                 per-syndrome lookup; build with BatchCodec::with_bit_flip",
                code.name()
            ),
        }
        Self::build(code, Residual::Flag)
    }

    /// Builds the batch engine for a [`SyndromeClass::Algebraic`] decoder
    /// that implements [`AlgebraicDecode`]: the shared column stage corrects
    /// the single-error lanes, and for the residual lanes odd power
    /// syndromes are accumulated **bit-sliced across each limb** (shared by
    /// up to 64 lanes; even powers follow from the Frobenius square) so only
    /// the per-lane algebra — Berlekamp–Massey plus the closed-form locator
    /// root solve — runs per residual lane, with its syndromes supplied for
    /// free. This is the engine behind [`BatchCodec::bch`].
    ///
    /// # Panics
    /// Panics under the same size/rank conditions as [`BatchCodec::new`],
    /// or if the scalar decoder does not correct a single-bit error at some
    /// position by flipping exactly that position.
    #[must_use]
    pub fn with_sliced_algebraic<C>(code: &C) -> Self
    where
        C: BlockCode + AlgebraicDecode + Clone + Send + Sync + 'static,
    {
        let owned = code.clone();
        Self::build(
            code,
            Residual::Sliced(SlicedAlgebraic {
                plan: code.sliced_syndrome_plan(),
                action: Arc::new(move |synd: &[u16], full: u128| owned.decode_action(synd, full)),
                metrics: AlgebraicMetrics::new(),
            }),
        )
    }

    /// Builds the batch engine for a [`SyndromeClass::Iterative`] decoder
    /// that implements [`IterativeDecode`]: the shared column stage corrects
    /// the single-error lanes, and the code's synchronous bit-flip schedule
    /// runs **whole-limb bit-sliced** over the residual lanes — each round
    /// is one XOR reduction per low-density check plus one 3-input majority
    /// per variable, shared by up to 64 lanes, so even an all-dirty limb
    /// never unpacks a lane. This is the engine behind [`BatchCodec::ldpc`].
    ///
    /// # Panics
    /// Panics under the same conditions as
    /// [`BatchCodec::with_sliced_algebraic`], or if the plan fails
    /// [`BitFlipPlan::validate`].
    #[must_use]
    pub fn with_bit_flip<C>(code: &C) -> Self
    where
        C: BlockCode + IterativeDecode,
    {
        let plan = code.bit_flip_plan();
        plan.validate();
        assert!(
            plan.check_supports.len() <= 64,
            "{}: bit-flip parity slices are a fixed 64-entry array",
            code.name()
        );
        Self::build(
            code,
            Residual::BitFlip(BitFlipEngine {
                plan,
                metrics: BitFlipMetrics::new(),
            }),
        )
    }

    /// Shared constructor body: masks, the column-match program, and
    /// extraction lanes.
    fn build<C: BlockCode + HardDecoder>(code: &C, residual: Residual) -> Self {
        let (n, k) = (code.n(), code.k());
        assert!(
            n <= MAX_BLOCK_LENGTH,
            "batch codec masks are u128: n <= {MAX_BLOCK_LENGTH} (got {n})"
        );
        assert!(k <= n, "k must not exceed n");
        let redundancy = n - k;

        let g = code.generator();
        let encode_masks: Vec<u128> = (0..n).map(|j| column_mask(g, j)).collect();

        let h = code.parity_check();
        let syndrome_masks: Vec<u128> = (0..redundancy).map(|t| row_mask(h, t)).collect();

        let entries = if redundancy == 0 {
            // No parity: every word is a codeword, nothing to correct or
            // detect.
            Vec::new()
        } else if code.syndrome_class() == SyndromeClass::General {
            interrogated_entries(code)
        } else {
            column_entries(code)
        };
        let program = ColumnMatchProgram::new(entries, redundancy);

        let (pivots, transform) = generator_right_inverse(g);
        let extract_masks: Vec<u128> = (0..k)
            .map(|j| {
                pivots
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| transform.get(i, j))
                    .fold(0u128, |mask, (_, &p)| mask | (1u128 << p))
            })
            .collect();

        BatchCodec {
            name: format!("batch[{}]", code.name()),
            n,
            k,
            encode_masks,
            syndrome_masks,
            program,
            residual,
            extract_masks,
            metrics: DecodeMetrics::new(),
        }
    }

    /// The kernels a decode of a batch of any length runs: the
    /// column-stage kernel (`direct4`, `direct8`, or `tree`), joined with
    /// `+` to the residual stage where there is one (`sliced`,
    /// `bit-flip`) — e.g. `tree+sliced`. `none` when `r = 0`: there is
    /// nothing to match. The choice depends on the code alone: `_batch` is
    /// unused, and kept only so the benchmark harness (`sfqbench`) still
    /// builds. Used by benches and reports; decode results never depend on
    /// it.
    #[must_use]
    pub fn selected_kernel_name(&self, _batch: usize) -> String {
        let column = kernel::select(self.syndrome_masks.len()).map_or("none", KernelChoice::name);
        match &self.residual {
            Residual::Flag => column.to_owned(),
            Residual::Sliced(_) => format!("{column}+sliced"),
            Residual::BitFlip(_) => format!("{column}+bit-flip"),
        }
    }

    /// Batch engine for the Hamming(7,4) code.
    #[must_use]
    pub fn hamming74() -> Self {
        Self::new(&Hamming74::new())
    }

    /// Batch engine for the extended Hamming(8,4) code.
    #[must_use]
    pub fn hamming84() -> Self {
        Self::new(&Hamming84::new())
    }

    /// Batch engine for the RM(1,3) code (tie-detecting decoder).
    #[must_use]
    pub fn rm13() -> Self {
        Self::new(&Rm13::new())
    }

    /// Batch engine for a repetition code.
    #[must_use]
    pub fn repetition(k: usize, factor: usize) -> Self {
        Self::new(&Repetition::new(k, factor))
    }

    /// Batch engine for uncoded transmission.
    #[must_use]
    pub fn uncoded(k: usize) -> Self {
        Self::new(&Uncoded::new(k))
    }

    /// Batch engine for the SEC-DED family member with `2^m` data bits
    /// (`m = 6` is the wide (72,64) code).
    #[must_use]
    pub fn sec_ded(m: usize) -> Self {
        Self::new(&SecDed::new(m))
    }

    /// Batch engine for the wide Shortened Hamming(85,64) demonstration code
    /// — 21 syndrome lanes, beyond any tabulable syndrome space.
    #[must_use]
    pub fn wide_hamming_85_64() -> Self {
        Self::new(&ShortenedHamming::wide_85_64())
    }

    /// Batch engine for the multi-error BCH(31,16) code (`t = 2`,
    /// `d_min = 7`): the shared column stage for single errors, then
    /// bit-sliced power-syndrome accumulation and per-lane Berlekamp–Massey
    /// + closed-form locator solve on the residual lanes only.
    #[must_use]
    pub fn bch() -> Self {
        Self::bch_spec(BchSpec::BCH_31_16)
    }

    /// Batch engine for any registry BCH member (see [`BchSpec::REGISTRY`]):
    /// the sliced-syndrome engine parameterized by `(m, t, decode_radius)`.
    #[must_use]
    pub fn bch_spec(spec: BchSpec) -> Self {
        Self::with_sliced_algebraic(&Bch::from_spec(spec))
    }

    /// Batch engine for the BCH(63,51) registry member (`t = 2`).
    #[must_use]
    pub fn bch_63_51() -> Self {
        Self::bch_spec(BchSpec::BCH_63_51)
    }

    /// Batch engine for the BCH(63,45) registry member (`t = 3`) — the
    /// strongest algebraic code in the catalog.
    #[must_use]
    pub fn bch_63_45() -> Self {
        Self::bch_spec(BchSpec::BCH_63_45)
    }

    /// Batch engine for the regular Gallager LDPC(60,32) code: the shared
    /// column stage for single errors, then whole-limb synchronous bit
    /// flipping with no per-lane region even on all-dirty limbs.
    #[must_use]
    pub fn ldpc() -> Self {
        Self::with_bit_flip(&Ldpc::gallager_60_32())
    }

    /// Human-readable name, derived from the scalar code's.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of compiled match entries: `n` for codes compiled from the
    /// columns of `H`, one per correctable syndrome for `General` codes,
    /// zero when `r = 0`.
    #[must_use]
    pub fn program_len(&self) -> usize {
        self.program.entries.len()
    }

    /// Detection-only decode: computes the syndrome batch and classifies
    /// each message as clean (zero syndrome) or dirty (nonzero), **without
    /// running any correction stage** — no column matching, no per-lane
    /// algebra, no message extraction. This is the degraded decode mode of
    /// the streaming scrub service (`sfq-stream`): under overload a
    /// SEC-DED-class code stops correcting and merely *detects*, delivering
    /// clean words unchanged and flagging dirty ones for rescrub at a
    /// fraction of the full-decode cost.
    ///
    /// `dirty` receives one limb per 64 messages (bit `i % 64` of limb
    /// `i / 64` set when message `i` has a nonzero syndrome), re-shaped in
    /// place like every other `_with` buffer. Note the semantics are weaker
    /// than a full decode on purpose: a dirty lane may carry a *correctable*
    /// error — detection-only mode trades that correction away for latency.
    ///
    /// # Panics
    /// Panics if `received.bits() != self.n()`; a service that screens
    /// untrusted frames calls [`BatchCodec::try_detect_batch_with`].
    pub fn detect_batch_with(
        &self,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        dirty: &mut Vec<u64>,
    ) -> DetectSummary {
        self.try_detect_batch_with(received, scratch, dirty)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BatchCodec::detect_batch_with`] that returns a [`ShapeError`]
    /// instead of panicking when `received.bits() != self.n()`; nothing is
    /// screened and `dirty` is left untouched.
    ///
    /// # Errors
    /// [`ShapeError`] when the batch's lane count is not `n`.
    pub fn try_detect_batch_with(
        &self,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        dirty: &mut Vec<u64>,
    ) -> Result<DetectSummary, ShapeError> {
        self.check_shape(received)?;
        let redundancy = self.syndrome_masks.len();
        let words = received.words();
        let tail = received.tail_mask();

        self.syndrome_batch_into(received, &mut scratch.syndromes);
        if scratch.gather.len() < redundancy {
            scratch.gather.resize(redundancy, 0);
        }
        dirty.clear();
        dirty.resize(words, 0);

        let mut dirty_lanes = 0u64;
        for (w, slot) in dirty.iter_mut().enumerate() {
            let valid = if w + 1 == words { tail } else { u64::MAX };
            let gather = &mut scratch.gather[..redundancy];
            scratch.syndromes.gather_word(w, gather);
            let mask = or_reduce(gather) & valid;
            *slot = mask;
            dirty_lanes += u64::from(mask.count_ones());
        }

        self.metrics.detect_calls.inc();
        self.metrics.detect_limbs.add(words as u64);
        self.metrics.detect_dirty_lanes.add(dirty_lanes);

        Ok(DetectSummary {
            clean: received.batch() as u64 - dirty_lanes,
            dirty: dirty_lanes,
        })
    }

    /// [`BatchDecode::decode_batch_with`] that returns a [`ShapeError`]
    /// instead of panicking when `received.bits() != self.n()`; nothing is
    /// decoded and `out` is left untouched. The panicking form calls this.
    ///
    /// This is the decode pipeline (see the crate docs): syndrome, the
    /// shared column stage, the per-class residual stage, one stats flush,
    /// and message extraction.
    ///
    /// # Errors
    /// [`ShapeError`] when the batch's lane count is not `n`.
    pub fn try_decode_batch_with(
        &self,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        out: &mut BatchDecoded,
    ) -> Result<(), ShapeError> {
        self.check_shape(received)?;
        let words = received.words();

        self.syndrome_batch_into(received, &mut scratch.syndromes);
        out.codewords.copy_from(received);
        out.flagged.clear();
        out.flagged.resize(words, 0);
        out.corrected.clear();
        out.corrected.resize(words, 0);

        // Column stage: matched lanes are corrected, unmatched dirty lanes
        // flagged. Telemetry accumulates in locals and flushes once below,
        // so the limb loops perform no atomic operations.
        let mut stats = KernelStats::default();
        let column = kernel::select(self.syndrome_masks.len());
        let syndromes = &scratch.syndromes;
        match column {
            None => stats.clean_limbs = words as u64,
            Some(KernelChoice::Direct4) => {
                run_direct4(self.program.direct_table(), syndromes, out, &mut stats);
            }
            Some(KernelChoice::Direct8) => {
                run_direct8(self.program.direct_table(), syndromes, out, &mut stats);
            }
            Some(KernelChoice::Tree) => {
                let tree = (self.program.tree.as_ref()).expect("r > 8 programs compile a tree");
                let buffer = &mut scratch.gather;
                run_tree(tree, syndromes, buffer, out, &mut stats, tree.sparse_below);
            }
        }

        // Residual stage: only the lanes the column stage left flagged.
        let mut sliced = SlicedStats::default();
        let mut flip = BitFlipStats::default();
        match &self.residual {
            Residual::Flag => {}
            Residual::Sliced(engine) => {
                let action = engine.action.as_ref();
                run_sliced(&engine.plan, action, received, syndromes, out, &mut sliced);
            }
            Residual::BitFlip(engine) => run_bit_flip(&engine.plan, received, out, &mut flip),
        }

        // One stats flush. Residual corrections turn lanes the column stage
        // flagged into corrected ones.
        let residual_corrected = sliced.corrected + flip.corrected;
        self.metrics.calls.inc();
        self.metrics.limbs.add(words as u64);
        self.metrics.clean_limbs.add(stats.clean_limbs);
        self.metrics
            .lanes_matched
            .add(stats.lanes_matched + residual_corrected);
        self.metrics
            .lanes_flagged
            .add(stats.lanes_flagged - residual_corrected);
        if let Some(choice) = column {
            self.metrics.kernel_selected[choice.index()].inc();
            self.metrics.kernel_limbs[choice.index()].add(words as u64);
        }
        self.metrics.tree_chunks[0].add(stats.dense_chunks);
        self.metrics.tree_chunks[1].add(stats.sparse_chunks);
        match &self.residual {
            Residual::Flag => {}
            Residual::Sliced(engine) => {
                let m = &engine.metrics;
                m.dirty_lanes.add(sliced.dirty_lanes);
                m.fallback_corrected.add(sliced.corrected);
                m.fallback_flagged.add(sliced.flagged);
                m.locator_evals.add(sliced.locator_evals);
                m.sliced_syndrome_limbs.add(sliced.sliced_limbs);
                m.kernel_selected.inc();
                m.kernel_limbs.add(words as u64);
            }
            Residual::BitFlip(engine) => {
                let m = &engine.metrics;
                m.dirty_lanes.add(flip.dirty_lanes);
                m.corrected.add(flip.corrected);
                m.flagged.add(flip.flagged);
                m.rounds.add(flip.rounds);
                m.flips.add(flip.flips);
                m.flip_limbs.add(flip.flip_limbs);
                m.kernel_selected.inc();
                m.kernel_limbs.add(words as u64);
            }
        }

        self.extract_message_lanes(received.batch(), out);
        Ok(())
    }

    /// `Ok` when `received` has one lane per codeword position.
    fn check_shape(&self, received: &BitSlice64) -> Result<(), ShapeError> {
        let (expected, got) = (self.n, received.bits());
        (got == expected)
            .then_some(())
            .ok_or(ShapeError { expected, got })
    }

    /// Allocating convenience form of [`BatchCodec::detect_batch_with`].
    ///
    /// # Panics
    /// Panics if `received.bits() != self.n()`.
    #[must_use]
    pub fn detect_batch(&self, received: &BitSlice64) -> (Vec<u64>, DetectSummary) {
        let mut scratch = BatchScratch::new();
        let mut dirty = Vec::new();
        let summary = self.detect_batch_with(received, &mut scratch, &mut dirty);
        (dirty, summary)
    }

    /// Message lanes: parity of the extraction support over the corrected
    /// codeword lanes, masked out at flagged positions.
    fn extract_message_lanes(&self, batch: usize, out: &mut BatchDecoded) {
        out.messages.reset(self.k, batch);
        for (j, &mask) in self.extract_masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                out.messages.xor_lane_from(j, &out.codewords, p);
                m &= m - 1;
            }
            let lane = out.messages.lane_mut(j);
            for (l, &f) in lane.iter_mut().zip(out.flagged.iter()) {
                *l &= !f;
            }
        }
    }
}

impl BatchEncode for BatchCodec {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn encode_batch(&self, messages: &BitSlice64) -> BitSlice64 {
        let mut out = BitSlice64::default();
        self.encode_batch_into(messages, &mut out);
        out
    }

    fn encode_batch_into(&self, messages: &BitSlice64, codewords: &mut BitSlice64) {
        assert_eq!(messages.bits(), self.k, "message lanes must equal k");
        codewords.reset(self.n, messages.batch());
        for (j, &mask) in self.encode_masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                codewords.xor_lane_from(j, messages, i);
                m &= m - 1;
            }
        }
    }
}

impl BatchDecode for BatchCodec {
    fn syndrome_batch(&self, received: &BitSlice64) -> BitSlice64 {
        let mut out = BitSlice64::default();
        self.syndrome_batch_into(received, &mut out);
        out
    }

    fn syndrome_batch_into(&self, received: &BitSlice64, syndromes: &mut BitSlice64) {
        assert_eq!(received.bits(), self.n, "received lanes must equal n");
        syndromes.reset(self.syndrome_masks.len(), received.batch());
        for (t, &mask) in self.syndrome_masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                syndromes.xor_lane_from(t, received, p);
                m &= m - 1;
            }
        }
    }

    fn decode_batch(&self, received: &BitSlice64) -> BatchDecoded {
        let mut scratch = BatchScratch::new();
        let mut out = BatchDecoded::empty();
        self.decode_batch_with(received, &mut scratch, &mut out);
        out
    }

    /// Runs [`BatchCodec::try_decode_batch_with`], panicking on a
    /// [`ShapeError`].
    fn decode_batch_with(
        &self,
        received: &BitSlice64,
        scratch: &mut BatchScratch,
        out: &mut BatchDecoded,
    ) {
        self.try_decode_batch_with(received, scratch, out)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Support of generator column `j` as a mask over message-bit indices.
fn column_mask(g: &BitMat, j: usize) -> u128 {
    (0..g.rows()).fold(0u128, |mask, i| {
        if g.get(i, j) {
            mask | (1u128 << i)
        } else {
            mask
        }
    })
}

/// Support of parity-check row `t` as a mask over codeword positions.
fn row_mask(h: &BitMat, t: usize) -> u128 {
    (0..h.cols()).fold(0u128, |mask, p| {
        if h.get(t, p) {
            mask | (1u128 << p)
        } else {
            mask
        }
    })
}

/// Compiles the column stage straight from the parity-check matrix: one
/// entry per codeword position, matching the position's column and flipping
/// that single bit. Unmatched syndromes are the complement and need no
/// entries (flagged, or handed to the residual stage).
///
/// Construction cost is `O(n · r)` plus one scalar probe per position. A
/// syndrome equal to column `j` puts the word in the coset of `e_j`, and
/// the probe checks that the scalar decoder answers that coset with "flip
/// `j`" — so a decoder that would not fails loudly here rather than
/// producing a silently divergent batch engine.
///
/// # Panics
/// Panics if `H` has a zero or duplicated column (single errors must be
/// distinguishable, `d_min ≥ 3`), or if the scalar decoder's response to a
/// single-bit error is not "flip exactly that bit".
fn column_entries<C: BlockCode + HardDecoder>(code: &C) -> Vec<MatchEntry> {
    let n = code.n();
    let h = code.parity_check();
    let mut entries: Vec<MatchEntry> = Vec::with_capacity(n);
    for j in 0..n {
        let pattern = h.col(j).to_u128();
        assert_ne!(
            pattern, 0,
            "H column {j} is zero: single errors must be detectable"
        );
        assert!(
            entries.iter().all(|e| e.pattern != pattern),
            "H column {j} duplicates another column: single errors must be distinguishable"
        );
        // Probe: the scalar decoder must answer a single-bit error at `j`
        // by flipping exactly `j` (i.e. decode e_j back to the zero word).
        let mut e_j = BitVec::zeros(n);
        e_j.set(j, true);
        let decoded = code.decode(&e_j);
        let corrected_to_zero = decoded
            .codeword
            .as_ref()
            .is_some_and(|cw| cw.is_zero() && decoded.outcome.corrected());
        assert!(
            corrected_to_zero,
            "{}: scalar decoder does not flip position {j} on syndrome H[:,{j}] — \
             the column stage would diverge from it",
            code.name()
        );
        entries.push(MatchEntry {
            pattern,
            flip: 1u128 << j,
        });
    }
    entries
}

/// Compiles a [`SyndromeClass::General`] decoder by interrogating it once
/// per syndrome value and recording an entry for every syndrome it corrects
/// (detected syndromes are the complement and need no entries).
///
/// For each syndrome `s`, a representative received word with that syndrome
/// is constructed from the row-reduced parity-check matrix: row-reducing
/// `[H | I_{n-k}]` gives `[R | T]` with `R = T·H` and pivot columns `p_i`;
/// the word `r = Σ_i (T·s)_i · e_{p_i}` satisfies `H·r = s`. The decoder's
/// response to `r` — flip pattern or error flag — is the action for every
/// word in that coset.
///
/// # Panics
/// Panics if `H` does not have full row rank, or if the redundancy exceeds
/// 28 — this builder enumerates all `2^(n-k)` syndromes, which is a property
/// of general coset decoders, not of the batch engine; wide-redundancy codes
/// must provide a [`SyndromeClass::ColumnFlip`] decoder instead.
fn interrogated_entries<C: BlockCode + HardDecoder>(code: &C) -> Vec<MatchEntry> {
    let n = code.n();
    let redundancy = n - code.k();
    assert!(
        redundancy <= 28,
        "{}: general-class decoders are compiled by enumerating all 2^(n-k) syndromes, \
         which is impractical at n-k = {redundancy}; implement SyndromeClass::ColumnFlip \
         (or another structural class) for this decoder",
        code.name()
    );
    let table_len = 1u64 << redundancy;

    let h = code.parity_check();
    let augmented = h.hconcat(&BitMat::identity(redundancy));
    let (reduced, pivots) = augmented.rref();
    assert_eq!(pivots.len(), redundancy, "H must have full row rank");
    assert!(
        pivots.iter().all(|&p| p < n),
        "H pivots must be data columns"
    );
    // Row `i` of the transform `T`, as a BitVec for the dot products below.
    let t_rows: Vec<BitVec> = (0..redundancy)
        .map(|i| (0..redundancy).map(|t| reduced.get(i, n + t)).collect())
        .collect();

    let mut entries = Vec::new();
    for s in 1..table_len {
        let syndrome = BitVec::from_u64(redundancy, s);
        // a = T · s, then r = Σ a_i e_{p_i}.
        let mut representative = BitVec::zeros(n);
        for (i, &p) in pivots.iter().enumerate() {
            if t_rows[i].dot(&syndrome) {
                representative.set(p, true);
            }
        }
        debug_assert_eq!(code.syndrome(&representative), syndrome);

        let decoded = code.decode(&representative);
        match decoded.outcome {
            DecodeOutcome::DetectedUncorrectable => {} // handled by complement
            _ => {
                let codeword = decoded
                    .codeword
                    .expect("non-detected decode must produce a codeword");
                let flip = (&representative ^ &codeword).to_u128();
                debug_assert_ne!(flip, 0, "nonzero syndrome must flip something");
                entries.push(MatchEntry {
                    pattern: u128::from(s),
                    flip,
                });
            }
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_messages(k: usize, batch: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..batch)
            .map(|_| BitVec::from_u64(k, rng.random_range(0..(1u64 << k))))
            .collect()
    }

    #[test]
    fn encode_batch_matches_scalar_for_all_paper_codes() {
        type ScalarEncode = Box<dyn Fn(&BitVec) -> BitVec>;
        let cases: Vec<(BatchCodec, ScalarEncode)> = vec![
            (BatchCodec::hamming74(), {
                let c = Hamming74::new();
                Box::new(move |m| c.encode(m))
            }),
            (BatchCodec::hamming84(), {
                let c = Hamming84::new();
                Box::new(move |m| c.encode(m))
            }),
            (BatchCodec::rm13(), {
                let c = Rm13::new();
                Box::new(move |m| c.encode(m))
            }),
            (BatchCodec::repetition(4, 2), {
                let c = Repetition::new(4, 2);
                Box::new(move |m| c.encode(m))
            }),
            (BatchCodec::uncoded(4), {
                let c = Uncoded::new(4);
                Box::new(move |m| c.encode(m))
            }),
        ];
        for (codec, scalar) in cases {
            let messages = random_messages(codec.k(), 130, 7);
            let batch = BitSlice64::pack(&messages);
            let encoded = codec.encode_batch(&batch).unpack();
            for (m, cw) in messages.iter().zip(&encoded) {
                assert_eq!(cw, &scalar(m), "{}", codec.name());
            }
        }
    }

    #[test]
    fn syndrome_batch_matches_scalar() {
        let code = Hamming84::new();
        let codec = BatchCodec::hamming84();
        let mut rng = StdRng::seed_from_u64(11);
        let words: Vec<BitVec> = (0..100)
            .map(|_| BitVec::from_u64(8, rng.random_range(0..256)))
            .collect();
        let batch = BitSlice64::pack(&words);
        let syndromes = codec.syndrome_batch(&batch);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(syndromes.extract(i), code.syndrome(w), "word {i}");
        }
    }

    #[test]
    fn decode_batch_roundtrips_clean_codewords() {
        let codec = BatchCodec::hamming84();
        let messages = random_messages(4, 96, 3);
        let batch = BitSlice64::pack(&messages);
        let decoded = codec.decode_batch(&codec.encode_batch(&batch));
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.corrected_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);
    }

    #[test]
    fn decode_batch_corrects_single_errors_and_flags_doubles() {
        let codec = BatchCodec::hamming84();
        let messages = random_messages(4, 64, 9);
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));
        // Message i gets a 1-bit error at position i % 8; messages 5 and 6
        // additionally get a second error (-> double, must be flagged).
        let mut received = clean.clone();
        for i in 0..64 {
            received.set(i, i % 8, !received.get(i, i % 8));
        }
        for &i in &[5usize, 6] {
            let pos = (i + 1) % 8;
            received.set(i, pos, !received.get(i, pos));
        }
        let decoded = codec.decode_batch(&received);
        for (i, message) in messages.iter().enumerate() {
            if i == 5 || i == 6 {
                assert!(decoded.is_flagged(i), "message {i} must be flagged");
            } else {
                assert!(!decoded.is_flagged(i));
                assert!(decoded.is_corrected(i));
                assert_eq!(decoded.messages.extract(i), *message, "message {i}");
            }
        }
        assert_eq!(decoded.flagged_count(), 2);
    }

    /// Detection-only screening agrees with the full decode on every code
    /// family: a lane is dirty exactly when the full decoder either corrects
    /// or flags it (zero syndrome ⇔ untouched codeword), for ragged batches
    /// and across every residual stage (flag, sliced algebraic, bit-flip).
    #[test]
    fn detect_batch_matches_full_decode_classification() {
        for codec in [
            BatchCodec::sec_ded(3),
            BatchCodec::hamming84(),
            BatchCodec::bch(),
            BatchCodec::bch_63_45(),
            BatchCodec::ldpc(),
        ] {
            let batch = 190usize;
            let msgs = random_messages(codec.k(), batch, 21);
            let mut received = codec.encode_batch(&BitSlice64::pack(&msgs));
            // Sprinkle deterministic errors: single flips, double flips, and
            // untouched lanes.
            let mut rng = StdRng::seed_from_u64(33);
            for i in (0..batch).step_by(3) {
                let p = rng.random_range(0..codec.n());
                received.set(i, p, !received.get(i, p));
                if i % 6 == 0 {
                    let q = (p + 1) % codec.n();
                    received.set(i, q, !received.get(i, q));
                }
            }

            let (dirty, summary) = codec.detect_batch(&received);
            let decoded = codec.decode_batch(&received);
            for (w, mask) in dirty.iter().enumerate() {
                assert_eq!(
                    *mask,
                    decoded.corrected[w] | decoded.flagged[w],
                    "{}: limb {w} dirty mask must equal corrected|flagged",
                    codec.name()
                );
            }
            let expect_dirty = (decoded.corrected_count() + decoded.flagged_count()) as u64;
            assert_eq!(summary.dirty, expect_dirty, "{}", codec.name());
            assert_eq!(summary.clean + summary.dirty, batch as u64);
        }
    }

    #[test]
    fn detect_batch_reuses_scratch_without_allocating_results() {
        let codec = BatchCodec::sec_ded(6);
        let messages = random_messages(63, 200, 5);
        let padded: Vec<BitVec> = messages
            .iter()
            .map(|m| {
                let mut v = BitVec::zeros(64);
                for b in 0..63 {
                    v.set(b, m.get(b));
                }
                v
            })
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&padded));
        let mut scratch = BatchScratch::new();
        let mut dirty = Vec::new();
        let summary = codec.detect_batch_with(&clean, &mut scratch, &mut dirty);
        assert_eq!(
            summary,
            DetectSummary {
                clean: 200,
                dirty: 0
            }
        );
        assert!(dirty.iter().all(|&m| m == 0));
        // A second call with one corrupted lane re-shapes the same buffers.
        let mut received = clean.clone();
        received.set(130, 7, !received.get(130, 7));
        let summary = codec.detect_batch_with(&received, &mut scratch, &mut dirty);
        assert_eq!(
            summary,
            DetectSummary {
                clean: 199,
                dirty: 1
            }
        );
        assert_eq!(dirty[130 / 64], 1u64 << (130 % 64));
    }

    #[test]
    fn checked_entry_points_reject_a_wrong_lane_count() {
        let codec = BatchCodec::sec_ded(6);
        let (mut scratch, mut out, mut dirty) =
            (BatchScratch::new(), BatchDecoded::empty(), vec![7]);
        for got in [71, 73] {
            let malformed = BitSlice64::zeros(got, 100);
            let expected = ShapeError { expected: 72, got };
            let decode = codec.try_decode_batch_with(&malformed, &mut scratch, &mut out);
            assert_eq!(decode, Err(expected));
            let detect = codec.try_detect_batch_with(&malformed, &mut scratch, &mut dirty);
            assert_eq!(detect, Err(expected));
        }
        // Nothing was decoded or screened.
        assert_eq!((out, dirty), (BatchDecoded::empty(), vec![7]));
    }

    #[test]
    fn uncoded_codec_passes_everything_through() {
        let codec = BatchCodec::uncoded(4);
        let messages = random_messages(4, 70, 21);
        let batch = BitSlice64::pack(&messages);
        let encoded = codec.encode_batch(&batch);
        assert_eq!(encoded.unpack(), messages);
        let decoded = codec.decode_batch(&encoded);
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);
    }

    #[test]
    fn repetition_decode_matches_majority_vote() {
        let scalar = Repetition::new(2, 3);
        let codec = BatchCodec::repetition(2, 3);
        // All 64 possible received words of the (6,2) code.
        let words: Vec<BitVec> = (0u64..64).map(|w| BitVec::from_u64(6, w)).collect();
        let decoded = codec.decode_batch(&BitSlice64::pack(&words));
        for (i, w) in words.iter().enumerate() {
            let reference = scalar.decode(w);
            match reference.outcome {
                DecodeOutcome::DetectedUncorrectable => assert!(decoded.is_flagged(i)),
                _ => {
                    assert!(!decoded.is_flagged(i));
                    assert_eq!(Some(decoded.messages.extract(i)), reference.message);
                }
            }
        }
    }

    #[test]
    fn partial_last_limb_batches_are_handled() {
        let codec = BatchCodec::hamming74();
        for batch_size in [1usize, 63, 65, 127] {
            let messages = random_messages(4, batch_size, batch_size as u64);
            let clean = codec.encode_batch(&BitSlice64::pack(&messages));
            let mut received = clean.clone();
            if batch_size > 2 {
                received.set(batch_size - 1, 3, !received.get(batch_size - 1, 3));
            }
            let decoded = codec.decode_batch(&received);
            assert_eq!(decoded.messages.unpack().len(), batch_size);
            for (i, m) in messages.iter().enumerate() {
                assert_eq!(
                    decoded.messages.extract(i),
                    *m,
                    "batch {batch_size} msg {i}"
                );
            }
        }
    }

    #[test]
    fn codec_reports_code_parameters() {
        let codec = BatchCodec::hamming84();
        assert_eq!((codec.n(), codec.k()), (8, 4));
        assert!(codec.name().contains("Hamming(8,4)"));
    }

    #[test]
    fn column_flip_codes_compile_to_n_entries() {
        // Programs compiled from the columns of H have exactly one entry per
        // codeword position, independent of the syndrome-space size — the
        // algebraic and iterative codecs' shared column stage included.
        assert_eq!(BatchCodec::hamming74().program_len(), 7);
        assert_eq!(BatchCodec::hamming84().program_len(), 8);
        assert_eq!(BatchCodec::rm13().program_len(), 8);
        assert_eq!(BatchCodec::sec_ded(6).program_len(), 72);
        assert_eq!(BatchCodec::wide_hamming_85_64().program_len(), 85);
        assert_eq!(BatchCodec::bch().program_len(), 31);
        assert_eq!(BatchCodec::bch_63_45().program_len(), 63);
        assert_eq!(BatchCodec::ldpc().program_len(), 60);
        // The r = 0 degenerate case has nothing to match.
        assert_eq!(BatchCodec::uncoded(4).program_len(), 0);
        // General-class codes keep interrogated entries (correctable
        // syndromes only): the (8,4) factor-2 repetition code corrects
        // nothing (every disagreement is a tie), the (6,2) factor-3 code
        // corrects every nonzero syndrome.
        assert_eq!(BatchCodec::repetition(4, 2).program_len(), 0);
        assert_eq!(BatchCodec::repetition(2, 3).program_len(), 15);
    }

    /// A column stage's starting point: the received words, no lane marked.
    fn column_output(received: &BitSlice64) -> BatchDecoded {
        let mut out = BatchDecoded::empty();
        out.codewords.copy_from(received);
        out.flagged = vec![0; received.words()];
        out.corrected = vec![0; received.words()];
        out
    }

    /// The brute-force column stage, lane by lane: a syndrome equal to an
    /// entry's pattern flips that entry's mask and marks the lane
    /// corrected, a zero syndrome accepts, and anything else is flagged.
    fn brute_force_column_stage(
        entries: &[MatchEntry],
        syndromes: &BitSlice64,
        received: &BitSlice64,
    ) -> BatchDecoded {
        let mut out = column_output(received);
        for lane in 0..received.batch() {
            let key = (0..syndromes.bits()).fold(0u128, |key, t| {
                key | (u128::from(syndromes.get(lane, t)) << t)
            });
            let bit = 1u64 << (lane % 64);
            match entries.iter().find(|e| e.pattern == key) {
                _ if key == 0 => {}
                Some(entry) => {
                    out.corrected[lane / 64] |= bit;
                    for p in (0..received.bits()).filter(|&p| (entry.flip >> p) & 1 == 1) {
                        out.codewords.set(lane, p, !out.codewords.get(lane, p));
                    }
                }
                None => out.flagged[lane / 64] |= bit,
            }
        }
        out
    }

    /// Every column-stage run forced on `syndromes`, whatever the selection
    /// would pick: both tree tiers always (a program with `r ≤ 8` compiles
    /// a tree here), and direct4/direct8 where `r` fits.
    fn forced_column_stages(
        program: &ColumnMatchProgram,
        syndromes: &BitSlice64,
        received: &BitSlice64,
    ) -> Vec<(&'static str, BatchDecoded)> {
        let r = syndromes.bits();
        let tree =
            (program.tree.clone()).unwrap_or_else(|| DecisionTree::compile(&program.entries, r));
        let (mut stats, mut masks, mut runs) = (KernelStats::default(), Vec::new(), Vec::new());
        for (tier, sparse_below) in [("tree dense", 0), ("tree sparse", 257)] {
            let mut out = column_output(received);
            run_tree(
                &tree,
                syndromes,
                &mut masks,
                &mut out,
                &mut stats,
                sparse_below,
            );
            runs.push((tier, out));
        }
        if let Some(table) = &program.direct {
            let mut out = column_output(received);
            if r <= 4 {
                run_direct4(table, syndromes, &mut out, &mut stats);
            } else {
                run_direct8(table, syndromes, &mut out, &mut stats);
            }
            runs.push(("direct", out));
        }
        runs
    }

    #[test]
    fn forced_kernels_are_bit_identical() {
        // Every forced column-stage run, and the pipeline of codes without
        // a residual stage, must equal the brute-force column stage word
        // for word, at ragged sizes and four densities. Dirty lanes take
        // one flip (matched), two flips, or a random word, in turn.
        let builders: [fn() -> BatchCodec; 10] = [
            BatchCodec::wide_hamming_85_64,
            BatchCodec::bch,
            BatchCodec::bch_63_51,
            BatchCodec::bch_63_45,
            BatchCodec::ldpc,
            // r = 10, General class: 1023 entries with multi-bit flips.
            || BatchCodec::repetition(5, 3),
            // r = 9 with no entries: every dirty lane is flagged.
            || BatchCodec::repetition(9, 2),
            BatchCodec::hamming74,
            || BatchCodec::sec_ded(6),
            || BatchCodec::repetition(2, 3),
        ];
        let mut rng = StdRng::seed_from_u64(0xF0CE);
        for build in builders {
            let codec = build();
            let (n, k) = (codec.n(), codec.k());
            for batch_size in [1usize, 63, 64, 65, 250, 257, 320] {
                for dirty_every in [1usize, 16, 64, usize::MAX] {
                    let messages: Vec<BitVec> = (0..batch_size)
                        .map(|_| (0..k).map(|_| rng.random::<bool>()).collect())
                        .collect();
                    let mut words = codec.encode_batch(&BitSlice64::pack(&messages)).unpack();
                    for (i, w) in words.iter_mut().step_by(dirty_every).enumerate() {
                        if i % 3 == 2 {
                            *w = (0..n).map(|_| rng.random::<bool>()).collect();
                        }
                        for _ in 0..(i % 3 + 1) % 3 {
                            let p = rng.random_range(0..n);
                            w.set(p, !w.get(p));
                        }
                    }
                    let received = BitSlice64::pack(&words);
                    let syndromes = codec.syndrome_batch(&received);
                    let want =
                        brute_force_column_stage(&codec.program.entries, &syndromes, &received);
                    let pipeline = matches!(codec.residual, Residual::Flag)
                        .then(|| ("pipeline", codec.decode_batch(&received)));
                    let runs = forced_column_stages(&codec.program, &syndromes, &received);
                    for (kind, got) in runs.into_iter().chain(pipeline) {
                        assert_eq!(
                            (&got.codewords, &got.flagged, &got.corrected),
                            (&want.codewords, &want.flagged, &want.corrected),
                            "{} {kind} batch {batch_size} dirty 1/{dirty_every}",
                            codec.name()
                        );
                    }
                }
            }
        }
    }

    proptest! {
        /// Both tree tiers equal the brute-force column stage on random
        /// programs: 1–128 distinct nonzero patterns at `r ∈ 9..=127`, with
        /// flips of weight 1–3, over syndromes that mix exact patterns,
        /// zero, near misses, and random values. One entry makes the root a
        /// leaf.
        #[test]
        fn tree_tiers_match_brute_force_on_random_programs(
            seed in any::<u64>(),
            r in 9usize..=127,
            count in 1usize..=128,
            batch in 1usize..=320,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut random = |width: usize| {
                let value = u128::from(rng.random::<u64>()) | u128::from(rng.random::<u64>()) << 64;
                value >> (128 - width)
            };
            let mut entries: Vec<MatchEntry> = Vec::new();
            while entries.len() < count {
                let pattern = random(r);
                let flip = (0..3).fold(0, |flip, _| flip | 1u128 << (random(7) as u32));
                if pattern != 0 && entries.iter().all(|e| e.pattern != pattern) {
                    entries.push(MatchEntry { pattern, flip });
                }
            }
            let mut syndromes = BitSlice64::zeros(r, batch);
            for lane in 0..batch {
                let entry = entries[random(64) as usize % count].pattern;
                let value = match random(2) {
                    0 => 0,
                    1 => entry,
                    2 => entry ^ 1 << (random(64) as usize % r),
                    _ => random(r),
                };
                for t in (0..r).filter(|&t| (value >> t) & 1 == 1) {
                    syndromes.set(lane, t, true);
                }
            }
            let words: Vec<BitVec> = (0..batch)
                .map(|_| (0..MAX_BLOCK_LENGTH).map(|_| rng.random::<bool>()).collect())
                .collect();
            let received = BitSlice64::pack(&words);
            let want = brute_force_column_stage(&entries, &syndromes, &received);
            let program = ColumnMatchProgram::new(entries, r);
            for (_, got) in forced_column_stages(&program, &syndromes, &received) {
                prop_assert_eq!(
                    (&got.codewords, &got.flagged, &got.corrected),
                    (&want.codewords, &want.flagged, &want.corrected)
                );
            }
        }
    }

    /// A measurement of the tree's crossover, not of results: times both
    /// tiers forced on the catalog's five `r > 8` codes, at 4096 lanes with
    /// 1 to 256 dirty lanes per 256-lane chunk and on one-word batches of
    /// 40 lanes (the multi-error Fig. 5 comparison's shape), one single-bit
    /// error per dirty lane. Wherever one tier is more than 1.5× faster,
    /// the crossover must pick it. The bound is loose because the size
    /// model can miss a crossover by a quarter: LDPC(60,32) picks sparse at
    /// 10 dirty lanes, where it reads 1.2–1.4× the dense cost. Run it
    /// optimized:
    /// `cargo test --release -p sfq-batch -- --ignored tree_tiers_win --nocapture`.
    #[test]
    #[ignore = "timing measurement; run with --release"]
    fn tree_tiers_win_on_their_own_side() {
        let builders: [fn() -> BatchCodec; 5] = [
            BatchCodec::wide_hamming_85_64,
            BatchCodec::bch,
            BatchCodec::bch_63_51,
            BatchCodec::bch_63_45,
            BatchCodec::ldpc,
        ];
        let mut rng = StdRng::seed_from_u64(0x7133);
        let mut misses = Vec::new();
        for codec in builders.map(|build| build()) {
            let tree = codec.program.tree.as_ref().expect("r > 8");
            println!("{}: sparse below {}", codec.name(), tree.sparse_below);
            let shapes = [1, 4, 16, 64, 256].map(|every| (4096, every));
            for (lanes, every) in shapes.into_iter().chain([(40, 4), (40, 1)]) {
                let messages: Vec<BitVec> = (0..lanes)
                    .map(|_| (0..codec.k()).map(|_| rng.random::<bool>()).collect())
                    .collect();
                let mut received = codec.encode_batch(&BitSlice64::pack(&messages));
                for lane in (0..lanes).step_by(every) {
                    let p = rng.random_range(0..codec.n());
                    received.set(lane, p, !received.get(lane, p));
                }
                let syndromes = codec.syndrome_batch(&received);
                let (mut out, mut stats, mut buffer) =
                    (column_output(&received), KernelStats::default(), Vec::new());
                // Best of 15 runs of about 100 000 lanes each, in ns/lane.
                let mut best = |tier: u64| {
                    let reps = 100_000usize.div_ceil(lanes);
                    let mut best = f64::INFINITY;
                    for _ in 0..15 {
                        let start = std::time::Instant::now();
                        for _ in 0..reps {
                            let syndromes = std::hint::black_box(&syndromes);
                            run_tree(tree, syndromes, &mut buffer, &mut out, &mut stats, tier);
                            std::hint::black_box(&mut out);
                        }
                        let ns = start.elapsed().as_secs_f64() * 1e9;
                        best = best.min(ns / (reps * lanes) as f64);
                    }
                    best
                };
                let (dense, sparse) = (best(0), best(257));
                let dirty = lanes.min(256).div_ceil(every) as u64;
                let (tier, picked, other) = match dirty < tree.sparse_below {
                    true => ("sparse", sparse, dense),
                    false => ("dense", dense, sparse),
                };
                println!(
                    "  {lanes:>4} lanes, {dirty:>3} dirty per chunk: dense {dense:6.2} \
                     sparse {sparse:6.2} ns/lane, picks {tier}"
                );
                if picked > 1.5 * other {
                    misses.push(format!("{} {lanes} lanes 1/{every}", codec.name()));
                }
            }
        }
        assert!(misses.is_empty(), "the slower tier was picked: {misses:?}");
    }

    #[test]
    fn scratch_reuse_across_codes_and_batch_sizes_is_bit_exact() {
        // One scratch + output pair threaded through decodes of different
        // codes and batch shapes must reproduce the allocating path exactly.
        let mut scratch = BatchScratch::new();
        let mut out = BatchDecoded::empty();
        let mut rng = StdRng::seed_from_u64(0x5C8A7C4);
        for codec in [
            BatchCodec::sec_ded(6),
            BatchCodec::hamming84(),
            BatchCodec::wide_hamming_85_64(),
            BatchCodec::hamming74(),
        ] {
            for batch_size in [5usize, 64, 131] {
                let words: Vec<BitVec> = (0..batch_size)
                    .map(|_| {
                        (0..codec.n())
                            .map(|_| rng.random::<u64>() & 1 == 1)
                            .collect::<BitVec>()
                    })
                    .collect();
                let batch = BitSlice64::pack(&words);
                let reference = codec.decode_batch(&batch);
                codec.decode_batch_with(&batch, &mut scratch, &mut out);
                assert_eq!(out.messages, reference.messages, "{}", codec.name());
                assert_eq!(out.codewords, reference.codewords, "{}", codec.name());
                assert_eq!(out.flagged, reference.flagged, "{}", codec.name());
                assert_eq!(out.corrected, reference.corrected, "{}", codec.name());
            }
        }
    }

    #[test]
    fn encode_into_reuses_buffers_bit_exactly() {
        let codec = BatchCodec::sec_ded(4);
        let mut buffer = BitSlice64::default();
        for (batch_size, seed) in [(130usize, 1u64), (7, 2), (64, 3)] {
            let messages: Vec<BitVec> = random_messages(16, batch_size, seed);
            let batch = BitSlice64::pack(&messages);
            codec.encode_batch_into(&batch, &mut buffer);
            assert_eq!(buffer, codec.encode_batch(&batch));
        }
    }

    #[test]
    fn secded_72_64_batch_corrects_singles_and_flags_doubles() {
        // The widest SEC-DED member: 72 lanes (beyond one u64 mask), 8
        // syndrome lanes. Messages are 64-bit, drawn from a seeded RNG.
        let codec = BatchCodec::sec_ded(6);
        assert_eq!((codec.n(), codec.k()), (72, 64));
        let mut rng = StdRng::seed_from_u64(0x7264);
        let messages: Vec<BitVec> = (0..130)
            .map(|_| BitVec::from_u64(64, rng.random::<u64>()))
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));

        // Clean round trip.
        let decoded = codec.decode_batch(&clean);
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);

        // One error per word: corrected. Words 10 and 100 get a second
        // error: flagged.
        let mut received = clean.clone();
        for i in 0..130 {
            let pos = rng.random_range(0..72usize);
            received.set(i, pos, !received.get(i, pos));
            if i == 10 || i == 100 {
                let second = (pos + 1 + rng.random_range(0..70usize)) % 72;
                received.set(i, second, !received.get(i, second));
            }
        }
        let decoded = codec.decode_batch(&received);
        for (i, message) in messages.iter().enumerate() {
            if i == 10 || i == 100 {
                assert!(decoded.is_flagged(i), "word {i} must be flagged");
            } else {
                assert!(decoded.is_corrected(i), "word {i}");
                assert_eq!(decoded.messages.extract(i), *message, "word {i}");
            }
        }
        assert_eq!(decoded.flagged_count(), 2);
    }

    #[test]
    fn secded_batch_matches_scalar_for_whole_family() {
        for m in 3..=6 {
            let scalar = SecDed::new(m);
            let codec = BatchCodec::sec_ded(m);
            let mut rng = StdRng::seed_from_u64(m as u64);
            let k = scalar.k();
            let messages: Vec<BitVec> = (0..64)
                .map(|_| {
                    (0..k)
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect::<BitVec>()
                })
                .collect();
            let encoded = codec.encode_batch(&BitSlice64::pack(&messages));
            for (i, msg) in messages.iter().enumerate() {
                assert_eq!(encoded.extract(i), scalar.encode(msg), "m={m} word {i}");
            }
        }
    }

    #[test]
    fn shortened_hamming_3832_works_in_batch_form() {
        // Exercises 6 syndrome lanes and 38-bit words through the ColumnFlip
        // builder.
        let scalar = ecc::ShortenedHamming3832::new();
        let codec = BatchCodec::new(&scalar);
        let mut rng = StdRng::seed_from_u64(5);
        let messages: Vec<BitVec> = (0..64)
            .map(|_| BitVec::from_u64(32, rng.random::<u64>() & 0xFFFF_FFFF))
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));
        let mut received = clean.clone();
        for i in 0..64 {
            let pos = rng.random_range(0..38usize);
            received.set(i, pos, !received.get(i, pos));
        }
        let decoded = codec.decode_batch(&received);
        for (i, m) in messages.iter().enumerate() {
            assert!(!decoded.is_flagged(i));
            assert_eq!(decoded.messages.extract(i), *m, "msg {i}");
        }
    }

    #[test]
    fn bch_codec_roundtrips_and_corrects_up_to_two_errors() {
        let scalar = Bch::bch_31_16();
        let codec = BatchCodec::bch();
        assert_eq!((codec.n(), codec.k()), (31, 16));
        assert!(codec.name().contains("BCH(31,16)"));
        let mut rng = StdRng::seed_from_u64(0x3116);
        let messages: Vec<BitVec> = (0..130)
            .map(|_| BitVec::from_u64(16, rng.random_range(0..1 << 16)))
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));
        for (i, msg) in messages.iter().enumerate() {
            assert_eq!(clean.extract(i), scalar.encode(msg), "word {i}");
        }

        // Clean round trip: every limb short-circuits.
        let decoded = codec.decode_batch(&clean);
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.corrected_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);

        // Word i gets (i % 3) errors: 0 clean, 1 single, 2 double — all
        // recovered; words 7 and 80 get a triple — flagged.
        let mut received = clean.clone();
        for i in 0..130 {
            let errors = if i == 7 || i == 80 { 3 } else { i % 3 };
            let mut hit = Vec::new();
            while hit.len() < errors {
                let pos = rng.random_range(0..31usize);
                if !hit.contains(&pos) {
                    hit.push(pos);
                    received.set(i, pos, !received.get(i, pos));
                }
            }
        }
        let decoded = codec.decode_batch(&received);
        for (i, message) in messages.iter().enumerate() {
            if i == 7 || i == 80 {
                assert!(decoded.is_flagged(i), "word {i} must be flagged");
            } else {
                assert!(!decoded.is_flagged(i), "word {i}");
                assert_eq!(decoded.is_corrected(i), i % 3 != 0, "word {i}");
                assert_eq!(decoded.messages.extract(i), *message, "word {i}");
            }
        }
        assert_eq!(decoded.flagged_count(), 2);
    }

    #[test]
    fn bch_scratch_reuse_is_bit_exact() {
        let codec = BatchCodec::bch();
        let mut scratch = BatchScratch::new();
        let mut out = BatchDecoded::empty();
        let mut rng = StdRng::seed_from_u64(0xFA11_BACC);
        for batch_size in [3usize, 64, 131] {
            let words: Vec<BitVec> = (0..batch_size)
                .map(|_| {
                    (0..31)
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect::<BitVec>()
                })
                .collect();
            let batch = BitSlice64::pack(&words);
            let reference = codec.decode_batch(&batch);
            codec.decode_batch_with(&batch, &mut scratch, &mut out);
            assert_eq!(out.messages, reference.messages);
            assert_eq!(out.codewords, reference.codewords);
            assert_eq!(out.flagged, reference.flagged);
            assert_eq!(out.corrected, reference.corrected);
        }
    }

    #[test]
    #[should_panic(expected = "with_sliced_algebraic")]
    fn algebraic_decoders_reject_the_plain_constructor() {
        let _ = BatchCodec::new(&Bch::bch_31_16());
    }

    #[test]
    #[should_panic(expected = "with_bit_flip")]
    fn iterative_decoders_reject_the_plain_constructor() {
        let _ = BatchCodec::new(&Ldpc::gallager_60_32());
    }

    #[test]
    fn sliced_bch_engine_matches_the_scalar_fallback_engine() {
        // The shipping engine (shared column stage, then the sliced
        // residual stage) and per-lane scalar `Bch::decode` must agree on
        // every output word, including all-dirty batches and
        // beyond-capacity error weights — for every registry member.
        let mut rng = StdRng::seed_from_u64(0x51_1CED);
        for spec in BchSpec::REGISTRY {
            let code = Bch::from_spec(spec);
            let codec = BatchCodec::bch_spec(spec);
            let (n, k) = (code.n(), code.k());
            for batch_size in [1usize, 63, 64, 65, 130, 257] {
                let words: Vec<BitVec> = (0..batch_size)
                    .map(|i| {
                        let msg: BitVec = (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect();
                        let mut w = code.encode(&msg);
                        for _ in 0..(i % 5) {
                            let pos = rng.random_range(0..n);
                            w.set(pos, !w.get(pos));
                        }
                        w
                    })
                    .collect();
                let decoded = codec.decode_batch(&BitSlice64::pack(&words));
                for (i, word) in words.iter().enumerate() {
                    let reference = code.decode(word);
                    let label = format!("{spec:?} batch {batch_size} word {i}");
                    assert_eq!(
                        decoded.is_flagged(i),
                        reference.outcome.error_flag(),
                        "{label}"
                    );
                    assert_eq!(
                        decoded.is_corrected(i),
                        reference.outcome.corrected(),
                        "{label}"
                    );
                    let codeword = reference.codeword.unwrap_or_else(|| word.clone());
                    assert_eq!(decoded.codewords.extract(i), codeword, "{label}");
                    let message = reference.message.unwrap_or_else(|| BitVec::zeros(k));
                    assert_eq!(decoded.messages.extract(i), message, "{label}");
                }
            }
        }
    }

    #[test]
    fn bch_registry_codecs_correct_up_to_their_radius() {
        // BCH(63,51) recovers every ≤2-error word; BCH(63,45) every
        // ≤3-error word. Error positions are spread deterministically.
        for (codec, scalar, radius) in [
            (BatchCodec::bch_63_51(), Bch::bch_63_51(), 2usize),
            (BatchCodec::bch_63_45(), Bch::bch_63_45(), 3usize),
        ] {
            assert_eq!((codec.n(), codec.k()), (scalar.n(), scalar.k()));
            assert!(codec.name().contains(scalar.name()));
            let mut rng = StdRng::seed_from_u64(0x63_0000 + radius as u64);
            let messages: Vec<BitVec> = (0..130)
                .map(|_| {
                    (0..scalar.k())
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect()
                })
                .collect();
            let clean = codec.encode_batch(&BitSlice64::pack(&messages));
            for (i, msg) in messages.iter().enumerate() {
                assert_eq!(clean.extract(i), scalar.encode(msg), "word {i}");
            }
            let mut received = clean.clone();
            for i in 0..130 {
                let errors = i % (radius + 1);
                let mut hit = Vec::new();
                while hit.len() < errors {
                    let pos = rng.random_range(0..63usize);
                    if !hit.contains(&pos) {
                        hit.push(pos);
                        received.set(i, pos, !received.get(i, pos));
                    }
                }
            }
            let decoded = codec.decode_batch(&received);
            for (i, message) in messages.iter().enumerate() {
                assert!(!decoded.is_flagged(i), "{} word {i}", codec.name());
                assert_eq!(
                    decoded.is_corrected(i),
                    i % (radius + 1) != 0,
                    "{} word {i}",
                    codec.name()
                );
                assert_eq!(
                    decoded.messages.extract(i),
                    *message,
                    "{} word {i}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn ldpc_codec_matches_the_scalar_decoder_bit_for_bit() {
        // The whole-limb bit-flip engine against the scalar synchronous
        // decoder: same messages, same flags, same corrected codewords —
        // over clean, single-error, double-error, and random-noise lanes,
        // at ragged batch sizes.
        let scalar = Ldpc::gallager_60_32();
        let codec = BatchCodec::ldpc();
        assert_eq!((codec.n(), codec.k()), (60, 32));
        let mut rng = StdRng::seed_from_u64(0x1D9C);
        for batch_size in [1usize, 63, 64, 65, 130, 257] {
            let words: Vec<BitVec> = (0..batch_size)
                .map(|i| {
                    let msg: BitVec = (0..32).map(|_| rng.random::<u64>() & 1 == 1).collect();
                    let mut w = scalar.encode(&msg);
                    if i % 7 == 6 {
                        // Dense noise lane: exercises non-convergence.
                        for p in 0..60 {
                            if rng.random::<u64>() & 1 == 1 {
                                w.set(p, !w.get(p));
                            }
                        }
                    } else {
                        for _ in 0..(i % 3) {
                            let pos = rng.random_range(0..60usize);
                            w.set(pos, !w.get(pos));
                        }
                    }
                    w
                })
                .collect();
            let batch = BitSlice64::pack(&words);
            let decoded = codec.decode_batch(&batch);
            for (i, w) in words.iter().enumerate() {
                let reference = scalar.decode(w);
                let label = format!("batch {batch_size} word {i}");
                match reference.outcome {
                    DecodeOutcome::DetectedUncorrectable => {
                        assert!(decoded.is_flagged(i), "{label}");
                        // Flagged lanes deliver the received word unchanged.
                        assert_eq!(decoded.codewords.extract(i), *w, "{label}");
                    }
                    DecodeOutcome::NoErrorDetected => {
                        assert!(!decoded.is_flagged(i), "{label}");
                        assert!(!decoded.is_corrected(i), "{label}");
                        assert_eq!(
                            Some(decoded.messages.extract(i)),
                            reference.message,
                            "{label}"
                        );
                    }
                    DecodeOutcome::Corrected { .. } => {
                        assert!(decoded.is_corrected(i), "{label}");
                        assert_eq!(
                            Some(decoded.codewords.extract(i)),
                            reference.codeword,
                            "{label}"
                        );
                        assert_eq!(
                            Some(decoded.messages.extract(i)),
                            reference.message,
                            "{label}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ldpc_scratch_reuse_is_bit_exact() {
        let codec = BatchCodec::ldpc();
        let mut scratch = BatchScratch::new();
        let mut out = BatchDecoded::empty();
        let mut rng = StdRng::seed_from_u64(0x1D9C_5C8A);
        for batch_size in [3usize, 64, 131] {
            let words: Vec<BitVec> = (0..batch_size)
                .map(|_| {
                    (0..60)
                        .map(|_| rng.random::<u64>() & 1 == 1)
                        .collect::<BitVec>()
                })
                .collect();
            let batch = BitSlice64::pack(&words);
            let reference = codec.decode_batch(&batch);
            codec.decode_batch_with(&batch, &mut scratch, &mut out);
            assert_eq!(out.messages, reference.messages);
            assert_eq!(out.codewords, reference.codewords);
            assert_eq!(out.flagged, reference.flagged);
            assert_eq!(out.corrected, reference.corrected);
        }
    }

    #[test]
    fn wide_hamming_85_64_roundtrips_beyond_the_old_redundancy_limit() {
        // n - k = 21 > 20: impossible under the old syndrome-action table
        // (its 2^21-entry build was rejected); the column-matching engine
        // compiles 85 entries and decodes exactly like the scalar path.
        let scalar = ShortenedHamming::wide_85_64();
        let codec = BatchCodec::wide_hamming_85_64();
        assert_eq!((codec.n(), codec.k()), (85, 64));
        let mut rng = StdRng::seed_from_u64(0x8564);
        let messages: Vec<BitVec> = (0..100)
            .map(|_| BitVec::from_u64(64, rng.random::<u64>()))
            .collect();
        let clean = codec.encode_batch(&BitSlice64::pack(&messages));
        let decoded = codec.decode_batch(&clean);
        assert_eq!(decoded.flagged_count(), 0);
        assert_eq!(decoded.messages.unpack(), messages);

        // Single errors are corrected; a parity-pair double is flagged by
        // both paths.
        let mut received = clean.clone();
        for i in 0..100 {
            let pos = rng.random_range(0..85usize);
            received.set(i, pos, !received.get(i, pos));
        }
        let decoded = codec.decode_batch(&received);
        for (i, m) in messages.iter().enumerate() {
            let scalar_decoded = scalar.decode(&received.extract(i));
            assert_eq!(Some(decoded.messages.extract(i)), scalar_decoded.message);
            assert_eq!(decoded.messages.extract(i), *m, "msg {i}");
        }
    }
}
