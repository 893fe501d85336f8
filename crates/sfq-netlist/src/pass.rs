//! The optimizing encoder-synthesis pass pipeline.
//!
//! [`PassManager::run`] lowers a generator matrix to a gate-level [`Netlist`]
//! through a sequence of [`Pass`]es over a [`SynthUnit`]. The sequence is
//! shaped by a [`Schedule`] — which factoring algorithm fills the first slot
//! and how the XOR trees are shaped — and the standard schedule runs:
//!
//! 1. [`GreedyFactoringPass`] — cancellation-free common-pair XOR factoring
//!    (Paar's greedy heuristic): the signal pair shared by the most parity
//!    equations becomes an explicit factor, under a depth budget so that
//!    sharing never worsens encoding latency. The alternative
//!    [`CancellationFactoringPass`](crate::cancel::CancellationFactoringPass)
//!    additionally applies Boyar–Peralta-style rewrites whose terms cancel
//!    (see [`crate::cancel`]);
//! 2. [`TreeBalancePass`] — lowers every multi-term equation to binary XOR
//!    factors by repeatedly combining the two shallowest terms (which
//!    achieves the minimal root depth `⌈log₂ Σ 2^dᵢ⌉`), except that trees
//!    destined to be padded up to the balanced output depth are deliberately
//!    shaped deeper instead — same gate count, fewer pad DFFs;
//! 3. [`FanoutPlanPass`] — plans splitter fan-out chains, shared alignment
//!    DFFs (when the [`InputDiscipline::Align`] discipline is selected), and
//!    path-balancing output pads;
//! 4. [`EmitNetlistPass`] — materializes inputs, XOR cells, splitters,
//!    alignment DFFs, pad chains, and output drivers;
//! 5. [`ClockTreePass`] — expands the clock-distribution splitter tree.
//!
//! After every pass the manager re-verifies the IR against the generator
//! matrix (exact GF(2) equivalence, see [`ParityIr::verify_against`]) and
//! records a [`PassReport`] with the planned-cost delta, so a broken pass
//! fails at synthesis time with the pass name attached. A gate-level
//! simulation check can be attached with [`PassManager::with_netlist_verifier`]
//! (the `sfq-sim` crate provides one; this crate cannot depend on it).
//!
//! # Cost-model-driven planning
//!
//! Which schedule is cheapest depends on the standard-cell library: a
//! library with expensive XOR gates wants the deepest factoring available,
//! one with expensive DFFs may prefer the tree shaping that minimizes
//! alignment and padding stages. [`SynthPlanner`] makes that decision
//! explicit: it evaluates every [`Schedule`] candidate at the IR level (no
//! netlist is emitted — [`planned_cost`] is exact, see the
//! `planned_costs_match_the_emitted_netlist_exactly` test), prices each with
//! [`CellLibrary::cost_of`], and picks the cheapest, with ties resolved in
//! favor of the earlier (more conservative) candidate so the paper's
//! encoders keep their published cell-for-cell budgets.
//! [`SynthPlanner::run`] then lowers the chosen candidate's own factored IR
//! through the remaining passes, so each factoring kind runs once per
//! design. [`pareto_sweep`]
//! runs the same planning across a range of `depth_slack` values and marks
//! the latency/area Pareto front — the encoding-latency vs. JJ-budget
//! trade-off superconducting decoders care about.
//!
//! # Input disciplines
//!
//! SFQ XOR gates hold arriving flux until their next clock pulse, and the
//! SFQ-to-DC output drivers toggle on every pulse, so a parity network stays
//! functionally correct even when a gate's operands arrive in different clock
//! cycles — every pulse eventually reaches the toggling driver and the DC
//! level sampled at the encoding latency equals the parity
//! ([`InputDiscipline::Hold`], how the paper's Fig. 2 Hamming encoders feed
//! message bits straight into second-level gates). Fig. 4's RM(1,3) encoder
//! instead inserts alignment DFFs so both operands of each gate arrive in the
//! same cycle ([`InputDiscipline::Align`]); alignment chains are shared per
//! (signal, depth) and fanned out, as in the paper's schematic.

use crate::fxhash::FxHashMap;
use crate::ir::{Factor, IrEquivalenceError, ParityIr, SignalId};
use crate::synth::{build_clock_tree, dff_chain, fanout};
use crate::{Netlist, PortRef};
use gf2::BitMat;
use serde::{Deserialize, Serialize};
use sfq_cells::{CellKind, CellLibrary, CircuitCost};
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// How XOR operands with unequal logic depths are reconciled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputDiscipline {
    /// Rely on flux-holding gates and toggling SFQ-to-DC drivers: operands
    /// may arrive in different cycles (Fig. 2 style, no alignment DFFs).
    Hold,
    /// Insert shared DFF chains so both operands of every XOR arrive in the
    /// same clock cycle (Fig. 4 style).
    Align,
}

/// Configuration of the synthesis pipeline. Every emitted encoder balances
/// its outputs to one logic depth with DFF pad chains and drives each
/// primary output through an SFQ-to-DC converter (the paper's encoders
/// drive cryogenic cables); which factoring runs is a [`Schedule`] decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineOptions {
    /// Operand-arrival discipline.
    pub discipline: InputDiscipline,
    /// Extra clocked stages the factoring pass may add beyond the naive tree
    /// depth (0 keeps the naive latency).
    pub depth_slack: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            discipline: InputDiscipline::Hold,
            depth_slack: 0,
        }
    }
}

/// Which factoring algorithm fills the pipeline's first slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FactoringKind {
    /// Cancellation-free greedy common-pair factoring
    /// ([`GreedyFactoringPass`], Paar's heuristic).
    Paar,
    /// Cancellation-aware bounded-distance factoring
    /// ([`CancellationFactoringPass`](crate::cancel::CancellationFactoringPass),
    /// Boyar–Peralta style).
    Cancellation,
    /// No explicit factoring: plain balanced XOR trees (identical subtrees
    /// are still reused during lowering). More XOR gates and clock
    /// splitters, but the fewest *data* splitters — the cheapest schedule
    /// for libraries whose splitters dwarf their XOR gates.
    None,
}

impl FactoringKind {
    /// Every factoring kind, in the order the planner weighs them (most
    /// conservative first).
    const ALL: [FactoringKind; 3] = [
        FactoringKind::Paar,
        FactoringKind::Cancellation,
        FactoringKind::None,
    ];

    /// The pass that fills the pipeline's factoring slot for this kind.
    fn pass(self) -> Box<dyn Pass> {
        match self {
            FactoringKind::Paar => Box::new(GreedyFactoringPass),
            FactoringKind::Cancellation => Box::new(crate::cancel::CancellationFactoringPass),
            FactoringKind::None => Box::new(NoFactoringPass),
        }
    }
}

/// The schedule decisions a [`SynthPlanner`] makes per design: which
/// factoring algorithm runs and how XOR trees are shaped.
///
/// The default schedule reproduces the historical fixed pipeline (Paar
/// factoring, pad-eliding stretch), so [`PassManager::standard`] is
/// unchanged. [`Schedule::candidates`] enumerates the choice space the
/// planner prices against a [`CellLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Schedule {
    /// Factoring algorithm for the first pipeline slot.
    pub factoring: FactoringKind,
    /// Whether [`TreeBalancePass`] stretches trees destined for pad DFFs up
    /// to the balanced output depth (same XOR count, fewer pads — but under
    /// [`InputDiscipline::Align`] deeper trees can need *more* shared
    /// alignment DFFs, which is why this is a planner decision and not a
    /// constant).
    pub stretch: bool,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            factoring: FactoringKind::Paar,
            stretch: true,
        }
    }
}

impl Schedule {
    /// The cancellation-aware schedule with the default tree shaping.
    #[must_use]
    pub fn cancellation() -> Self {
        Schedule {
            factoring: FactoringKind::Cancellation,
            stretch: true,
        }
    }

    /// Every schedule a [`SynthPlanner`] weighs, most conservative first:
    /// ties are resolved toward the front of this list, so a library that
    /// does not distinguish the candidates gets the historical pipeline.
    #[must_use]
    pub fn candidates() -> Vec<Schedule> {
        FactoringKind::ALL
            .into_iter()
            .flat_map(Schedule::shapings)
            .collect()
    }

    /// The tree shapings weighed for one factoring kind, stretch first.
    fn shapings(factoring: FactoringKind) -> [Schedule; 2] {
        [true, false].map(|stretch| Schedule { factoring, stretch })
    }

    /// Short label for reports and benchmark JSON, e.g. `"paar+stretch"`.
    #[must_use]
    pub fn label(&self) -> String {
        let factoring = match self.factoring {
            FactoringKind::Paar => "paar",
            FactoringKind::Cancellation => "cancel",
            FactoringKind::None => "trees",
        };
        let shaping = if self.stretch { "stretch" } else { "compact" };
        format!("{factoring}+{shaping}")
    }
}

/// The unit of work a [`Pass`] transforms.
#[derive(Debug)]
pub struct SynthUnit {
    /// Netlist name.
    pub name: String,
    /// The generator matrix being lowered (the functional specification).
    pub generator: BitMat,
    /// Pipeline configuration.
    pub options: PipelineOptions,
    /// The schedule decisions the manager was built with (tree shaping is
    /// read by [`TreeBalancePass`] and [`planned_cost`]).
    pub schedule: Schedule,
    /// The parity-equation IR.
    pub ir: ParityIr,
    /// Fan-out / alignment / padding plan (after [`FanoutPlanPass`]).
    pub plan: Option<FanoutPlan>,
    /// The netlist under construction (after [`EmitNetlistPass`]).
    pub netlist: Option<Netlist>,
}

impl SynthUnit {
    /// A unit holding the generator's unfactored IR, with no plan or
    /// netlist yet.
    pub(crate) fn new(
        name: &str,
        generator: &BitMat,
        options: PipelineOptions,
        schedule: Schedule,
    ) -> Self {
        SynthUnit {
            name: name.to_string(),
            generator: generator.clone(),
            options,
            schedule,
            ir: ParityIr::from_generator(generator),
            plan: None,
            netlist: None,
        }
    }
}

/// Planned (or, once the netlist exists, actual) circuit cost of a unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedCost {
    /// XOR gates.
    pub xor: u64,
    /// D flip-flops (alignment + path balancing).
    pub dff: u64,
    /// Splitters (data fan-out + clock tree).
    pub splitter: u64,
    /// SFQ-to-DC output drivers.
    pub sfq_to_dc: u64,
    /// Logic depth (clocked stages input → output).
    pub depth: usize,
}

impl PlannedCost {
    /// The cost as a cell histogram.
    #[must_use]
    pub fn histogram(&self) -> BTreeMap<CellKind, u64> {
        let mut map = BTreeMap::new();
        map.insert(CellKind::Xor, self.xor);
        map.insert(CellKind::Dff, self.dff);
        map.insert(CellKind::Splitter, self.splitter);
        map.insert(CellKind::SfqToDc, self.sfq_to_dc);
        map
    }

    /// Evaluates the plan against a cell library.
    #[must_use]
    pub fn cost(&self, library: &CellLibrary) -> CircuitCost {
        library.cost_of([
            (CellKind::Xor, self.xor),
            (CellKind::Dff, self.dff),
            (CellKind::Splitter, self.splitter),
            (CellKind::SfqToDc, self.sfq_to_dc),
        ])
    }

    /// Josephson-junction count against a cell library.
    #[must_use]
    pub fn jj(&self, library: &CellLibrary) -> u64 {
        self.cost(library).jj_count
    }
}

/// What one pass did to the unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassReport {
    /// Pass name.
    pub pass: String,
    /// Planned cost before the pass.
    pub before: PlannedCost,
    /// Planned cost after the pass.
    pub after: PlannedCost,
    /// Human-readable note (factors extracted, cells emitted, …).
    pub detail: String,
}

/// The full per-pass account of one synthesis run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Netlist name.
    pub name: String,
    /// The schedule the manager ran (see [`Schedule::label`]).
    pub schedule: Schedule,
    /// One report per executed pass, in order.
    pub passes: Vec<PassReport>,
}

impl PipelineReport {
    /// Cost after the last pass (the emitted netlist).
    #[must_use]
    pub fn final_cost(&self) -> PlannedCost {
        self.passes.last().map(|p| p.after).unwrap_or_default()
    }

    /// Multi-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!("synthesis pipeline for {}\n", self.name);
        for report in &self.passes {
            out.push_str(&format!(
                "  {:<18} XOR {:>4} -> {:>4} | DFF {:>4} -> {:>4} | SPL {:>4} -> {:>4} | depth {} -> {} | {}\n",
                report.pass,
                report.before.xor,
                report.after.xor,
                report.before.dff,
                report.after.dff,
                report.before.splitter,
                report.after.splitter,
                report.before.depth,
                report.after.depth,
                report.detail,
            ));
        }
        out
    }
}

/// Error raised by a pass or by the manager's verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassError {
    /// A pass broke functional equivalence of the IR.
    Equivalence {
        /// Name of the offending pass.
        pass: String,
        /// The detected mismatch.
        error: IrEquivalenceError,
    },
    /// The attached netlist verifier rejected the final netlist.
    Verifier(String),
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassError::Equivalence { pass, error } => {
                write!(f, "pass {pass} broke functional equivalence: {error}")
            }
            PassError::Verifier(msg) => write!(f, "netlist verification failed: {msg}"),
        }
    }
}

impl std::error::Error for PassError {}

/// A transformation step of the synthesis pipeline.
pub trait Pass {
    /// Pass name (for reports and error messages).
    fn name(&self) -> &'static str;

    /// Transforms the unit, returning a human-readable note.
    fn run(&self, unit: &mut SynthUnit) -> Result<String, PassError>;
}

/// Signature of an external gate-level netlist verifier (e.g. the `sfq-sim`
/// simulation harness): given the emitted netlist and the generator matrix,
/// return `Err` with a description if they disagree.
pub type NetlistVerifier = Box<dyn Fn(&Netlist, &BitMat) -> Result<(), String>>;

/// Runs a pass sequence over a [`SynthUnit`] with built-in functional
/// verification and per-pass cost accounting.
///
/// # Example
///
/// ```
/// use gf2::BitMat;
/// use sfq_netlist::pass::{PassManager, PipelineOptions};
///
/// // The paper's Hamming(8,4) generator, lowered through the standard
/// // five-pass schedule: the report accounts for every pass, and the
/// // emitted netlist matches the Fig. 2 budget (6 XOR at depth 2).
/// let generator = BitMat::from_str_rows(&["11100001", "10011001", "01010101", "11010010"]);
/// let result = PassManager::standard(PipelineOptions::default())
///     .run("hamming84_encoder", &generator)
///     .expect("a pass that broke GF(2) equivalence would be rejected here");
/// assert_eq!(result.report.passes.len(), 5);
/// assert_eq!(result.report.final_cost().xor, 6);
/// assert_eq!(result.netlist.logic_depth(), 2);
/// ```
pub struct PassManager {
    options: PipelineOptions,
    schedule: Schedule,
    passes: Vec<Box<dyn Pass>>,
    /// One `synth.pass.<name>.ns` span-timer histogram per pass, registered
    /// at construction so the run loop never touches the registry lock.
    pass_timers: Vec<sfq_telemetry::Histogram>,
    /// The attached netlist verifier and its `synth.verify.ns` timer.
    verifier: Option<(NetlistVerifier, sfq_telemetry::Histogram)>,
}

/// The outcome of a full pipeline run.
#[derive(Debug)]
pub struct SynthResult {
    /// The synthesized netlist.
    pub netlist: Netlist,
    /// Per-pass cost/depth accounting.
    pub report: PipelineReport,
}

impl PassManager {
    /// The standard five-pass pipeline for the given options: the default
    /// [`Schedule`] (Paar factoring, stretched tree shaping).
    #[must_use]
    pub fn standard(options: PipelineOptions) -> Self {
        Self::with_schedule(options, Schedule::default())
    }

    /// A five-pass pipeline whose factoring slot and tree shaping follow
    /// the given [`Schedule`] (normally chosen by a [`SynthPlanner`]).
    #[must_use]
    pub fn with_schedule(options: PipelineOptions, schedule: Schedule) -> Self {
        let passes: Vec<Box<dyn Pass>> = vec![
            schedule.factoring.pass(),
            Box::new(TreeBalancePass),
            Box::new(FanoutPlanPass),
            Box::new(EmitNetlistPass),
            Box::new(ClockTreePass),
        ];
        let pass_timers = passes
            .iter()
            .map(|pass| pass_timer(pass.as_ref()))
            .collect();
        PassManager {
            options,
            schedule,
            passes,
            pass_timers,
            verifier: None,
        }
    }

    /// Attaches a gate-level verifier that runs once after the final pass;
    /// its wall time goes to the `synth.verify.ns` histogram.
    #[must_use]
    pub fn with_netlist_verifier(mut self, verifier: NetlistVerifier) -> Self {
        let timer = sfq_telemetry::global().histogram("synth.verify.ns");
        self.verifier = Some((verifier, timer));
        self
    }

    /// Runs the pipeline on a generator matrix.
    ///
    /// # Errors
    /// Returns a [`PassError`] if any pass breaks IR equivalence or the
    /// attached netlist verifier rejects the result.
    ///
    /// # Panics
    /// Panics if the generator has a zero column, or if the final pass did
    /// not produce a netlist.
    pub fn run(&self, name: &str, generator: &BitMat) -> Result<SynthResult, PassError> {
        let unit = SynthUnit::new(name, generator, self.options, self.schedule);
        self.lower(unit, Vec::new())
    }

    /// Runs the passes that `reports` does not yet account for over `unit`
    /// (every pass for a fresh unit; the lowering passes once
    /// [`SynthPlanner::run`] has run the factoring slot), then the attached
    /// verifier.
    fn lower(
        &self,
        mut unit: SynthUnit,
        mut reports: Vec<PassReport>,
    ) -> Result<SynthResult, PassError> {
        sfq_telemetry::global().counter("synth.runs").inc();
        let done = reports.len();
        for (pass, timer) in self.passes.iter().zip(&self.pass_timers).skip(done) {
            let before = planned_cost(&unit);
            let detail = {
                // Records the pass's wall time on scope exit, error or not.
                let _span = sfq_telemetry::SpanTimer::start(timer.clone());
                pass.run(&mut unit)?
            };
            reports.push(account(&unit, pass.name(), before, detail)?);
        }
        let netlist = unit
            .netlist
            .expect("the pipeline's emission pass must produce a netlist");
        if let Some((verifier, timer)) = &self.verifier {
            let _span = sfq_telemetry::SpanTimer::start(timer.clone());
            verifier(&netlist, &unit.generator).map_err(PassError::Verifier)?;
        }
        Ok(SynthResult {
            netlist,
            report: PipelineReport {
                name: unit.name,
                schedule: self.schedule,
                passes: reports,
            },
        })
    }
}

/// Re-verifies the IR `pass` left in `unit` against the generator, then
/// accounts for the pass: planned cost before and after, and its note.
fn account(
    unit: &SynthUnit,
    pass: &str,
    before: PlannedCost,
    detail: String,
) -> Result<PassReport, PassError> {
    unit.ir
        .verify_against(&unit.generator)
        .map_err(|error| PassError::Equivalence {
            pass: pass.to_string(),
            error,
        })?;
    Ok(PassReport {
        pass: pass.to_string(),
        before,
        after: planned_cost(unit),
        detail,
    })
}

/// A fresh shard of the `synth.pass.<name>.ns` span-timer histogram.
fn pass_timer(pass: &dyn Pass) -> sfq_telemetry::Histogram {
    sfq_telemetry::global().histogram(&format!("synth.pass.{}.ns", pass.name()))
}

/// Planned cost of the unit in its current state: actual cell counts once the
/// netlist exists, otherwise the exact cost a faithful lowering of the
/// current IR would produce (computed by simulating tree balancing and
/// fan-out planning on a scratch copy).
#[must_use]
pub fn planned_cost(unit: &SynthUnit) -> PlannedCost {
    if let Some(netlist) = &unit.netlist {
        let hist = netlist.cell_histogram();
        let count = |kind: CellKind| hist.get(&kind).copied().unwrap_or(0);
        return PlannedCost {
            xor: count(CellKind::Xor),
            dff: count(CellKind::Dff),
            splitter: count(CellKind::Splitter),
            sfq_to_dc: count(CellKind::SfqToDc),
            depth: netlist.logic_depth(),
        };
    }
    let mut scratch = unit.ir.clone();
    tree_balance(&mut scratch, unit.schedule.stretch);
    let plan = FanoutPlan::compute(&scratch, &unit.options);
    plan.planned_cost(&scratch)
}

// ---------------------------------------------------------------------------
// Pass 1: greedy common-pair factoring (Paar).
// ---------------------------------------------------------------------------

/// Cancellation-free greedy common-subexpression extraction: repeatedly turn
/// the signal pair shared by the most parity equations into an explicit
/// factor, as long as at least two equations benefit and no equation is
/// pushed past the depth budget.
pub struct GreedyFactoringPass;

impl Pass for GreedyFactoringPass {
    fn name(&self) -> &'static str {
        "factor-common-pairs"
    }

    fn run(&self, unit: &mut SynthUnit) -> Result<String, PassError> {
        let budget = unit.ir.depth_budget() + unit.options.depth_slack;
        let extracted = factor_common_pairs(&mut unit.ir, budget);
        Ok(format!(
            "{extracted} shared factors (depth budget {budget})"
        ))
    }
}

/// The body of [`GreedyFactoringPass`]: extracts shared pairs until no pair
/// is shared by two equations, and returns how many were extracted.
fn factor_common_pairs(ir: &mut ParityIr, budget: usize) -> usize {
    let mut cache = factor_cache(ir);
    // Per candidate pair, the number of equations where substitution is
    // depth-feasible. A substitution changes only the equations it rewrites,
    // so only their pairs are re-tallied.
    let mut tally: FxHashMap<(SignalId, SignalId), usize> = FxHashMap::default();
    for j in 0..ir.num_outputs() {
        tally_pairs(ir, j, budget, &mut tally, true);
    }
    let mut extracted = 0usize;
    loop {
        // Term-occurrence frequency, used as a secondary criterion: when
        // several pairs are shared by the same number of equations,
        // extracting the one built from the *least*-used signals commits
        // the rare signals first and keeps the widely-shared signals
        // available for later, larger extractions — measurably better on
        // the SEC-DED family than frequency-greedy, while the paper's
        // three small encoders (whose optima are forced) are unaffected.
        // Remaining ties fall back to the smallest pair. That is a total
        // order, so the tally's iteration order cannot change the choice.
        let mut freq = vec![0usize; ir.num_signals()];
        for j in 0..ir.num_outputs() {
            let terms = ir.output_terms(j);
            if terms.len() >= 2 {
                terms.iter().for_each(|&t| freq[t] += 1);
            }
        }
        let best = (tally.iter())
            .filter(|&(_, &equations)| equations >= 2)
            .max_by_key(|&(&(a, b), &equations)| {
                (equations, Reverse(freq[a] + freq[b]), Reverse((a, b)))
            });
        let Some((&(a, b), _)) = best else { break };
        let takers: Vec<usize> = (0..ir.num_outputs())
            .filter(|&j| {
                let terms = ir.output_terms(j);
                terms.binary_search(&a).is_ok()
                    && terms.binary_search(&b).is_ok()
                    && join_fits(capacity(ir, terms), ir.depth(a), ir.depth(b), budget)
            })
            .collect();
        let factor = *cache.entry((a, b)).or_insert_with(|| ir.add_factor(a, b));
        for j in takers {
            tally_pairs(ir, j, budget, &mut tally, false);
            ir.substitute(j, a, b, factor);
            tally_pairs(ir, j, budget, &mut tally, true);
        }
        extracted += 1;
    }
    extracted
}

/// `Σ 2^depth` over a term list: its share of the `2^budget` leaf capacity.
fn capacity(ir: &ParityIr, terms: &[SignalId]) -> u128 {
    terms.iter().map(|&t| 1u128 << ir.depth(t)).sum()
}

/// Counts output `j`'s depth-feasible term pairs into `tally` (or, with
/// `add` false, out of it, dropping pairs no equation can take any more).
fn tally_pairs(
    ir: &ParityIr,
    j: usize,
    budget: usize,
    tally: &mut FxHashMap<(SignalId, SignalId), usize>,
    add: bool,
) {
    let terms = ir.output_terms(j);
    if terms.len() < 2 {
        return;
    }
    let capacity = capacity(ir, terms);
    for (x, &a) in terms.iter().enumerate() {
        for &b in &terms[x + 1..] {
            if !join_fits(capacity, ir.depth(a), ir.depth(b), budget) {
                continue;
            }
            if add {
                *tally.entry((a, b)).or_insert(0) += 1;
            } else {
                let equations = tally.get_mut(&(a, b)).expect("tallied when added");
                *equations -= 1;
                if *equations == 0 {
                    tally.remove(&(a, b));
                }
            }
        }
    }
}

/// The [`FactoringKind::None`] slot filler: leaves the term lists to the
/// tree-balancing pass (which still reuses bit-identical subtrees).
pub struct NoFactoringPass;

impl Pass for NoFactoringPass {
    fn name(&self) -> &'static str {
        "factor-none"
    }

    fn run(&self, _unit: &mut SynthUnit) -> Result<String, PassError> {
        Ok("no factoring by schedule".to_string())
    }
}

/// Existing factors keyed by their (sorted) operand pair, for reuse.
fn factor_cache(ir: &ParityIr) -> BTreeMap<(SignalId, SignalId), SignalId> {
    ir.factors()
        .iter()
        .enumerate()
        .map(|(i, &Factor { a, b })| ((a.min(b), a.max(b)), ir.k() + i))
        .collect()
}

/// Would replacing two terms of depths `da` and `db` with their factor keep
/// an output within the depth budget, given the output's capacity sum
/// `Σ 2^depth` over its terms? An output is realizable at depth `budget`
/// iff its capacity sum is at most `2^budget` (Kraft's inequality), so this
/// is `achievable_depth_of(rest ∪ {max(da, db) + 1}) ≤ budget` in O(1).
fn join_fits(capacity: u128, da: usize, db: usize, budget: usize) -> bool {
    capacity - (1u128 << da) - (1u128 << db) + (1u128 << (da.max(db) + 1)) <= 1u128 << budget
}

// ---------------------------------------------------------------------------
// Pass 2: XOR-tree depth balancing.
// ---------------------------------------------------------------------------

/// Lowers every multi-term equation to binary factors by combining the two
/// shallowest terms first (minimal root depth), reusing identical factors
/// across outputs.
pub struct TreeBalancePass;

impl Pass for TreeBalancePass {
    fn name(&self) -> &'static str {
        "balance-xor-trees"
    }

    fn run(&self, unit: &mut SynthUnit) -> Result<String, PassError> {
        let trees = tree_balance(&mut unit.ir, unit.schedule.stretch);
        Ok(format!("{trees} multi-term equations lowered"))
    }
}

/// Reduces every output to a single root signal; returns how many multi-term
/// outputs were lowered.
///
/// With `stretch` set (the balanced-output flow), trees that would come out
/// shallower than the deepest output are deliberately shaped *deeper* — an
/// XOR tree over `t` terms costs `t − 1` gates regardless of shape, so every
/// level gained towards the common output depth eliminates one path-
/// balancing pad DFF (and its clock splitter) for free.
fn tree_balance(ir: &mut ParityIr, stretch: bool) -> usize {
    let mut cache = factor_cache(ir);
    let mut lowered = 0usize;
    let target = if stretch {
        (0..ir.num_outputs())
            .map(|j| ir.output_depth(j))
            .max()
            .unwrap_or(0)
    } else {
        0
    };
    for j in 0..ir.num_outputs() {
        if ir.output_terms(j).len() > 1 {
            lowered += 1;
        }
        while ir.output_terms(j).len() > 1 {
            // Depth-optimal combining joins two terms drawn from the two
            // shallowest depth classes (Huffman exchange argument); while the
            // output still sits below the stretch target, joining the two
            // *deepest* classes instead raises the achievable depth by at
            // most one without ever overshooting the target.
            let terms = ir.output_terms(j);
            let deepen = stretch && ir.achievable_depth(terms) < target;
            let mut depths: Vec<usize> = terms.iter().map(|&t| ir.depth(t)).collect();
            depths.sort_unstable();
            let (d1, d2) = if deepen {
                (depths[depths.len() - 1], depths[depths.len() - 2])
            } else {
                (depths[0], depths[1])
            };
            let optimal = |x: SignalId, y: SignalId| {
                let mut pair = [ir.depth(x), ir.depth(y)];
                pair.sort_unstable();
                pair == [d1.min(d2), d1.max(d2)]
            };
            // Among the depth-admissible pairs prefer one whose factor
            // already exists — a free XOR — then the smallest pair.
            let mut chosen: Option<(SignalId, SignalId)> = None;
            'search: for (xi, &x) in terms.iter().enumerate() {
                for &y in &terms[xi + 1..] {
                    if !optimal(x, y) {
                        continue;
                    }
                    if chosen.is_none() {
                        chosen = Some((x, y));
                    }
                    if cache.contains_key(&(x.min(y), x.max(y))) {
                        chosen = Some((x, y));
                        break 'search;
                    }
                }
            }
            let (a, b) = chosen.expect("two terms always admit a depth-admissible pair");
            let factor = *cache
                .entry((a.min(b), a.max(b)))
                .or_insert_with(|| ir.add_factor(a, b));
            ir.substitute(j, a, b, factor);
        }
    }
    lowered
}

// ---------------------------------------------------------------------------
// Pass 3: splitter fan-out, alignment, and pad planning.
// ---------------------------------------------------------------------------

/// One shared alignment tap of a signal: a DFF chain raising the signal to
/// `target_depth`, fanned out to `consumers` XOR operand ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlignTap {
    /// The clocked depth consumers expect the signal at.
    pub target_depth: usize,
    /// Number of XOR operand ports reading this tap.
    pub consumers: usize,
}

/// The fan-out / alignment / padding plan the emission pass follows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FanoutPlan {
    /// Direct consumers per signal (operand ports, alignment chain heads,
    /// output heads).
    uses: Vec<usize>,
    /// Alignment taps per signal, sorted by target depth ([`InputDiscipline::Align`] only).
    align: BTreeMap<SignalId, Vec<AlignTap>>,
    /// Path-balancing DFF stages per output.
    pads: Vec<usize>,
    /// The balanced output depth (the encoding latency).
    max_depth: usize,
}

impl FanoutPlan {
    /// Computes the plan for a tree-balanced IR (every output a single
    /// signal).
    ///
    /// # Panics
    /// Panics if some output still has more than one term.
    #[must_use]
    pub fn compute(ir: &ParityIr, options: &PipelineOptions) -> Self {
        let mut uses = vec![0usize; ir.num_signals()];
        let mut align_consumers: BTreeMap<(SignalId, usize), usize> = BTreeMap::new();
        for &Factor { a, b } in ir.factors() {
            let target = ir.depth(a).max(ir.depth(b));
            for operand in [a, b] {
                if options.discipline == InputDiscipline::Align && ir.depth(operand) < target {
                    *align_consumers.entry((operand, target)).or_insert(0) += 1;
                } else {
                    uses[operand] += 1;
                }
            }
        }
        let mut max_depth = 0usize;
        let mut roots = Vec::with_capacity(ir.num_outputs());
        for j in 0..ir.num_outputs() {
            let terms = ir.output_terms(j);
            assert!(
                terms.len() == 1,
                "fan-out planning requires tree-balanced outputs (output {j} has {} terms)",
                terms.len()
            );
            let root = terms[0];
            uses[root] += 1;
            roots.push(root);
            max_depth = max_depth.max(ir.depth(root));
        }
        let pads: Vec<usize> = roots.iter().map(|&r| max_depth - ir.depth(r)).collect();
        let mut align: BTreeMap<SignalId, Vec<AlignTap>> = BTreeMap::new();
        for ((signal, target_depth), consumers) in align_consumers {
            align.entry(signal).or_default().push(AlignTap {
                target_depth,
                consumers,
            });
        }
        // Each alignment chain consumes one port of its base signal.
        for &signal in align.keys() {
            uses[signal] += 1;
        }
        FanoutPlan {
            uses,
            align,
            pads,
            max_depth,
        }
    }

    /// Direct consumers of a signal.
    #[must_use]
    pub fn uses(&self, signal: SignalId) -> usize {
        self.uses[signal]
    }

    /// Alignment taps of a signal (sorted by target depth).
    #[must_use]
    pub fn align_taps(&self, signal: SignalId) -> &[AlignTap] {
        self.align.get(&signal).map_or(&[], Vec::as_slice)
    }

    /// Pad stages of output `j`.
    #[must_use]
    pub fn pad_stages(&self, j: usize) -> usize {
        self.pads[j]
    }

    /// The balanced output depth.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Exact cell counts a faithful emission of this plan produces.
    #[must_use]
    pub fn planned_cost(&self, ir: &ParityIr) -> PlannedCost {
        let xor = ir.factors().len() as u64;
        let mut dff = self.pads.iter().map(|&p| p as u64).sum::<u64>();
        let mut data_splitters: u64 = self.uses.iter().map(|&u| u.saturating_sub(1) as u64).sum();
        for (&signal, taps) in &self.align {
            let base = ir.depth(signal);
            let last = taps.last().map_or(base, |t| t.target_depth);
            dff += (last - base) as u64;
            for (idx, tap) in taps.iter().enumerate() {
                let continues = usize::from(idx + 1 < taps.len());
                data_splitters += (tap.consumers + continues).saturating_sub(1) as u64;
            }
        }
        let sfq_to_dc = ir.num_outputs() as u64;
        let clock_sinks = xor + dff;
        let clock_splitters = clock_sinks.saturating_sub(1);
        PlannedCost {
            xor,
            dff,
            splitter: data_splitters + clock_splitters,
            sfq_to_dc,
            depth: self.max_depth,
        }
    }
}

/// Computes and stores the [`FanoutPlan`].
pub struct FanoutPlanPass;

impl Pass for FanoutPlanPass {
    fn name(&self) -> &'static str {
        "plan-fanout"
    }

    fn run(&self, unit: &mut SynthUnit) -> Result<String, PassError> {
        let plan = FanoutPlan::compute(&unit.ir, &unit.options);
        let taps: usize = plan.align.values().map(Vec::len).sum();
        let detail = format!(
            "{} alignment taps, balanced output depth {}",
            taps,
            plan.max_depth()
        );
        unit.plan = Some(plan);
        Ok(detail)
    }
}

// ---------------------------------------------------------------------------
// Pass 4: netlist emission.
// ---------------------------------------------------------------------------

/// Materializes the planned design as a [`Netlist`] (everything except the
/// clock tree).
pub struct EmitNetlistPass;

impl Pass for EmitNetlistPass {
    fn name(&self) -> &'static str {
        "emit-netlist"
    }

    fn run(&self, unit: &mut SynthUnit) -> Result<String, PassError> {
        let plan = unit
            .plan
            .take()
            .expect("emit-netlist requires plan-fanout to have run");
        let ir = &unit.ir;
        let options = &unit.options;
        let mut nl = Netlist::new(unit.name.clone());
        nl.add_clock("clk");

        // Name every signal: inputs m1.., output roots c{j}_xor, other
        // factors t{i}.
        let mut names: Vec<String> = (0..ir.k()).map(|i| format!("m{}", i + 1)).collect();
        let mut root_of: BTreeMap<SignalId, usize> = BTreeMap::new();
        for j in 0..ir.num_outputs() {
            root_of.entry(ir.output_terms(j)[0]).or_insert(j);
        }
        for idx in 0..ir.factors().len() {
            let id = ir.k() + idx;
            names.push(match root_of.get(&id) {
                Some(&j) => format!("c{}_xor", j + 1),
                None => format!("t{idx}"),
            });
        }

        // Per-signal queues of fanned-out ports, plus aligned taps.
        let mut ports: Vec<VecDeque<PortRef>> = vec![VecDeque::new(); ir.num_signals()];
        let mut aligned: BTreeMap<(SignalId, usize), VecDeque<PortRef>> = BTreeMap::new();

        // Fans a freshly created signal out according to the plan and builds
        // its shared alignment chains.
        let finish_signal =
            |nl: &mut Netlist,
             signal: SignalId,
             source: PortRef,
             ports: &mut Vec<VecDeque<PortRef>>,
             aligned: &mut BTreeMap<(SignalId, usize), VecDeque<PortRef>>| {
                let uses = plan.uses(signal);
                if uses > 0 {
                    ports[signal] = fanout(nl, source, uses, &names[signal]).into();
                }
                let taps = plan.align_taps(signal);
                if taps.is_empty() {
                    return;
                }
                let mut current = ports[signal].pop_front().expect("alignment chain port");
                let mut current_depth = ir.depth(signal);
                for (idx, tap) in taps.iter().enumerate() {
                    let prefix = format!("{}_al{}", names[signal], tap.target_depth);
                    current = dff_chain(nl, current, tap.target_depth - current_depth, &prefix);
                    current_depth = tap.target_depth;
                    let continues = usize::from(idx + 1 < taps.len());
                    let mut tap_ports: VecDeque<PortRef> =
                        fanout(nl, current, tap.consumers + continues, &prefix).into();
                    if continues == 1 {
                        current = tap_ports.pop_back().expect("chain continuation port");
                    }
                    aligned.insert((signal, tap.target_depth), tap_ports);
                }
            };

        // Inputs.
        for (i, name) in names.iter().enumerate().take(ir.k()) {
            let input = nl.add_input(name.clone());
            finish_signal(&mut nl, i, PortRef::of(input), &mut ports, &mut aligned);
        }
        // Factors, in topological order.
        for (idx, &Factor { a, b }) in ir.factors().iter().enumerate() {
            let id = ir.k() + idx;
            let xor = nl.add_cell(CellKind::Xor, names[id].clone());
            let target = ir.depth(a).max(ir.depth(b));
            for (port_index, operand) in [a, b].into_iter().enumerate() {
                let port =
                    if options.discipline == InputDiscipline::Align && ir.depth(operand) < target {
                        aligned
                            .get_mut(&(operand, target))
                            .and_then(VecDeque::pop_front)
                            .expect("planned alignment tap port")
                    } else {
                        ports[operand].pop_front().expect("planned operand port")
                    };
                nl.connect(port, xor, port_index);
            }
            nl.add_clock_sink(xor);
            finish_signal(&mut nl, id, PortRef::of(xor), &mut ports, &mut aligned);
        }
        // Outputs: pad chain, driver, primary output.
        for j in 0..ir.num_outputs() {
            let out_name = format!("c{}", j + 1);
            let root = ir.output_terms(j)[0];
            let head = ports[root].pop_front().expect("planned output port");
            let signal = dff_chain(
                &mut nl,
                head,
                plan.pad_stages(j),
                &format!("{out_name}_pad"),
            );
            let driver = nl.add_cell(CellKind::SfqToDc, format!("{out_name}_drv"));
            nl.connect(signal, driver, 0);
            let output = nl.add_output(out_name);
            nl.connect(PortRef::of(driver), output, 0);
        }
        let cells = nl.nodes().len();
        unit.netlist = Some(nl);
        Ok(format!("{cells} nodes emitted"))
    }
}

// ---------------------------------------------------------------------------
// Pass 5: clock tree.
// ---------------------------------------------------------------------------

/// Expands the clock-distribution splitter tree over every clocked cell.
pub struct ClockTreePass;

impl Pass for ClockTreePass {
    fn name(&self) -> &'static str {
        "build-clock-tree"
    }

    fn run(&self, unit: &mut SynthUnit) -> Result<String, PassError> {
        let netlist = unit
            .netlist
            .as_mut()
            .expect("build-clock-tree requires emit-netlist to have run");
        let splitters = build_clock_tree(netlist, "clk");
        Ok(format!("{splitters} clock splitters"))
    }
}

// ---------------------------------------------------------------------------
// Cost-model-driven schedule planning and the latency/area Pareto sweep.
// ---------------------------------------------------------------------------

/// One priced schedule candidate from a [`SynthPlanner`] evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedCandidate {
    /// The schedule that was evaluated.
    pub schedule: Schedule,
    /// Its exact planned cell counts and depth.
    pub planned: PlannedCost,
    /// Its Josephson-junction count under the planner's cell library.
    pub jj: u64,
}

/// The outcome of planning one design: the chosen schedule plus every
/// candidate's price, so reports and benches can show *why* the planner
/// chose what it chose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulePlan {
    /// The winning schedule (cheapest JJ count; ties go to the earlier,
    /// more conservative candidate in [`Schedule::candidates`] order).
    pub chosen: Schedule,
    /// All evaluated candidates, in [`Schedule::candidates`] order.
    pub candidates: Vec<PlannedCandidate>,
}

impl SchedulePlan {
    /// The plan over `candidates`: the cheapest by JJ count, ties going to
    /// the earlier candidate.
    fn cheapest_of(candidates: Vec<PlannedCandidate>) -> SchedulePlan {
        let chosen = candidates
            .iter()
            .min_by_key(|c| c.jj)
            .expect("candidate list is never empty")
            .schedule;
        SchedulePlan { chosen, candidates }
    }

    /// The same candidates priced under `library`, and the winner chosen
    /// again. Planned cell counts do not depend on the library, so this is
    /// the plan [`SynthPlanner::plan`] makes under `library`.
    fn repriced(&self, library: &CellLibrary) -> SchedulePlan {
        SchedulePlan::cheapest_of(
            self.candidates
                .iter()
                .map(|c| PlannedCandidate {
                    jj: c.planned.jj(library),
                    ..*c
                })
                .collect(),
        )
    }

    /// The planned cost of the chosen schedule.
    ///
    /// # Panics
    /// Panics if the plan is empty (never produced by [`SynthPlanner`]).
    #[must_use]
    pub fn chosen_cost(&self) -> PlannedCost {
        self.candidates
            .iter()
            .find(|c| c.schedule == self.chosen)
            .expect("the chosen schedule is always one of the candidates")
            .planned
    }

    /// The lowest planned XOR count among candidates that use `kind`
    /// factoring, or `None` if no candidate did.
    ///
    /// This is the number design reports quote when comparing factoring
    /// algorithms head-to-head on one generator (e.g. Paar vs
    /// cancellation-aware on a dense BCH matrix), independent of which
    /// schedule won the JJ-count tiebreak: each factoring kind is
    /// represented by its best tree-shaping variant.
    #[must_use]
    pub fn best_xor_for(&self, kind: FactoringKind) -> Option<u64> {
        self.candidates
            .iter()
            .filter(|c| c.schedule.factoring == kind)
            .map(|c| c.planned.xor)
            .min()
    }
}

/// Records planner accounting into the global telemetry registry: run and
/// candidate counts, whether the emitted netlist matched the planned cost
/// exactly, and the planned-vs-emitted JJ delta. The planner prices
/// candidates on a scratch lowering, so any delta against the emitted
/// netlist is a cost-model bug worth surfacing in the run report.
fn record_plan_metrics(plan: &SchedulePlan, result: &SynthResult, library: &CellLibrary) {
    let planned = plan.chosen_cost();
    let emitted = result.report.final_cost();
    let registry = sfq_telemetry::global();
    registry.counter("synth.plan.runs").inc();
    registry
        .counter("synth.plan.candidates_priced")
        .add(plan.candidates.len() as u64);
    // Both outcomes are registered, so a clean run still shows
    // `synth.plan.mismatched` at 0.
    let exact = registry.counter("synth.plan.exact");
    let mismatched = registry.counter("synth.plan.mismatched");
    if planned == emitted {
        exact.inc();
    } else {
        mismatched.inc();
    }
    registry
        .gauge("synth.plan.last_delta_jj")
        .set(emitted.jj(library) as i64 - planned.jj(library) as i64);
}

/// Cost-model-driven pass planning: prices every [`Schedule`] candidate
/// against a [`CellLibrary`] and synthesizes with the cheapest one, so
/// libraries with different DFF/splitter cost ratios genuinely produce
/// different pipelines.
///
/// [`SynthPlanner::run`] is the planned-synthesis path. Pricing runs each
/// factoring kind once; the chosen kind's factored IR then goes through the
/// rest of [`PassManager::run`]'s loop, so no design is factored twice and
/// the netlist and report equal a [`PassManager::with_schedule`] run of the
/// chosen schedule.
///
/// # Example
///
/// ```
/// use gf2::BitMat;
/// use sfq_cells::CellLibrary;
/// use sfq_netlist::pass::{PipelineOptions, SynthPlanner};
///
/// let generator = BitMat::from_str_rows(&["11100001", "10011001", "01010101", "11010010"]);
/// let library = CellLibrary::coldflux();
/// // The catalog attaches `sfq_sim::equivalence::verifier()`; this stand-in
/// // only checks the output count.
/// let (result, plan) = SynthPlanner::new(PipelineOptions::default(), &library)
///     .with_netlist_verifier(Box::new(|netlist, g| {
///         (netlist.outputs().len() == g.cols())
///             .then_some(())
///             .ok_or_else(|| "output count mismatch".to_string())
///     }))
///     .run("h84", &generator)
///     .unwrap();
/// // The paper's Hamming(8,4) budget: factoring cannot beat 6 XOR at depth
/// // 2, so the conservative Paar schedule wins the tie and the netlist
/// // matches Table II cell for cell.
/// assert_eq!(result.report.final_cost().xor, 6);
/// assert_eq!(result.report.final_cost(), plan.chosen_cost());
/// assert_eq!(plan.candidates.len(), 6);
/// ```
pub struct SynthPlanner<'lib> {
    options: PipelineOptions,
    library: &'lib CellLibrary,
    verifier: Option<NetlistVerifier>,
}

impl<'lib> SynthPlanner<'lib> {
    /// A planner for the given pipeline options and cell library.
    #[must_use]
    pub fn new(options: PipelineOptions, library: &'lib CellLibrary) -> Self {
        SynthPlanner {
            options,
            library,
            verifier: None,
        }
    }

    /// Attaches a gate-level verifier to [`SynthPlanner::run`] (see
    /// [`PassManager::with_netlist_verifier`]).
    #[must_use]
    pub fn with_netlist_verifier(mut self, verifier: NetlistVerifier) -> Self {
        self.verifier = Some(verifier);
        self
    }

    /// Prices every schedule candidate for `generator` and picks the
    /// cheapest (by JJ count, then by candidate order on ties).
    #[must_use]
    pub fn plan(&self, generator: &BitMat) -> SchedulePlan {
        self.price(generator).0
    }

    /// The body of [`SynthPlanner::plan`]. Each factoring kind runs once,
    /// for real, on a fresh unit, timed into its `synth.pass.<name>.ns`
    /// histogram like a [`PassManager`] pass; [`planned_cost`] then prices
    /// the factored IR under each tree shaping (stretch, then compact) by
    /// simulating tree balancing and fan-out planning, which matches
    /// emission exactly. One factored IR prices both shapings because no
    /// factoring pass reads [`Schedule::stretch`]. No netlist is built, and
    /// every kind's factored unit and pass note come back with the plan.
    fn price(&self, generator: &BitMat) -> (SchedulePlan, [(SynthUnit, String); 3]) {
        let mut candidates = Vec::new();
        let factored = FactoringKind::ALL.map(|factoring| {
            let shapings = Schedule::shapings(factoring);
            let mut unit = SynthUnit::new("plan", generator, self.options, shapings[0]);
            let pass = factoring.pass();
            let detail = {
                let _span = sfq_telemetry::SpanTimer::start(pass_timer(pass.as_ref()));
                pass.run(&mut unit)
                    .expect("IR factoring passes are infallible")
            };
            debug_assert!(unit.ir.verify_against(generator).is_ok());
            for schedule in shapings {
                unit.schedule = schedule;
                let planned = planned_cost(&unit);
                candidates.push(PlannedCandidate {
                    schedule,
                    planned,
                    jj: planned.jj(self.library),
                });
            }
            (unit, detail)
        });
        (SchedulePlan::cheapest_of(candidates), factored)
    }

    /// Plans, then lowers the chosen factoring kind's own factored IR
    /// through the remaining passes and the attached verifier.
    ///
    /// # Errors
    /// Propagates any [`PassError`] from the chosen pipeline (see
    /// [`PassManager::run`]).
    pub fn run(
        self,
        name: &str,
        generator: &BitMat,
    ) -> Result<(SynthResult, SchedulePlan), PassError> {
        let (plan, factored) = self.price(generator);
        let (mut unit, detail) = (factored.into_iter())
            .find(|(unit, _)| unit.schedule.factoring == plan.chosen.factoring)
            .expect("every factoring kind is priced");
        let before = planned_cost(&SynthUnit::new(name, generator, self.options, plan.chosen));
        unit.name = name.to_string();
        unit.schedule = plan.chosen;
        let mut manager = PassManager::with_schedule(self.options, plan.chosen);
        if let Some(verifier) = self.verifier {
            manager = manager.with_netlist_verifier(verifier);
        }
        let factoring = account(&unit, manager.passes[0].name(), before, detail)?;
        let result = manager.lower(unit, vec![factoring])?;
        record_plan_metrics(&plan, &result, self.library);
        Ok((result, plan))
    }
}

/// One point of a [`pareto_sweep`]: the planner's best schedule at a given
/// `depth_slack`, priced against the sweep's cell library.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Extra clocked stages the factoring pass was allowed
    /// ([`PipelineOptions::depth_slack`]).
    pub depth_slack: usize,
    /// The schedule the planner chose at this slack.
    pub schedule: Schedule,
    /// Exact planned cost (depth is the realized encoding latency, which
    /// may be less than `budget + depth_slack` when the slack does not pay).
    pub planned: PlannedCost,
    /// Josephson-junction count under the sweep's library.
    pub jj: u64,
    /// Whether the point is on the latency/area Pareto front: no other
    /// point of the sweep is at most as deep *and* strictly cheaper, or
    /// strictly shallower and at most as expensive.
    pub on_front: bool,
}

/// Sweeps `depth_slack` from 0 to `max_slack`, planning each point with a
/// [`SynthPlanner`], and marks the (encoding latency, JJ count) Pareto
/// front. This is the latency/area trade-off view: slack 0 is the paper's
/// "never worsen latency" operating point, larger slacks buy smaller
/// circuits with slower encoders.
///
/// # Example
///
/// ```
/// use gf2::BitMat;
/// use sfq_cells::CellLibrary;
/// use sfq_netlist::pass::{pareto_sweep, PipelineOptions};
///
/// let generator = BitMat::from_str_rows(&["11100001", "10011001", "01010101", "11010010"]);
/// let points = pareto_sweep(&generator, &PipelineOptions::default(), &CellLibrary::coldflux(), 2);
/// assert_eq!(points.len(), 3);
/// // Slack 0 is always on the front: no other point can be shallower,
/// // because the deepest parity already needs its full balanced tree.
/// assert!(points[0].on_front);
/// assert!(points.iter().all(|p| p.planned.depth >= points[0].planned.depth));
/// ```
#[must_use]
pub fn pareto_sweep(
    generator: &BitMat,
    options: &PipelineOptions,
    library: &CellLibrary,
    max_slack: usize,
) -> Vec<ParetoPoint> {
    let options = PipelineOptions {
        depth_slack: 0,
        ..*options
    };
    let slack0 = SynthPlanner::new(options, library).plan(generator);
    pareto_sweep_from(&slack0, generator, &options, library, max_slack)
}

/// [`pareto_sweep`] with slack 0 taken from `slack0`, a plan of `generator`
/// at `depth_slack` 0 under any cell library (such as the one a design was
/// built with): re-priced under `library`, it is the plan the sweep would
/// make, so only slacks 1 to `max_slack` are planned.
#[must_use]
pub fn pareto_sweep_from(
    slack0: &SchedulePlan,
    generator: &BitMat,
    options: &PipelineOptions,
    library: &CellLibrary,
    max_slack: usize,
) -> Vec<ParetoPoint> {
    let mut points: Vec<ParetoPoint> = (0..=max_slack)
        .map(|depth_slack| {
            let plan = if depth_slack == 0 {
                slack0.repriced(library)
            } else {
                let options = PipelineOptions {
                    depth_slack,
                    ..*options
                };
                SynthPlanner::new(options, library).plan(generator)
            };
            let planned = plan.chosen_cost();
            ParetoPoint {
                depth_slack,
                schedule: plan.chosen,
                planned,
                jj: planned.jj(library),
                on_front: false,
            }
        })
        .collect();
    for i in 0..points.len() {
        let p = points[i];
        points[i].on_front = !points.iter().enumerate().any(|(l, q)| {
            l != i
                && ((q.planned.depth <= p.planned.depth && q.jj < p.jj)
                    || (q.planned.depth < p.planned.depth && q.jj <= p.jj))
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drc;

    fn hamming84_generator() -> BitMat {
        BitMat::from_str_rows(&["11100001", "10011001", "01010101", "11010010"])
    }

    fn run_standard(options: PipelineOptions) -> SynthResult {
        PassManager::standard(options)
            .run("h84", &hamming84_generator())
            .expect("pipeline must succeed")
    }

    #[test]
    fn standard_pipeline_has_five_passes_and_reports_each() {
        let result = run_standard(PipelineOptions::default());
        assert_eq!(result.report.passes.len(), 5);
        let names: Vec<&str> = result
            .report
            .passes
            .iter()
            .map(|p| p.pass.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "factor-common-pairs",
                "balance-xor-trees",
                "plan-fanout",
                "emit-netlist",
                "build-clock-tree"
            ]
        );
        let summary = result.report.summary();
        for name in names {
            assert!(summary.contains(name), "{summary}");
        }
    }

    #[test]
    fn factoring_report_shows_the_xor_savings() {
        let result = run_standard(PipelineOptions::default());
        let factoring = &result.report.passes[0];
        // The tree-lowering stage already reuses bit-identical subtrees (7
        // XOR instead of the fully unshared 8); explicit factoring under the
        // depth budget reaches the paper's 6.
        assert_eq!(factoring.before.xor, 7);
        assert_eq!(factoring.after.xor, 6);
        assert_eq!(factoring.before.depth, 2);
        assert_eq!(
            factoring.after.depth, 2,
            "sharing must not deepen the circuit"
        );
        assert!(
            factoring.detail.contains("2 shared factors"),
            "{}",
            factoring.detail
        );
    }

    #[test]
    fn planned_costs_match_the_emitted_netlist_exactly() {
        for discipline in [InputDiscipline::Hold, InputDiscipline::Align] {
            let result = run_standard(PipelineOptions {
                discipline,
                ..Default::default()
            });
            let nl = &result.netlist;
            let final_cost = result.report.final_cost();
            assert_eq!(final_cost.xor, nl.count_cells(CellKind::Xor) as u64);
            assert_eq!(final_cost.dff, nl.count_cells(CellKind::Dff) as u64);
            assert_eq!(
                final_cost.splitter,
                nl.count_cells(CellKind::Splitter) as u64
            );
            assert_eq!(
                final_cost.sfq_to_dc,
                nl.count_cells(CellKind::SfqToDc) as u64
            );
            assert_eq!(final_cost.depth, nl.logic_depth());
            // The plan-fanout stage predicted the same numbers before any
            // cell existed — planning and emission must never drift apart.
            let planned = result.report.passes[2].after;
            assert_eq!(planned, final_cost, "discipline {discipline:?}");
        }
    }

    /// The rescanning form of `factor_common_pairs`: every round re-counts
    /// every output's pairs into a `BTreeMap`. Kept as the oracle of the
    /// incremental tally.
    fn rescanning_common_pairs(ir: &mut ParityIr, budget: usize) -> usize {
        let mut cache = factor_cache(ir);
        let mut extracted = 0usize;
        loop {
            // Count, per candidate pair, the equations where substitution is
            // depth-feasible. BTreeMap keeps the tie-break deterministic
            // (smallest pair wins among equal counts).
            let mut candidates: BTreeMap<(SignalId, SignalId), Vec<usize>> = BTreeMap::new();
            for j in 0..ir.num_outputs() {
                let terms = ir.output_terms(j);
                if terms.len() < 2 {
                    continue;
                }
                let capacity: u128 = terms.iter().map(|&t| 1u128 << ir.depth(t)).sum();
                for x in 0..terms.len() {
                    for y in (x + 1)..terms.len() {
                        let (a, b) = (terms[x], terms[y]);
                        if join_fits(capacity, ir.depth(a), ir.depth(b), budget) {
                            candidates.entry((a, b)).or_default().push(j);
                        }
                    }
                }
            }
            // Term-occurrence frequency, used as a secondary criterion: when
            // several pairs are shared by the same number of equations,
            // extracting the one built from the *least*-used signals commits
            // the rare signals first and keeps the widely-shared signals
            // available for later, larger extractions — measurably better on
            // the SEC-DED family than frequency-greedy, while the paper's
            // three small encoders (whose optima are forced) are unaffected.
            // Remaining ties fall back to the smallest pair, which BTreeMap
            // iteration order provides.
            let mut freq: BTreeMap<SignalId, usize> = BTreeMap::new();
            for j in 0..ir.num_outputs() {
                let terms = ir.output_terms(j);
                if terms.len() < 2 {
                    continue;
                }
                for &t in terms {
                    *freq.entry(t).or_insert(0) += 1;
                }
            }
            let mut best: Option<((SignalId, SignalId), &Vec<usize>, usize)> = None;
            for (pair, outs) in &candidates {
                if outs.len() < 2 {
                    continue;
                }
                let tiebreak = usize::MAX - (freq[&pair.0] + freq[&pair.1]);
                if best.is_none_or(|(_, b, bt)| (outs.len(), tiebreak) > (b.len(), bt)) {
                    best = Some((*pair, outs, tiebreak));
                }
            }
            let Some(((a, b), outs, _)) = best else { break };
            let outs = outs.clone();
            let factor = *cache.entry((a, b)).or_insert_with(|| ir.add_factor(a, b));
            for j in outs {
                ir.substitute(j, a, b, factor);
            }
            extracted += 1;
        }
        extracted
    }

    #[test]
    fn incremental_pair_tally_matches_the_rescanning_oracle() {
        for seed in 0..48u64 {
            let mut state = seed;
            let k = 3 + crate::testkit::splitmix(&mut state) as usize % 22;
            let outputs = 2 + crate::testkit::splitmix(&mut state) as usize % 15;
            let g = crate::testkit::random_parity_system(state, k, outputs);
            for slack in 0..=2 {
                let mut fast = ParityIr::from_generator(&g);
                let budget = fast.depth_budget() + slack;
                let mut slow = fast.clone();
                assert_eq!(
                    factor_common_pairs(&mut fast, budget),
                    rescanning_common_pairs(&mut slow, budget),
                    "seed {seed}, slack {slack}"
                );
                assert_eq!(fast, slow, "seed {seed}, slack {slack}");
            }
        }
    }

    #[test]
    fn kraft_join_check_matches_the_achievable_depth() {
        // SplitMix64 over random depth lists: the O(1) capacity test must
        // agree with recomputing the rewritten list's achievable depth.
        let mut state = 0x4A01_4F17_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound) as usize
        };
        for _ in 0..5000 {
            let depths: Vec<usize> = (0..2 + next(14)).map(|_| next(7)).collect();
            let x = next(depths.len() as u64);
            let y = (x + 1 + next(depths.len() as u64 - 1)) % depths.len();
            let budget = next(10);
            let capacity: u128 = depths.iter().map(|&d| 1u128 << d).sum();
            let rewritten = (depths.iter().enumerate())
                .filter(|&(i, _)| i != x && i != y)
                .map(|(_, &d)| d)
                .chain([depths[x].max(depths[y]) + 1]);
            assert_eq!(
                join_fits(capacity, depths[x], depths[y], budget),
                crate::ir::achievable_depth_of(rewritten) <= budget,
                "depths {depths:?}, join {x} and {y}, budget {budget}"
            );
        }
    }

    #[test]
    fn disabling_factoring_falls_back_to_plain_tree_lowering() {
        let schedule = Schedule {
            factoring: FactoringKind::None,
            ..Schedule::default()
        };
        let result = PassManager::with_schedule(PipelineOptions::default(), schedule)
            .run("h84", &hamming84_generator())
            .unwrap();
        assert_eq!(result.report.passes[0].detail, "no factoring by schedule");
        // Identical-subtree reuse during lowering still shares one gate
        // (7 instead of the fully unshared 8 of the naive flow), but the
        // depth-budgeted factoring win (6) requires the pass.
        assert_eq!(result.netlist.count_cells(CellKind::Xor), 7);
        assert!(drc::is_clean(&result.netlist));
    }

    #[test]
    fn netlist_verifier_failures_are_reported() {
        let err = PassManager::standard(PipelineOptions::default())
            .with_netlist_verifier(Box::new(|_, _| Err("simulated mismatch".to_string())))
            .run("h84", &hamming84_generator())
            .unwrap_err();
        assert_eq!(err, PassError::Verifier("simulated mismatch".to_string()));
        assert!(err.to_string().contains("simulated mismatch"));
    }

    #[test]
    fn accepting_netlist_verifier_sees_the_final_netlist() {
        let result = PassManager::standard(PipelineOptions::default())
            .with_netlist_verifier(Box::new(|nl, g| {
                if nl.outputs().len() == g.cols() {
                    Ok(())
                } else {
                    Err("output count mismatch".to_string())
                }
            }))
            .run("h84", &hamming84_generator());
        assert!(result.is_ok());
    }

    #[test]
    fn a_broken_pass_is_caught_by_the_equivalence_check() {
        struct CorruptingPass;
        impl Pass for CorruptingPass {
            fn name(&self) -> &'static str {
                "corrupt"
            }
            fn run(&self, unit: &mut SynthUnit) -> Result<String, PassError> {
                // Swap two terms of output 0 for a factor that does not
                // cover them: functional corruption a structural check
                // would miss.
                let t = unit.ir.add_factor(0, 2);
                let terms: Vec<SignalId> = unit.ir.output_terms(0).to_vec();
                unit.ir.substitute(0, terms[0], terms[1], t);
                Ok("corrupted".to_string())
            }
        }
        let mut manager = PassManager::standard(PipelineOptions::default());
        manager.passes.insert(0, Box::new(CorruptingPass));
        let err = manager.run("h84", &hamming84_generator()).unwrap_err();
        match err {
            PassError::Equivalence { pass, error } => {
                assert_eq!(pass, "corrupt");
                assert_eq!(error.output, 0);
            }
            other => panic!("expected an equivalence error, got {other:?}"),
        }
    }

    #[test]
    fn align_discipline_inserts_shared_alignment_dffs() {
        // c1 = m1, c2 = m1+m2+m3: the 3-term tree pairs a depth-1 factor
        // with a depth-0 input, which Align must pad through a DFF.
        let g = BitMat::from_str_rows(&["11", "01", "01"]);
        let hold = PassManager::standard(PipelineOptions::default())
            .run("hold", &g)
            .unwrap();
        let align = PassManager::standard(PipelineOptions {
            discipline: InputDiscipline::Align,
            ..Default::default()
        })
        .run("align", &g)
        .unwrap();
        assert!(drc::is_clean(&hold.netlist));
        assert!(drc::is_clean(&align.netlist));
        assert_eq!(
            align.netlist.count_cells(CellKind::Dff),
            hold.netlist.count_cells(CellKind::Dff) + 1,
            "one alignment DFF for the unbalanced operand"
        );
        assert_eq!(
            align.netlist.count_cells(CellKind::Xor),
            hold.netlist.count_cells(CellKind::Xor)
        );
    }

    #[test]
    fn planned_cost_histogram_and_jj_queries_work() {
        use sfq_cells::CellLibrary;
        let cost = PlannedCost {
            xor: 6,
            dff: 8,
            splitter: 23,
            sfq_to_dc: 8,
            depth: 2,
        };
        let lib = CellLibrary::coldflux();
        assert_eq!(cost.jj(&lib), 278, "the Hamming(8,4) Table II row");
        assert_eq!(cost.histogram()[&CellKind::Xor], 6);
    }

    /// A small Align-discipline system whose Paar and cancellation
    /// schedules genuinely trade XOR against alignment DFFs (found by
    /// scanning random generators): (8 XOR, 14 DFF) vs (9 XOR, 12 DFF) at
    /// equal splitter count — so the cheapest schedule depends on the cell
    /// library's XOR/DFF cost ratio.
    fn crossing_generator() -> (BitMat, PipelineOptions) {
        let g = BitMat::from_str_rows(&["1100100", "1000110", "0011101", "1011100", "1101111"]);
        let options = PipelineOptions {
            discipline: InputDiscipline::Align,
            ..Default::default()
        };
        (g, options)
    }

    #[test]
    fn planner_picks_the_cheapest_schedule_per_library() {
        use sfq_cells::CellLibrary;
        let (g, options) = crossing_generator();
        let lib = CellLibrary::coldflux();
        let plan = SynthPlanner::new(options, &lib).plan(&g);
        assert_eq!(plan.candidates.len(), Schedule::candidates().len());
        let chosen_jj = plan
            .candidates
            .iter()
            .find(|c| c.schedule == plan.chosen)
            .expect("chosen is a candidate")
            .jj;
        assert!(plan.candidates.iter().all(|c| chosen_jj <= c.jj));
        // Planning is exact: running the chosen pipeline reproduces the
        // planned cost cell for cell.
        let (result, plan2) = SynthPlanner::new(options, &lib).run("plan", &g).unwrap();
        assert_eq!(plan2.chosen, plan.chosen);
        assert_eq!(result.report.final_cost(), plan.chosen_cost());
        assert_eq!(result.report.schedule, plan.chosen);
    }

    #[test]
    fn best_xor_per_factoring_kind_is_the_minimum_over_shapings() {
        use sfq_cells::CellLibrary;
        let (g, options) = crossing_generator();
        let lib = CellLibrary::coldflux();
        let plan = SynthPlanner::new(options, &lib).plan(&g);
        for kind in [
            FactoringKind::Paar,
            FactoringKind::Cancellation,
            FactoringKind::None,
        ] {
            let expected = plan
                .candidates
                .iter()
                .filter(|c| c.schedule.factoring == kind)
                .map(|c| c.planned.xor)
                .min();
            assert_eq!(plan.best_xor_for(kind), expected);
            assert!(expected.is_some(), "every kind is priced");
        }
        // Unfactored trees never beat factored schedules on XOR count.
        assert!(plan.best_xor_for(FactoringKind::Paar) <= plan.best_xor_for(FactoringKind::None));
    }

    #[test]
    fn different_cost_ratios_produce_different_schedules() {
        use sfq_cells::{CellLibrary, CellParams};
        let (g, options) = crossing_generator();
        let coldflux = CellLibrary::coldflux();
        // A library whose XOR gates dwarf its flip-flops: the extra
        // alignment DFFs of the Paar shape are cheaper than the extra XOR
        // of the cancellation shape.
        let mut xor_heavy = CellLibrary::coldflux();
        let xor = CellParams {
            jj_count: 150,
            ..xor_heavy.params(CellKind::Xor).clone()
        };
        xor_heavy.set_params(xor);
        let a = SynthPlanner::new(options, &coldflux).plan(&g);
        let b = SynthPlanner::new(options, &xor_heavy).plan(&g);
        assert_ne!(
            a.chosen,
            b.chosen,
            "coldflux {} vs xor-heavy {}",
            a.chosen.label(),
            b.chosen.label()
        );
        // Planned cell counts do not depend on the library, so re-pricing
        // one library's plan under the other makes the other's choice, and a
        // sweep may start from it.
        assert_eq!(a.repriced(&xor_heavy), b);
        assert_eq!(
            pareto_sweep_from(&a, &g, &options, &xor_heavy, 2),
            pareto_sweep(&g, &options, &xor_heavy, 2)
        );
        // Both choices are netlist-exact under their own library.
        for (plan, lib) in [(&a, &coldflux), (&b, &xor_heavy)] {
            let result = assert_planned_lowering_matches_a_fixed_run(&g, options, lib);
            assert_eq!(
                result.report.final_cost().cost(lib).jj_count,
                plan.candidates
                    .iter()
                    .find(|c| c.schedule == plan.chosen)
                    .unwrap()
                    .jj
            );
        }
        // Planned lowering holds on systems outside the catalog too.
        for seed in 0..4u64 {
            let mut state = seed;
            let k = 4 + crate::testkit::splitmix(&mut state) as usize % 9;
            let outputs = 2 + crate::testkit::splitmix(&mut state) as usize % 7;
            let g = crate::testkit::random_parity_system(state, k, outputs);
            for (depth_slack, lib) in (0..=2).flat_map(|s| [(s, &coldflux), (s, &xor_heavy)]) {
                let options = PipelineOptions {
                    depth_slack,
                    ..options
                };
                assert_planned_lowering_matches_a_fixed_run(&g, options, lib);
            }
        }
    }

    /// `SynthPlanner::run` lowers the chosen kind's factored IR; the result
    /// must equal factoring again from the generator with the fixed
    /// schedule it chose, netlist and report alike.
    fn assert_planned_lowering_matches_a_fixed_run(
        g: &BitMat,
        options: PipelineOptions,
        lib: &CellLibrary,
    ) -> SynthResult {
        let (planned, plan) = SynthPlanner::new(options, lib).run("flip", g).unwrap();
        let fixed = PassManager::with_schedule(options, plan.chosen)
            .run("flip", g)
            .unwrap();
        let case = format!("{g:?}, {options:?}, {}", plan.chosen.label());
        assert_eq!(planned.netlist.to_text(), fixed.netlist.to_text(), "{case}");
        assert_eq!(planned.report, fixed.report, "{case}");
        assert_eq!(plan, SynthPlanner::new(options, lib).plan(g), "{case}");
        planned
    }

    #[test]
    fn pareto_sweep_marks_a_front_and_slack_zero_is_never_dominated() {
        use sfq_cells::CellLibrary;
        let (g, options) = crossing_generator();
        let lib = CellLibrary::coldflux();
        let points = pareto_sweep(&g, &options, &lib, 3);
        assert_eq!(points.len(), 4);
        assert!(points[0].on_front, "slack 0 cannot be beaten on latency");
        assert!(points.iter().any(|p| p.on_front));
        for p in &points {
            // Realized depth never exceeds the allowed budget...
            assert!(p.planned.depth <= points[0].planned.depth + p.depth_slack);
            // ...and the planned JJ price matches the planned cost.
            assert_eq!(p.jj, p.planned.jj(&lib));
        }
        // Front marking is sound: no point on the front is dominated.
        for p in points.iter().filter(|p| p.on_front) {
            assert!(!points.iter().any(|q| {
                (q.planned.depth <= p.planned.depth && q.jj < p.jj)
                    || (q.planned.depth < p.planned.depth && q.jj <= p.jj)
            }));
        }
    }

    #[test]
    fn schedule_labels_are_distinct() {
        let labels: std::collections::BTreeSet<String> = Schedule::candidates()
            .into_iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(labels.len(), Schedule::candidates().len());
        assert!(labels.contains("paar+stretch"));
        assert!(labels.contains("cancel+compact"));
    }
}
