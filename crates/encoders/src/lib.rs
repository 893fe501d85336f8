//! Lightweight SFQ error-correction code encoders — the primary contribution
//! of the paper.
//!
//! Every coded design in the catalog — the paper's Hamming(7,4),
//! Hamming(8,4) (Fig. 2) and RM(1,3) (Fig. 4) encoders as well as the
//! synthesized SEC-DED family up to (72,64) — is derived from its generator
//! matrix by the optimizing pass pipeline of `sfq-netlist`
//! ([`sfq_netlist::pass`]): greedy common-pair XOR factoring under a depth
//! budget, XOR-tree balancing with pad elision, splitter fan-out and
//! alignment planning, netlist emission, and clock-tree construction. The
//! pipeline reproduces the paper's hand-drawn circuits cell-for-cell
//! (Table II budgets: 5/6/8 XOR for Hamming(7,4)/Hamming(8,4)/RM(1,3)), and
//! every synthesis run ends with a pulse-level simulation check against the
//! reference code. [`EncoderKind::pipeline_options`] records the per-design
//! configuration — RM(1,3) uses the alignment-DFF discipline of Fig. 4, the
//! Hamming and SEC-DED designs the flux-holding discipline of Fig. 2.
//!
//! The only remaining hand-built netlist is
//! [`no_encoder::build_netlist`] — the uncoded 4-bit baseline of Fig. 5,
//! which contains no logic to synthesize.
//!
//! [`EncoderDesign`] bundles a circuit with its reference code (from the
//! `ecc` crate) and its receiver-side decoder, and [`table2`] regenerates the
//! circuit-level comparison of Table II, extended with the naive
//! (sharing-free) synthesis costs the pipeline is measured against.
//!
//! # Example
//!
//! ```
//! use encoders::{EncoderDesign, EncoderKind};
//! use gf2::BitVec;
//!
//! let enc = EncoderDesign::build(EncoderKind::Hamming84);
//! // Gate-level simulation of the circuit reproduces the reference encoding:
//! // message 1011 -> codeword 01100110 (the Fig. 3 stimulus).
//! let cw = enc.encode_gate_level(&BitVec::from_str01("1011"));
//! assert_eq!(cw.to_string01(), "01100110");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod no_encoder;
pub mod table2;

pub use ecc::BchSpec;
pub use table2::{catalog_table_rows, paper_table2, table2_row_for, table2_rows, Table2Row};

use ecc::{Bch, ColumnCode, Decoded, HardDecoder, Ldpc, Rm13};
use gf2::{BitMat, BitVec};
use serde::{Deserialize, Serialize};
use sfq_cells::CellLibrary;
use sfq_netlist::pass::{
    pareto_sweep, pareto_sweep_from, InputDiscipline, ParetoPoint, PipelineOptions, PipelineReport,
    SchedulePlan, SynthPlanner,
};
use sfq_netlist::{synth, Netlist, NetlistStats};
use sfq_sim::equivalence;
use sfq_sim::{FaultMap, GateLevelSim, Stimulus, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which encoder design to build.
///
/// Beyond the paper's three fixed encoders and the uncoded baseline, the
/// kind space enumerates *parameterized family members*: [`EncoderKind::SecDed`]
/// selects a shortened extended-Hamming SEC-DED code by its data-width
/// exponent (`m = 6` is the wide (72,64) code of real memory/link
/// deployments). [`EncoderKind::catalog`] lists every member the workspace
/// can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EncoderKind {
    /// Uncoded 4-bit transmission (the "no encoder" curve of Fig. 5).
    None,
    /// Hamming(7,4) encoder.
    Hamming74,
    /// Extended Hamming(8,4) encoder (Fig. 2).
    Hamming84,
    /// First-order Reed–Muller RM(1,3) encoder (Fig. 4).
    Rm13,
    /// SEC-DED family member with `2^m` data bits (`m` in
    /// [`ecc::SECDED_MIN_M`]`..=`[`ecc::SECDED_MAX_M`]); synthesized with
    /// the generic generator-matrix flow rather than a hand-drawn schematic.
    SecDed(u8),
    /// The wide Shortened Hamming(85,64) demonstration code: 21 check bits —
    /// the first catalog member whose redundancy exceeds the batch engine's
    /// old 20-bit action-table limit, decodable only by column matching.
    /// Synthesized with the generic generator-matrix flow.
    WideHamming8564,
    /// A multi-error BCH registry member, selected by its
    /// [`BchSpec`] `(m, t, decode_radius)` triple (see
    /// [`BchSpec::REGISTRY`]: BCH(31,16) `t = 2`, BCH(63,51) `t = 2`, and
    /// BCH(63,45) `t = 3`). The dense cyclic generator polynomials produce
    /// parity equations with far more shared structure than the Hamming
    /// family — a genuine stress test for the cancellation-aware factoring
    /// schedule candidates. Synthesized with the generic
    /// generator-matrix flow.
    Bch(BchSpec),
    /// The regular Gallager LDPC(60,32) code (column weight 3, row weight
    /// 6), decoded by synchronous bit flipping — the catalog's first
    /// iteratively decoded member. Its sparse generator nonetheless has
    /// dense systematic parity columns, so it goes through the same
    /// generator-matrix synthesis flow.
    Ldpc,
}

impl EncoderKind {
    /// The three coded designs plus the uncoded baseline, in the order used
    /// by the paper's figures.
    pub const ALL: [EncoderKind; 4] = [
        EncoderKind::Rm13,
        EncoderKind::Hamming74,
        EncoderKind::Hamming84,
        EncoderKind::None,
    ];

    /// Every buildable design: the paper's four, the SEC-DED family from
    /// (13,8) up to (72,64), the wide Shortened Hamming(85,64)
    /// demonstration code, the three multi-error BCH registry members, and
    /// the regular LDPC(60,32) code.
    #[must_use]
    pub fn catalog() -> Vec<EncoderKind> {
        let mut kinds = Self::ALL.to_vec();
        kinds.extend((3..=ecc::SECDED_MAX_M as u8).map(EncoderKind::SecDed));
        kinds.push(EncoderKind::WideHamming8564);
        kinds.extend(BchSpec::REGISTRY.map(EncoderKind::Bch));
        kinds.push(EncoderKind::Ldpc);
        kinds
    }

    /// Display name matching the paper (and, for family members, the coding
    /// literature's `(n,k)` convention).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            EncoderKind::None => "No encoder".to_string(),
            EncoderKind::Hamming74 => "Hamming(7,4)".to_string(),
            EncoderKind::Hamming84 => "Hamming(8,4)".to_string(),
            EncoderKind::Rm13 => "Reed-Muller RM(1,3)".to_string(),
            EncoderKind::SecDed(m) => {
                let k = 1usize << m;
                format!("SEC-DED({},{k})", k + usize::from(*m) + 2)
            }
            EncoderKind::WideHamming8564 => "Shortened Hamming(85,64)".to_string(),
            EncoderKind::Bch(spec) => spec.name(),
            EncoderKind::Ldpc => "LDPC(60,32)".to_string(),
        }
    }

    /// The synthesis-pipeline configuration of this design.
    ///
    /// RM(1,3) reproduces Fig. 4, which aligns the operands of every XOR
    /// with shared DFF chains; the Hamming encoders reproduce Fig. 2, which
    /// relies on flux-holding gates and toggling output drivers instead, and
    /// the SEC-DED family inherits that cheaper discipline.
    #[must_use]
    pub fn pipeline_options(&self) -> PipelineOptions {
        let discipline = match self {
            EncoderKind::Rm13 => InputDiscipline::Align,
            _ => InputDiscipline::Hold,
        };
        PipelineOptions {
            discipline,
            ..Default::default()
        }
    }

    /// The generator matrix of this design's reference code, without
    /// building the circuit (used by schedule planning and the Pareto
    /// sweep). The uncoded baseline's generator is the identity.
    #[must_use]
    pub fn generator(&self) -> BitMat {
        self.reference_code().generator().clone()
    }

    /// The scalar reference code and decoder behind this design: the one
    /// map from kind to code that the circuit, its verifier and the tests
    /// share.
    #[must_use]
    pub fn reference_code(&self) -> Box<dyn HardDecoder + Send + Sync> {
        match *self {
            EncoderKind::None => Box::new(ColumnCode::uncoded(4)),
            EncoderKind::Hamming74 => Box::new(ColumnCode::hamming74()),
            EncoderKind::Hamming84 => Box::new(ColumnCode::hamming84()),
            EncoderKind::Rm13 => Box::new(Rm13::new()),
            EncoderKind::SecDed(m) => Box::new(ColumnCode::sec_ded(usize::from(m))),
            EncoderKind::WideHamming8564 => Box::new(ColumnCode::wide_85_64()),
            EncoderKind::Bch(spec) => Box::new(Bch::from_spec(spec)),
            EncoderKind::Ldpc => Box::new(Ldpc::gallager_60_32()),
        }
    }

    /// The `depth_slack` latency/area Pareto sweep of this design under a
    /// cell library (see [`sfq_netlist::pass::pareto_sweep`]): one planned
    /// point per slack value, with the (encoding latency, JJ count) Pareto
    /// front marked. Returns an empty sweep for the uncoded baseline, which
    /// has no logic to synthesize.
    ///
    /// # Example
    ///
    /// ```
    /// use encoders::EncoderKind;
    /// use sfq_cells::CellLibrary;
    ///
    /// let points = EncoderKind::Hamming84.pareto_sweep(&CellLibrary::coldflux(), 2);
    /// assert_eq!(points.len(), 3);
    /// // Slack 0 is the paper's operating point: latency never regresses.
    /// assert!(points[0].on_front);
    /// assert_eq!(points[0].planned.depth, 2);
    /// ```
    #[must_use]
    pub fn pareto_sweep(&self, library: &CellLibrary, max_slack: usize) -> Vec<ParetoPoint> {
        if *self == EncoderKind::None {
            return Vec::new();
        }
        pareto_sweep(
            &self.generator(),
            &self.pipeline_options(),
            library,
            max_slack,
        )
    }

    /// The netlist name the pipeline gives this design.
    #[must_use]
    pub fn netlist_name(&self) -> String {
        match self {
            EncoderKind::None => "no_encoder".to_string(),
            EncoderKind::Hamming74 => "hamming74_encoder".to_string(),
            EncoderKind::Hamming84 => "hamming84_encoder".to_string(),
            EncoderKind::Rm13 => "rm13_encoder".to_string(),
            EncoderKind::SecDed(m) => {
                let k = 1usize << m;
                format!("secded_{}_{k}_encoder", k + usize::from(*m) + 2)
            }
            EncoderKind::WideHamming8564 => "shamming_85_64_encoder".to_string(),
            EncoderKind::Bch(spec) => {
                let (n, k) = spec.dimensions();
                format!("bch_{n}_{k}_encoder")
            }
            EncoderKind::Ldpc => "ldpc_60_32_encoder".to_string(),
        }
    }
}

/// An encoder circuit bundled with its reference code, gate-level simulator,
/// and receiver-side decoder.
pub struct EncoderDesign {
    kind: EncoderKind,
    name: String,
    netlist: Netlist,
    sim: GateLevelSim,
    code: Box<dyn HardDecoder + Send + Sync>,
    latency: usize,
    synthesis_report: Option<PipelineReport>,
    schedule_plan: Option<SchedulePlan>,
}

impl EncoderDesign {
    /// Builds one of the catalog's encoder designs against the paper's
    /// ColdFlux cell library.
    ///
    /// Every coded design is synthesized from its generator matrix by the
    /// cost-model-driven pass pipeline (a
    /// [`sfq_netlist::pass::SynthPlanner`] prices every [`Schedule`]
    /// candidate and lowers the cheapest one's factored IR) with the
    /// per-design [`EncoderKind::pipeline_options`], and the resulting
    /// netlist is simulation-checked against the reference code before it
    /// is accepted. The uncoded baseline keeps its trivial hand-built data
    /// path.
    ///
    /// [`Schedule`]: sfq_netlist::pass::Schedule
    ///
    /// # Panics
    /// Panics if the pipeline breaks functional equivalence — a synthesis
    /// bug, caught here rather than in a downstream experiment.
    #[must_use]
    pub fn build(kind: EncoderKind) -> Self {
        Self::build_with_library(kind, &CellLibrary::coldflux())
    }

    /// Builds a design with schedule planning priced against a specific
    /// cell library: libraries with different DFF/splitter cost ratios can
    /// legitimately pick different factoring and tree-shaping schedules
    /// (compare [`EncoderDesign::schedule_plan`] across libraries).
    ///
    /// # Panics
    /// Panics if the pipeline breaks functional equivalence.
    #[must_use]
    pub fn build_with_library(kind: EncoderKind, library: &CellLibrary) -> Self {
        let _span =
            sfq_telemetry::SpanTimer::start(sfq_telemetry::global().histogram("encoders.build_ns"));
        sfq_telemetry::global().counter("encoders.builds").inc();
        let code = kind.reference_code();
        let (netlist, synthesis_report, schedule_plan) = if kind == EncoderKind::None {
            (no_encoder::build_netlist(), None, None)
        } else {
            let (result, plan) = SynthPlanner::new(kind.pipeline_options(), library)
                .with_netlist_verifier(equivalence::verifier())
                .run(&kind.netlist_name(), code.generator())
                .unwrap_or_else(|e| panic!("synthesis pipeline failed for {}: {e}", kind.name()));
            (result.netlist, Some(result.report), Some(plan))
        };
        let latency = netlist.logic_depth();
        let sim = GateLevelSim::new(&netlist);
        EncoderDesign {
            kind,
            name: kind.name(),
            netlist,
            sim,
            code,
            latency,
            synthesis_report,
            schedule_plan,
        }
    }

    /// Builds all four designs of the paper (three encoders + uncoded
    /// baseline).
    ///
    /// Unlike [`EncoderDesign::build_catalog`], this builds one design
    /// after another on the calling thread: the four paper designs
    /// synthesize in under 1 ms in total, too little to pay for a worker
    /// thread. Built on worker threads instead, the Fig. 5 benchmark's
    /// set-up read 0.69 → 0.84 ms and 0.96 → 1.22 ms (×1.21–1.27, slower
    /// in 37–39 of 40 alternating runs each, 2-core x86-64).
    #[must_use]
    pub fn build_all() -> Vec<EncoderDesign> {
        EncoderKind::ALL.iter().map(|&k| Self::build(k)).collect()
    }

    /// Builds every member of [`EncoderKind::catalog`], including the
    /// synthesized SEC-DED family.
    ///
    /// The designs are independent, so they are built concurrently, each by
    /// [`EncoderDesign::build`], on up to
    /// [`std::thread::available_parallelism`] scoped workers; the calling
    /// thread is one of them, so on one core nothing is spawned. Workers
    /// claim kinds one at a time, and the result is in catalog order
    /// whatever the interleaving. Synthesis is a function of the kind
    /// alone, so every design (netlist, reports, plan) is the one a serial
    /// build returns.
    ///
    /// # Panics
    /// Panics, with the original message, if a design fails synthesis (see
    /// [`EncoderDesign::build`]): a worker's panic is re-raised on the
    /// calling thread once every worker has stopped.
    ///
    /// # Example
    ///
    /// ```
    /// use encoders::{EncoderDesign, EncoderKind};
    ///
    /// let catalog = EncoderDesign::build_catalog();
    /// assert_eq!(catalog.len(), EncoderKind::catalog().len());
    /// // Every coded member was synthesized by the cost-driven pipeline
    /// // and carries its schedule plan; the uncoded baseline has no logic.
    /// for design in &catalog {
    ///     assert_eq!(
    ///         design.schedule_plan().is_some(),
    ///         design.kind() != EncoderKind::None,
    ///     );
    /// }
    /// ```
    #[must_use]
    pub fn build_catalog() -> Vec<EncoderDesign> {
        build_concurrently(&EncoderKind::catalog())
    }

    /// Which design this is.
    #[must_use]
    pub fn kind(&self) -> EncoderKind {
        self.kind
    }

    /// Display name matching the paper.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate-level netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The per-pass synthesis account of the pipeline run that produced this
    /// design (`None` for the uncoded baseline, which has no logic to
    /// synthesize).
    #[must_use]
    pub fn synthesis_report(&self) -> Option<&PipelineReport> {
        self.synthesis_report.as_ref()
    }

    /// The schedule-planning outcome behind this design: every priced
    /// [`Schedule`](sfq_netlist::pass::Schedule) candidate and the winner
    /// the pipeline ran (`None` for the uncoded baseline).
    #[must_use]
    pub fn schedule_plan(&self) -> Option<&SchedulePlan> {
        self.schedule_plan.as_ref()
    }

    /// The `depth_slack` latency/area Pareto sweep of this design: the
    /// points of [`EncoderKind::pareto_sweep`], with slack 0 taken from
    /// this design's own [`EncoderDesign::schedule_plan`] re-priced under
    /// `library`, so only the larger slacks are planned.
    #[must_use]
    pub fn pareto_sweep(&self, library: &CellLibrary, max_slack: usize) -> Vec<ParetoPoint> {
        let Some(slack0) = &self.schedule_plan else {
            return Vec::new();
        };
        let options = self.kind.pipeline_options();
        pareto_sweep_from(slack0, self.generator(), &options, library, max_slack)
    }

    /// The scalar reference code and decoder this design was built from
    /// (its kind's [`EncoderKind::reference_code`]).
    #[must_use]
    pub fn reference_code(&self) -> &(dyn HardDecoder + Send + Sync) {
        &*self.code
    }

    /// The generator matrix of the reference code.
    #[must_use]
    pub fn generator(&self) -> &BitMat {
        self.code.generator()
    }

    /// The design synthesized by the *naive* sharing-free XOR-tree flow
    /// ([`synth::synthesize_linear_encoder`]) — the cost baseline the
    /// optimizing pipeline is measured against in the extended Table II.
    /// `None` for the uncoded baseline.
    #[must_use]
    pub fn naive_netlist(&self) -> Option<Netlist> {
        if self.kind == EncoderKind::None {
            return None;
        }
        Some(synth::synthesize_linear_encoder(
            &format!("{}_naive", self.kind.netlist_name()),
            self.code.generator(),
        ))
    }

    /// Message length: 4 for the paper's designs, up to 64 for the wide
    /// SEC-DED members.
    #[must_use]
    pub fn k(&self) -> usize {
        self.code.k()
    }

    /// Number of output channels used (7, 8, or 4 for the paper's designs;
    /// up to 72 for the SEC-DED family).
    #[must_use]
    pub fn n(&self) -> usize {
        self.code.n()
    }

    /// Encoding latency in clock cycles (the logic depth of the circuit).
    #[must_use]
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// Circuit statistics against a cell library — one row of Table II.
    #[must_use]
    pub fn stats(&self, library: &CellLibrary) -> NetlistStats {
        NetlistStats::compute(&self.netlist, library)
    }

    /// Reference (mathematical) encoding of a `k`-bit message.
    ///
    /// # Panics
    /// Panics if the message is not `k` bits long.
    #[must_use]
    pub fn encode_reference(&self, message: &BitVec) -> BitVec {
        self.code.encode(message)
    }

    /// Receiver-side decoding of an `n`-bit received word, with the
    /// reference decoder's best-effort policy. Only RM(1,3) resolves
    /// anything differently from `decode`: the paper credits it with
    /// correcting certain 2-bit error patterns (Table I best case), which is
    /// the FHT decoder with spectral tie-breaking.
    #[must_use]
    pub fn decode(&self, received: &BitVec) -> Decoded {
        self.code.decode_best_effort(received)
    }

    /// Encodes a message by simulating the gate-level circuit fault-free and
    /// sampling the SFQ-to-DC output levels after the encoding latency.
    ///
    /// # Panics
    /// Panics if the message is not `k` bits long.
    #[must_use]
    pub fn encode_gate_level(&self, message: &BitVec) -> BitVec {
        let trace = self.simulate(message);
        trace.dc_word_at(self.latency)
    }

    /// Simulates one fault-free transmission and returns the full trace
    /// (used by the Fig. 3 waveform reproduction).
    #[must_use]
    pub fn simulate(&self, message: &BitVec) -> Trace {
        assert_eq!(
            message.len(),
            self.k(),
            "message width must match the design's data width k"
        );
        let mut stim = Stimulus::new(&self.netlist);
        stim.apply_word(message, 0);
        self.sim.run(&stim, self.latency + 1)
    }

    /// Simulates one transmission on a faulty chip and returns the received
    /// word (the SFQ-to-DC levels sampled after the encoding latency).
    #[must_use]
    pub fn transmit_with_faults<R: rand::Rng + ?Sized>(
        &self,
        message: &BitVec,
        faults: &FaultMap,
        rng: &mut R,
    ) -> BitVec {
        assert_eq!(
            message.len(),
            self.k(),
            "message width must match the design's data width k"
        );
        let mut stim = Stimulus::new(&self.netlist);
        stim.apply_word(message, 0);
        let trace = self
            .sim
            .run_with_faults(&stim, self.latency + 1, faults, rng);
        trace.dc_word_at(self.latency)
    }
}

/// Builds `kinds` with [`EncoderDesign::build`] on up to
/// `available_parallelism()` workers, the calling thread among them, and
/// returns the designs in the order of `kinds`. Workers claim kinds from a
/// shared index; a worker's panic is re-raised with its own payload rather
/// than `std::thread::scope`'s generic one.
fn build_concurrently(kinds: &[EncoderKind]) -> Vec<EncoderDesign> {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(kinds.len());
    let next = AtomicUsize::new(0);
    let work = || {
        let mut built = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&kind) = kinds.get(i) else {
                return built;
            };
            built.push((i, EncoderDesign::build(kind)));
        }
    };
    let mut built = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut built = work();
        for handle in spawned {
            match handle.join() {
                Ok(more) => built.extend(more),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        built
    });
    built.sort_unstable_by_key(|&(i, _)| i);
    built.into_iter().map(|(_, design)| design).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_netlist::drc;

    #[test]
    fn all_designs_build_and_pass_drc() {
        for design in EncoderDesign::build_all() {
            let violations = drc::check(design.netlist());
            assert!(violations.is_empty(), "{}: {:?}", design.name(), violations);
        }
    }

    #[test]
    fn gate_level_encoding_matches_reference_for_all_messages() {
        for design in EncoderDesign::build_all() {
            for m in 0u64..16 {
                let msg = BitVec::from_u64(4, m);
                let reference = design.encode_reference(&msg);
                let simulated = design.encode_gate_level(&msg);
                assert_eq!(
                    simulated,
                    reference,
                    "{} disagrees on message {m:04b}",
                    design.name()
                );
            }
        }
    }

    #[test]
    fn fig3_stimulus_produces_expected_codeword() {
        let enc = EncoderDesign::build(EncoderKind::Hamming84);
        let cw = enc.encode_gate_level(&BitVec::from_str01("1011"));
        assert_eq!(cw.to_string01(), "01100110");
        assert_eq!(
            enc.latency(),
            2,
            "codeword is produced after two clock cycles"
        );
    }

    #[test]
    fn decode_round_trips_for_every_design() {
        for design in EncoderDesign::build_all() {
            for m in 0u64..16 {
                let msg = BitVec::from_u64(4, m);
                let cw = design.encode_reference(&msg);
                let decoded = design.decode(&cw);
                assert_eq!(decoded.message.unwrap(), msg, "{}", design.name());
            }
        }
    }

    #[test]
    fn coded_designs_correct_single_channel_errors() {
        for kind in [
            EncoderKind::Hamming74,
            EncoderKind::Hamming84,
            EncoderKind::Rm13,
        ] {
            let design = EncoderDesign::build(kind);
            for m in 0u64..16 {
                let msg = BitVec::from_u64(4, m);
                let cw = design.encode_reference(&msg);
                for pos in 0..design.n() {
                    let mut r = cw.clone();
                    r.flip(pos);
                    let decoded = design.decode(&r);
                    assert_eq!(
                        decoded.message,
                        Some(msg.clone()),
                        "{} failed at msg {m:04b} pos {pos}",
                        design.kind().name()
                    );
                }
            }
        }
    }

    #[test]
    fn latencies_match_logic_depths() {
        assert_eq!(EncoderDesign::build(EncoderKind::None).latency(), 0);
        assert_eq!(EncoderDesign::build(EncoderKind::Hamming74).latency(), 2);
        assert_eq!(EncoderDesign::build(EncoderKind::Hamming84).latency(), 2);
        assert_eq!(EncoderDesign::build(EncoderKind::Rm13).latency(), 2);
    }

    fn seeded_message<R: rand::Rng + ?Sized>(k: usize, rng: &mut R) -> BitVec {
        (0..k).map(|_| rng.random::<u64>() & 1 == 1).collect()
    }

    #[test]
    fn pipeline_reproduces_every_paper_cell_budget() {
        use sfq_cells::CellKind;
        // (kind, xor, dff, spl, sfqdc) — Table II of the paper.
        let budgets = [
            (EncoderKind::Hamming74, 5, 8, 20, 7),
            (EncoderKind::Hamming84, 6, 8, 23, 8),
            (EncoderKind::Rm13, 8, 7, 26, 8),
        ];
        for (kind, xor, dff, spl, sfqdc) in budgets {
            let nl = EncoderDesign::build(kind).netlist().clone();
            let count = |k: CellKind| nl.count_cells(k);
            assert_eq!(
                (
                    count(CellKind::Xor),
                    count(CellKind::Dff),
                    count(CellKind::Splitter),
                    count(CellKind::SfqToDc)
                ),
                (xor, dff, spl, sfqdc),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn coded_designs_carry_a_synthesis_report_and_the_baseline_does_not() {
        for design in EncoderDesign::build_all() {
            match design.kind() {
                EncoderKind::None => {
                    assert!(design.synthesis_report().is_none());
                    assert!(design.naive_netlist().is_none());
                }
                _ => {
                    let report = design.synthesis_report().expect("pipeline report");
                    assert_eq!(report.passes.len(), 5, "{}", design.name());
                    let final_cost = report.final_cost();
                    assert_eq!(
                        final_cost.xor,
                        design.netlist().count_cells(sfq_cells::CellKind::Xor) as u64,
                        "{}: report must describe the shipped netlist",
                        design.name()
                    );
                }
            }
        }
    }

    #[test]
    fn rm13_uses_the_alignment_discipline_and_hamming_designs_do_not() {
        use sfq_netlist::pass::InputDiscipline;
        assert_eq!(
            EncoderKind::Rm13.pipeline_options().discipline,
            InputDiscipline::Align
        );
        for kind in [
            EncoderKind::Hamming74,
            EncoderKind::Hamming84,
            EncoderKind::SecDed(6),
        ] {
            assert_eq!(kind.pipeline_options().discipline, InputDiscipline::Hold);
        }
    }

    #[test]
    fn catalog_enumerates_paper_designs_and_secded_family() {
        let catalog = EncoderKind::catalog();
        assert_eq!(catalog.len(), 13);
        for kind in EncoderKind::ALL {
            assert!(catalog.contains(&kind));
        }
        for m in 3u8..=6 {
            assert!(catalog.contains(&EncoderKind::SecDed(m)));
        }
        assert!(catalog.contains(&EncoderKind::WideHamming8564));
        for spec in BchSpec::REGISTRY {
            assert!(catalog.contains(&EncoderKind::Bch(spec)));
        }
        assert!(catalog.contains(&EncoderKind::Ldpc));
        assert_eq!(EncoderKind::SecDed(6).name(), "SEC-DED(72,64)");
        assert_eq!(
            EncoderKind::WideHamming8564.name(),
            "Shortened Hamming(85,64)"
        );
        assert_eq!(EncoderKind::Bch(BchSpec::BCH_31_16).name(), "BCH(31,16)");
        assert_eq!(EncoderKind::Bch(BchSpec::BCH_63_45).name(), "BCH(63,45)");
        assert_eq!(
            EncoderKind::Bch(BchSpec::BCH_63_45).netlist_name(),
            "bch_63_45_encoder"
        );
        assert_eq!(EncoderKind::Ldpc.name(), "LDPC(60,32)");
        assert_eq!(EncoderKind::Ldpc.netlist_name(), "ldpc_60_32_encoder");
        let built = EncoderDesign::build_catalog();
        assert_eq!(built.len(), 13);
        // Concurrent workers still return the designs in catalog order.
        let kinds: Vec<EncoderKind> = built.iter().map(EncoderDesign::kind).collect();
        assert_eq!(kinds, catalog);
    }

    #[test]
    #[should_panic(expected = "SEC-DED data-width exponent must be in")]
    fn concurrent_builds_re_raise_the_original_panic() {
        // Every kind panics, so whichever worker panics first, its own
        // message must surface, not the scope's generic one.
        build_concurrently(&[EncoderKind::SecDed(9); 4]);
    }

    #[test]
    fn wide_hamming_design_encodes_correctly_at_gate_level() {
        use rand::SeedableRng;
        let design = EncoderDesign::build(EncoderKind::WideHamming8564);
        assert_eq!((design.n(), design.k()), (85, 64));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x8564_0001);
        for _ in 0..4 {
            let msg = seeded_message(64, &mut rng);
            assert_eq!(
                design.encode_gate_level(&msg),
                design.encode_reference(&msg)
            );
        }
        // Single errors correct; a non-column syndrome is flagged.
        let msg = seeded_message(64, &mut rng);
        let cw = design.encode_reference(&msg);
        for pos in [0usize, 40, 64, 84] {
            let mut r = cw.clone();
            r.flip(pos);
            assert_eq!(design.decode(&r).message, Some(msg.clone()), "pos {pos}");
        }
        let mut r = cw.clone();
        r.flip(64 + 20);
        r.flip(64 + 19);
        assert_eq!(
            design.decode(&r).outcome,
            ecc::DecodeOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn bch_design_encodes_at_gate_level_and_decodes_through_radius_two() {
        use rand::SeedableRng;
        let design = EncoderDesign::build(EncoderKind::Bch(BchSpec::BCH_31_16));
        assert_eq!((design.n(), design.k()), (31, 16));
        assert_eq!(design.kind.netlist_name(), "bch_31_16_encoder");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBC4_3116);
        for _ in 0..4 {
            let msg = seeded_message(16, &mut rng);
            assert_eq!(
                design.encode_gate_level(&msg),
                design.encode_reference(&msg)
            );
        }
        // The receiver-side decoder corrects every weight-1 and weight-2
        // pattern and flags weight-3 patterns (d_min = 7 at radius 2).
        let msg = seeded_message(16, &mut rng);
        let cw = design.encode_reference(&msg);
        for (a, b) in [(0usize, 17), (5, 30), (16, 24)] {
            let mut r = cw.clone();
            r.flip(a);
            r.flip(b);
            assert_eq!(design.decode(&r).message, Some(msg.clone()), "{a},{b}");
        }
        let mut r = cw.clone();
        r.flip(1);
        r.flip(9);
        r.flip(22);
        assert_eq!(
            design.decode(&r).outcome,
            ecc::DecodeOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn bch_63_45_design_encodes_at_gate_level_and_corrects_triples() {
        use rand::SeedableRng;
        let design = EncoderDesign::build(EncoderKind::Bch(BchSpec::BCH_63_45));
        assert_eq!((design.n(), design.k()), (63, 45));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBC4_6345);
        for _ in 0..3 {
            let msg = seeded_message(45, &mut rng);
            assert_eq!(
                design.encode_gate_level(&msg),
                design.encode_reference(&msg)
            );
        }
        // t = 3: every sampled triple corrects; a probed quadruple flags.
        let msg = seeded_message(45, &mut rng);
        let cw = design.encode_reference(&msg);
        for pattern in [[0usize, 31, 62], [5, 6, 7], [10, 30, 50]] {
            let mut r = cw.clone();
            for &p in &pattern {
                r.flip(p);
            }
            assert_eq!(design.decode(&r).message, Some(msg.clone()), "{pattern:?}");
        }
        let mut r = cw.clone();
        for p in [0usize, 1, 2, 3] {
            r.flip(p);
        }
        assert_eq!(
            design.decode(&r).outcome,
            ecc::DecodeOutcome::DetectedUncorrectable
        );
    }

    #[test]
    fn ldpc_design_encodes_at_gate_level_and_decodes_singles() {
        use rand::SeedableRng;
        let design = EncoderDesign::build(EncoderKind::Ldpc);
        assert_eq!((design.n(), design.k()), (60, 32));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D9C_6032);
        for _ in 0..3 {
            let msg = seeded_message(32, &mut rng);
            assert_eq!(
                design.encode_gate_level(&msg),
                design.encode_reference(&msg)
            );
        }
        let msg = seeded_message(32, &mut rng);
        let cw = design.encode_reference(&msg);
        for pos in [0usize, 29, 59] {
            let mut r = cw.clone();
            r.flip(pos);
            assert_eq!(design.decode(&r).message, Some(msg.clone()), "pos {pos}");
        }
    }

    #[test]
    fn bch_dense_generator_rewards_factoring_over_plain_trees() {
        use sfq_netlist::pass::FactoringKind;
        let design = EncoderDesign::build(EncoderKind::Bch(BchSpec::BCH_31_16));
        let plan = design.schedule_plan().expect("coded design has a plan");
        let paar = plan.best_xor_for(FactoringKind::Paar).unwrap();
        let cancel = plan.best_xor_for(FactoringKind::Cancellation).unwrap();
        let trees = plan.best_xor_for(FactoringKind::None).unwrap();
        // The (31,16) generator averages ~8 terms per parity equation; both
        // factoring algorithms must find substantial sharing, and the chosen
        // schedule's XOR count must match one of them.
        assert!(paar < trees, "paar {paar} vs unfactored {trees}");
        assert!(cancel < trees, "cancel {cancel} vs unfactored {trees}");
        let chosen_xor = plan.chosen_cost().xor;
        assert!(
            chosen_xor == paar || chosen_xor == cancel || chosen_xor == trees,
            "chosen XOR {chosen_xor} not among paar {paar} / cancel {cancel} / trees {trees}"
        );
        // The shipped netlist realizes the planned count exactly.
        assert_eq!(
            chosen_xor,
            design.netlist().count_cells(sfq_cells::CellKind::Xor) as u64
        );
    }

    #[test]
    fn a_design_sweeps_from_its_held_plan_to_the_points_of_a_fresh_sweep() {
        // Built under ColdFlux, swept under the XOR-heavy library of
        // `sfq_netlist`'s `different_cost_ratios_produce_different_schedules`:
        // the held slack-0 plan is re-priced, every other slack re-planned.
        let mut xor_heavy = CellLibrary::coldflux();
        let xor = sfq_cells::CellParams {
            jj_count: 150,
            ..xor_heavy.params(sfq_cells::CellKind::Xor).clone()
        };
        xor_heavy.set_params(xor);
        for design in EncoderDesign::build_catalog() {
            assert_eq!(
                design.pareto_sweep(&xor_heavy, 2),
                design.kind().pareto_sweep(&xor_heavy, 2),
                "{}",
                design.name()
            );
        }
    }

    #[test]
    fn every_catalog_design_passes_drc() {
        for design in EncoderDesign::build_catalog() {
            let violations = drc::check(design.netlist());
            assert!(violations.is_empty(), "{}: {:?}", design.name(), violations);
        }
    }

    #[test]
    fn secded_designs_encode_correctly_at_gate_level() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FF_EE00_1234_5678);
        for m in [3u8, 4, 6] {
            let design = EncoderDesign::build(EncoderKind::SecDed(m));
            assert_eq!(design.k(), 1 << m);
            assert_eq!(design.n(), (1 << m) + usize::from(m) + 2);
            for _ in 0..4 {
                let msg = seeded_message(design.k(), &mut rng);
                assert_eq!(
                    design.encode_gate_level(&msg),
                    design.encode_reference(&msg),
                    "{}",
                    design.name()
                );
            }
        }
    }

    #[test]
    fn secded_design_corrects_single_channel_errors_and_flags_doubles() {
        use rand::SeedableRng;
        let design = EncoderDesign::build(EncoderKind::SecDed(6));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EC_DED);
        let msg = seeded_message(64, &mut rng);
        let cw = design.encode_reference(&msg);
        for pos in [0usize, 31, 63, 64, 71] {
            let mut r = cw.clone();
            r.flip(pos);
            let d = design.decode(&r);
            assert_eq!(d.message, Some(msg.clone()), "pos {pos}");
        }
        let mut r = cw.clone();
        r.flip(3);
        r.flip(68);
        assert_eq!(
            design.decode(&r).outcome,
            ecc::DecodeOutcome::DetectedUncorrectable
        );
    }
}
