//! The cycle-driven pulse-level simulator.
//!
//! # Simulation model
//!
//! Time is divided into clock cycles. During cycle `t`:
//!
//! * primary-input pulses scheduled for cycle `t` and output pulses emitted by
//!   clocked cells at the end of cycle `t − 1` propagate through the
//!   combinational fabric (splitters, JTLs, mergers, SFQ-to-DC converters)
//!   and are accumulated in the internal state of the clocked gates they
//!   reach;
//! * the clock source emits one pulse per cycle, which travels through the
//!   clock-distribution splitters to the clock port of every clocked gate;
//! * at the end of the cycle each clocked gate that received a clock pulse
//!   evaluates its logic function on the accumulated state, resets it, and —
//!   if the result is `1` — emits an output pulse that will arrive at its
//!   sink during cycle `t + 1`.
//!
//! This reproduces the behaviour the paper describes for its encoders: a
//! logic-depth-2 circuit driven with a message in cycle 0 produces its
//! codeword pulses in cycle 2 ("it takes two clock cycles to produce these
//! codeword bits", Fig. 3).
//!
//! SFQ-to-DC output drivers are modelled as toggling storage elements: every
//! arriving pulse inverts the DC level, which is what the room-temperature
//! receiver samples.
//!
//! # Fault injection
//!
//! [`GateLevelSim::run_with_faults`] consults a [`FaultMap`]: every time a
//! faulty cell is activated it malfunctions with its per-activation
//! probability, either dropping its output pulse or emitting a spurious one.

use crate::fault::{FailureMode, FaultMap};
use gf2::BitVec;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sfq_cells::CellKind;
use sfq_netlist::{Netlist, NodeId, NodeKind};
use std::collections::VecDeque;

/// Input stimulus: which primary inputs pulse in which cycles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stimulus {
    num_inputs: usize,
    /// `pulses[i]` lists the cycles in which input `i` emits a pulse.
    pulses: Vec<Vec<usize>>,
}

impl Stimulus {
    /// Creates an empty stimulus for a netlist.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        Stimulus {
            num_inputs: netlist.inputs().len(),
            pulses: vec![Vec::new(); netlist.inputs().len()],
        }
    }

    /// Schedules a pulse on primary input `input_index` in `cycle`.
    ///
    /// # Panics
    /// Panics if the input index is out of range.
    pub fn pulse_input(&mut self, input_index: usize, cycle: usize) {
        assert!(input_index < self.num_inputs, "input index out of range");
        self.pulses[input_index].push(cycle);
    }

    /// Applies a binary word in `cycle`: input `i` pulses iff `word[i]` is 1.
    ///
    /// # Panics
    /// Panics if the word length differs from the number of inputs.
    pub fn apply_word(&mut self, word: &BitVec, cycle: usize) {
        assert_eq!(
            word.len(),
            self.num_inputs,
            "word length must match input count"
        );
        for i in 0..word.len() {
            if word.get(i) {
                self.pulse_input(i, cycle);
            }
        }
    }

    /// Returns `true` if input `i` pulses in `cycle`.
    #[must_use]
    pub fn pulses_at(&self, input_index: usize, cycle: usize) -> bool {
        self.pulses[input_index].contains(&cycle)
    }
}

/// Recorded activity of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    cycles: usize,
    output_names: Vec<String>,
    /// `arrivals[o][t]` — a pulse arrived at primary output `o` during cycle `t`.
    arrivals: Vec<Vec<bool>>,
    /// `dc[o][t]` — DC level presented to output `o` at the end of cycle `t`
    /// (toggles on every arriving pulse).
    dc: Vec<Vec<bool>>,
}

impl Trace {
    /// Number of simulated cycles.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Pulse arrivals at primary output `o`, one flag per cycle.
    #[must_use]
    pub fn output_pulses(&self, output_index: usize) -> &[bool] {
        &self.arrivals[output_index]
    }

    /// Number of pulses that arrived at primary output `o` over the whole run.
    #[must_use]
    pub fn pulse_count(&self, output_index: usize) -> usize {
        self.arrivals[output_index].iter().filter(|&&b| b).count()
    }

    /// The word formed by the DC levels of all outputs at the end of `cycle`.
    ///
    /// For an encoder whose outputs drive SFQ-to-DC converters this is what
    /// the room-temperature receiver samples once the codeword has settled
    /// (i.e. at `cycle = logic depth`).
    #[must_use]
    pub fn dc_word_at(&self, cycle: usize) -> BitVec {
        (0..self.dc.len()).map(|o| self.dc[o][cycle]).collect()
    }

    /// Names of the primary outputs, in output order.
    #[must_use]
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }
}

/// Internal compact description of a node used by the inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimNode {
    Input,
    Output { output_index: usize },
    ClockSource,
    Combinational(CellKind),
    Clocked { kind: CellKind, clock_port: usize },
}

/// A gate-level simulator bound to one netlist.
///
/// The simulator itself is immutable and reusable; each [`GateLevelSim::run`]
/// call allocates its own per-run state, so one simulator can be shared by
/// many Monte-Carlo workers.
#[derive(Debug, Clone)]
pub struct GateLevelSim {
    nodes: Vec<SimNode>,
    /// Per node, per output port: list of (sink node, sink port).
    sinks: Vec<Vec<Vec<(usize, usize)>>>,
    input_nodes: Vec<usize>,
    output_nodes: Vec<usize>,
    output_names: Vec<String>,
    num_nodes: usize,
}

impl GateLevelSim {
    /// Prepares a simulator for a netlist.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let num_nodes = netlist.nodes().len();
        let mut nodes = Vec::with_capacity(num_nodes);
        let mut output_nodes = Vec::new();
        let mut output_names = Vec::new();
        for node in netlist.nodes() {
            let sim_node = match &node.kind {
                NodeKind::Input => SimNode::Input,
                NodeKind::Output => {
                    let idx = output_nodes.len();
                    output_nodes.push(node.id.0);
                    output_names.push(node.name.clone());
                    SimNode::Output { output_index: idx }
                }
                NodeKind::ClockSource => SimNode::ClockSource,
                NodeKind::Cell(kind) => {
                    if kind.is_clocked() {
                        SimNode::Clocked {
                            kind: *kind,
                            clock_port: kind.data_inputs(),
                        }
                    } else {
                        SimNode::Combinational(*kind)
                    }
                }
            };
            nodes.push(sim_node);
        }
        let mut sinks: Vec<Vec<Vec<(usize, usize)>>> = netlist
            .nodes()
            .iter()
            .map(|n| vec![Vec::new(); n.kind.output_ports()])
            .collect();
        for conn in netlist.connections() {
            sinks[conn.from.node.0][conn.from.port].push((conn.to.0, conn.to_port));
        }
        let input_nodes = netlist.inputs().iter().map(|id| id.0).collect();
        GateLevelSim {
            nodes,
            sinks,
            input_nodes,
            output_nodes,
            output_names,
            num_nodes,
        }
    }

    /// Runs the netlist fault-free for `cycles` clock cycles.
    #[must_use]
    pub fn run(&self, stimulus: &Stimulus, cycles: usize) -> Trace {
        let healthy = FaultMap::healthy_with_len(self.num_nodes);
        // No cell is faulty, so the roll source is never consulted.
        self.run_inner(stimulus, cycles, &healthy, &mut |_p| false)
    }

    /// Runs the netlist for `cycles` clock cycles with fault injection.
    #[must_use]
    pub fn run_with_faults<R: Rng + ?Sized>(
        &self,
        stimulus: &Stimulus,
        cycles: usize,
        faults: &FaultMap,
        rng: &mut R,
    ) -> Trace {
        let mut roll = |probability: f64| {
            if probability <= 0.0 {
                false
            } else if probability >= 1.0 {
                true
            } else {
                rng.random::<f64>() < probability
            }
        };
        self.run_inner(stimulus, cycles, faults, &mut roll)
    }

    fn run_inner(
        &self,
        stimulus: &Stimulus,
        cycles: usize,
        faults: &FaultMap,
        roll: &mut dyn FnMut(f64) -> bool,
    ) -> Trace {
        let n = self.num_nodes;
        let num_outputs = self.output_nodes.len();
        let mut arrivals = vec![vec![false; cycles]; num_outputs];
        let mut dc_state = vec![false; num_outputs];
        let mut dc = vec![vec![false; cycles]; num_outputs];

        // Clocked-cell state.
        let mut data_state: Vec<[bool; 2]> = vec![[false; 2]; n];
        let mut clocked_this_cycle = vec![false; n];
        // Output pulses scheduled by clocked cells for the *next* cycle.
        let mut pending: Vec<bool> = vec![false; n];

        for cycle in 0..cycles {
            // Event queue of pulses arriving at (node, input port).
            let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
            // Safety bound against malformed (cyclic) combinational netlists.
            let mut budget = 64 * (n + 1) * (cycle + 1);

            // 1. Emissions scheduled by clocked cells at the previous edge.
            let emit = |node: usize, queue: &mut VecDeque<(usize, usize)>| {
                for port_sinks in &self.sinks[node] {
                    for &(sink, sink_port) in port_sinks {
                        queue.push_back((sink, sink_port));
                    }
                }
            };
            for (node, slot) in pending.iter_mut().enumerate() {
                if *slot {
                    *slot = false;
                    emit(node, &mut queue);
                }
            }
            // 2. Primary-input pulses for this cycle.
            for (i, &node) in self.input_nodes.iter().enumerate() {
                if stimulus.pulses_at(i, cycle) {
                    emit(node, &mut queue);
                }
            }
            // 3. The clock source pulses every cycle.
            for node in 0..n {
                if self.nodes[node] == SimNode::ClockSource {
                    emit(node, &mut queue);
                }
            }
            // 4. Spurious activity of faulty combinational cells.
            for (node_id, fault) in faults.iter_faulty() {
                let node = node_id.0;
                if let SimNode::Combinational(_) = self.nodes[node] {
                    if matches!(fault.mode, FailureMode::SpuriousPulse)
                        && roll(fault.activation_failure_prob)
                    {
                        emit(node, &mut queue);
                    }
                }
            }

            // 5. Propagate through the combinational fabric.
            while let Some((node, port)) = queue.pop_front() {
                budget = budget.saturating_sub(1);
                assert!(
                    budget > 0,
                    "combinational propagation did not converge (cycle in netlist?)"
                );
                match self.nodes[node] {
                    SimNode::Output { output_index } => {
                        arrivals[output_index][cycle] = true;
                        dc_state[output_index] = !dc_state[output_index];
                    }
                    SimNode::Input | SimNode::ClockSource => {
                        // Inputs and the clock have no input ports; nothing to do.
                    }
                    SimNode::Clocked { clock_port, .. } => {
                        if port == clock_port {
                            clocked_this_cycle[node] = true;
                        } else {
                            // A second pulse on the same data port within one
                            // cycle toggles the stored flux back out.
                            data_state[node][port] ^= true;
                        }
                    }
                    SimNode::Combinational(kind) => {
                        let fault = faults.get(NodeId(node));
                        let dropped = fault.is_faulty()
                            && fault.mode == FailureMode::DropPulse
                            && roll(fault.activation_failure_prob);
                        if dropped {
                            continue;
                        }
                        match kind {
                            CellKind::SfqToDc => {
                                // The driver toggles its DC level and presents
                                // it downstream; model the downstream arrival
                                // as a pulse so that the Output node's toggle
                                // tracking stays in sync.
                                for &(sink, sink_port) in &self.sinks[node][0] {
                                    queue.push_back((sink, sink_port));
                                }
                            }
                            _ => {
                                for port_sinks in &self.sinks[node] {
                                    for &(sink, sink_port) in port_sinks {
                                        queue.push_back((sink, sink_port));
                                    }
                                }
                            }
                        }
                    }
                }
            }

            // 6. Clock edge: evaluate clocked cells.
            for node in 0..n {
                if !clocked_this_cycle[node] {
                    continue;
                }
                clocked_this_cycle[node] = false;
                let SimNode::Clocked { kind, .. } = self.nodes[node] else {
                    continue;
                };
                let [a, b] = data_state[node];
                data_state[node] = [false, false];
                let mut out = match kind {
                    CellKind::Xor => a ^ b,
                    CellKind::And => a & b,
                    CellKind::Or => a | b,
                    CellKind::Not => !a,
                    CellKind::Dff => a,
                    _ => a,
                };
                let fault = faults.get(NodeId(node));
                if fault.is_faulty() && roll(fault.activation_failure_prob) {
                    out = match fault.mode {
                        FailureMode::DropPulse => false,
                        FailureMode::SpuriousPulse => true,
                    };
                }
                if out {
                    pending[node] = true;
                }
            }

            // 7. Snapshot DC levels at the end of the cycle.
            for o in 0..num_outputs {
                dc[o][cycle] = dc_state[o];
            }
        }

        Trace {
            cycles,
            output_names: self.output_names.clone(),
            arrivals,
            dc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CellFault;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfq_netlist::{synth, PortRef};

    /// input -> DFF -> DFF -> output with clock tree.
    fn pipeline(depth: usize) -> Netlist {
        let mut nl = Netlist::new("pipe");
        let a = nl.add_input("a");
        nl.add_clock("clk");
        let end = synth::dff_chain(&mut nl, PortRef::of(a), depth, "a");
        let out = nl.add_output("o");
        nl.connect(end, out, 0);
        synth::build_clock_tree(&mut nl, "clk");
        nl
    }

    /// 2-input XOR with clock, splitter-free.
    fn xor_netlist() -> Netlist {
        let mut nl = Netlist::new("xor");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.add_clock("clk");
        let x = nl.add_cell(CellKind::Xor, "x0");
        nl.connect(PortRef::of(a), x, 0);
        nl.connect(PortRef::of(b), x, 1);
        nl.add_clock_sink(x);
        let drv = nl.add_cell(CellKind::SfqToDc, "drv");
        nl.connect(PortRef::of(x), drv, 0);
        let out = nl.add_output("c");
        nl.connect(PortRef::of(drv), out, 0);
        synth::build_clock_tree(&mut nl, "clk");
        nl
    }

    #[test]
    fn pulse_takes_one_cycle_per_dff_stage() {
        for depth in 1..=4 {
            let nl = pipeline(depth);
            let sim = GateLevelSim::new(&nl);
            let mut stim = Stimulus::new(&nl);
            stim.pulse_input(0, 0);
            let trace = sim.run(&stim, depth + 2);
            for (cycle, &pulsed) in trace.output_pulses(0).iter().enumerate() {
                assert_eq!(pulsed, cycle == depth, "depth {depth} cycle {cycle}");
            }
        }
    }

    #[test]
    fn xor_truth_table() {
        let nl = xor_netlist();
        let sim = GateLevelSim::new(&nl);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut stim = Stimulus::new(&nl);
            if a {
                stim.pulse_input(0, 0);
            }
            if b {
                stim.pulse_input(1, 0);
            }
            let trace = sim.run(&stim, 3);
            let expected = a ^ b;
            assert_eq!(trace.pulse_count(0) % 2 == 1, expected, "a={a} b={b}");
            assert_eq!(trace.dc_word_at(2).get(0), expected, "a={a} b={b}");
        }
    }

    #[test]
    fn no_stimulus_means_no_output_activity() {
        let nl = xor_netlist();
        let sim = GateLevelSim::new(&nl);
        let stim = Stimulus::new(&nl);
        let trace = sim.run(&stim, 4);
        assert_eq!(trace.pulse_count(0), 0);
        assert!(!trace.dc_word_at(3).get(0));
    }

    #[test]
    fn hard_drop_fault_on_dff_blocks_pulse() {
        let nl = pipeline(2);
        let sim = GateLevelSim::new(&nl);
        // Find the first DFF node.
        let dff = nl
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Cell(CellKind::Dff))
            .unwrap()
            .id;
        let mut faults = FaultMap::healthy(&nl);
        faults.set(dff, CellFault::hard(FailureMode::DropPulse));
        let mut stim = Stimulus::new(&nl);
        stim.pulse_input(0, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = sim.run_with_faults(&stim, 4, &faults, &mut rng);
        assert_eq!(trace.pulse_count(0), 0, "pulse should have been dropped");
    }

    #[test]
    fn hard_spurious_fault_on_dff_creates_pulses() {
        let nl = pipeline(1);
        let sim = GateLevelSim::new(&nl);
        let dff = nl
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Cell(CellKind::Dff))
            .unwrap()
            .id;
        let mut faults = FaultMap::healthy(&nl);
        faults.set(dff, CellFault::hard(FailureMode::SpuriousPulse));
        let stim = Stimulus::new(&nl); // no input pulses at all
        let mut rng = StdRng::seed_from_u64(2);
        let trace = sim.run_with_faults(&stim, 3, &faults, &mut rng);
        assert!(
            trace.pulse_count(0) > 0,
            "spurious pulses should reach the output"
        );
    }

    #[test]
    fn stimulus_word_application() {
        let nl = xor_netlist();
        let mut stim = Stimulus::new(&nl);
        stim.apply_word(&BitVec::from_str01("10"), 0);
        assert!(stim.pulses_at(0, 0));
        assert!(!stim.pulses_at(1, 0));
    }

    #[test]
    fn clock_splitter_drop_fault_freezes_downstream_gates() {
        let nl = pipeline(3);
        let sim = GateLevelSim::new(&nl);
        // Fail the first clock splitter: every DFF downstream of it never
        // receives a clock and never emits.
        let spl = nl
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Cell(CellKind::Splitter))
            .unwrap()
            .id;
        let mut faults = FaultMap::healthy(&nl);
        faults.set(spl, CellFault::hard(FailureMode::DropPulse));
        let mut stim = Stimulus::new(&nl);
        stim.pulse_input(0, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let trace = sim.run_with_faults(&stim, 5, &faults, &mut rng);
        assert_eq!(trace.pulse_count(0), 0);
    }
}
