//! A fault-free, bit-sliced netlist evaluator: 64 messages per `u64`.
//!
//! [`SlicedSim`] computes what [`GateLevelSim::run`] computes for a
//! stimulus in cycle 0, for 64 stimuli at once: lane `l` of every mask
//! belongs to stimulus `l`. The netlist is levelized once, so a cycle is a
//! single pass over the combinational cells in topological order instead of
//! an event queue. Cells fed by the clock alone, the clock tree, carry the
//! same pulses every cycle and are evaluated once, at construction.
//!
//! # Lane semantics
//!
//! Each wire carries two masks per cycle: the lanes on which at least one
//! pulse arrived (`any`) and the parity of the pulses that arrived. Splitters,
//! mergers, JTLs and the DC/SFQ converters forward every pulse, so both masks
//! compose exactly: a cell's output is the OR and the XOR of its inputs. Each
//! consumer reads the mask its physics needs:
//!
//! * a data port of a clocked cell takes the parity — a second pulse on one
//!   data port in one cycle toggles the stored flux back out;
//! * a clock port takes `any` — two clock pulses in one cycle clock the cell
//!   once;
//! * a primary output records `any` as its pulse arrivals and toggles its DC
//!   level by the parity.
//!
//! At the end of a cycle every clocked cell applies its logic function on the
//! lanes whose clock port saw a pulse, emits on those lanes in the next
//! cycle, and clears its data state there; the other lanes keep their state.
//!
//! [`GateLevelSim::run`]: crate::sim::GateLevelSim::run
//!
//! # Example
//!
//! ```
//! use sfq_netlist::{synth, Netlist, PortRef};
//! use sfq_sim::sliced::SlicedSim;
//!
//! // input -> DFF -> output: lane l of the input mask is stimulus l.
//! let mut nl = Netlist::new("pipe1");
//! let a = nl.add_input("a");
//! nl.add_clock("clk");
//! let end = synth::dff_chain(&mut nl, PortRef::of(a), 1, "a");
//! let out = nl.add_output("o");
//! nl.connect(end, out, 0);
//! synth::build_clock_tree(&mut nl, "clk");
//!
//! let trace = SlicedSim::new(&nl).run(&[0b0110], 3);
//! assert_eq!(trace.output_pulses(0), &[0, 0b0110, 0]);
//! assert_eq!(trace.dc_word_at(2), &[0b0110]);
//! ```

use sfq_cells::CellKind;
use sfq_netlist::{Netlist, NodeId, NodeKind};
use std::collections::VecDeque;

/// The pulses on one wire in one cycle, 64 lanes wide.
#[derive(Debug, Clone, Copy, Default)]
struct Wire {
    /// Lanes on which at least one pulse arrived.
    any: u64,
    /// Parity of the pulses that arrived, per lane.
    parity: u64,
}

impl Wire {
    /// One pulse on exactly the lanes of `mask`.
    fn pulse(mask: u64) -> Self {
        Wire {
            any: mask,
            parity: mask,
        }
    }

    /// Every pulse of both wires on one wire.
    fn merge(self, other: Wire) -> Self {
        Wire {
            any: self.any | other.any,
            parity: self.parity ^ other.parity,
        }
    }
}

/// A combinational cell: its output is every pulse of its inputs.
#[derive(Debug, Clone, Copy)]
struct Forward {
    wire: usize,
    inputs: [usize; 2],
}

/// A clocked cell: data ports, clock port and logic function.
#[derive(Debug, Clone, Copy)]
struct Clocked {
    wire: usize,
    kind: CellKind,
    data: [usize; 2],
    clock: usize,
}

/// A fault-free evaluator bound to one levelized netlist.
///
/// Wires are indexed by the driving node, since every output port of a node
/// carries the same pulses (a splitter copies its input to both); one extra
/// wire that never pulses stands in for every unconnected port.
#[derive(Debug, Clone)]
pub struct SlicedSim {
    /// Combinational cells whose pulses vary from cycle to cycle, in
    /// topological order.
    forward: Vec<Forward>,
    clocked: Vec<Clocked>,
    inputs: Vec<usize>,
    /// Every wire at the start of a run: the clock tree's pulses, which
    /// repeat every cycle, and silence elsewhere.
    constant: Vec<Wire>,
    /// The wire driving each primary output, in output order.
    outputs: Vec<usize>,
}

impl SlicedSim {
    /// Levelizes a netlist and evaluates its clock tree.
    ///
    /// # Panics
    /// Panics if the combinational cells form a cycle: no clocked cell
    /// breaks it, so a pulse entering it would circulate forever.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let silent = netlist.nodes().len();
        let driver =
            |node: NodeId, port: usize| netlist.driver_of(node, port).map_or(silent, |d| d.node.0);
        let mut forward = Vec::new();
        let mut clocked = Vec::new();
        for node in netlist.nodes() {
            let NodeKind::Cell(kind) = node.kind else {
                continue;
            };
            let ports = kind.data_inputs();
            let data = [
                driver(node.id, 0),
                if ports > 1 {
                    driver(node.id, 1)
                } else {
                    silent
                },
            ];
            if kind.is_clocked() {
                clocked.push(Clocked {
                    wire: node.id.0,
                    kind,
                    data,
                    clock: driver(node.id, ports),
                });
            } else {
                forward.push(Forward {
                    wire: node.id.0,
                    inputs: data,
                });
            }
        }
        let mut constant = vec![Wire::default(); silent + 1];
        let mut fixed = vec![false; silent + 1];
        fixed[silent] = true;
        if let Some(clock) = netlist.clock() {
            constant[clock.0] = Wire::pulse(u64::MAX);
            fixed[clock.0] = true;
        }
        let mut varying = Vec::new();
        for cell in levelize(forward, silent + 1) {
            if cell.inputs.iter().all(|&w| fixed[w]) {
                let [a, b] = cell.inputs.map(|w| constant[w]);
                constant[cell.wire] = a.merge(b);
                fixed[cell.wire] = true;
            } else {
                varying.push(cell);
            }
        }
        SlicedSim {
            forward: varying,
            clocked,
            inputs: netlist.inputs().iter().map(|id| id.0).collect(),
            constant,
            outputs: netlist.outputs().iter().map(|&id| driver(id, 0)).collect(),
        }
    }

    /// Runs 64 stimuli for `cycles` clock cycles: primary input `i` pulses
    /// in cycle 0 on the lanes of `inputs[i]`, and never again.
    ///
    /// # Panics
    /// Panics if `inputs` does not hold one mask per primary input.
    #[must_use]
    pub fn run(&self, inputs: &[u64], cycles: usize) -> SlicedTrace {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "one lane mask per primary input"
        );
        let outputs = self.outputs.len();
        let mut wires = self.constant.clone();
        let mut data = vec![[0u64; 2]; self.clocked.len()];
        let mut emit = vec![0u64; self.clocked.len()];
        let mut level = vec![0u64; outputs];
        let mut dc = Vec::with_capacity(cycles * outputs);
        let mut pulses = vec![0u64; outputs * cycles];
        for cycle in 0..cycles {
            // Sources put at most one pulse per lane on their wire.
            for (&wire, &mask) in self.inputs.iter().zip(inputs) {
                wires[wire] = Wire::pulse(if cycle == 0 { mask } else { 0 });
            }
            for (cell, &mask) in self.clocked.iter().zip(&emit) {
                wires[cell.wire] = Wire::pulse(mask);
            }
            for cell in &self.forward {
                let [a, b] = cell.inputs.map(|w| wires[w]);
                wires[cell.wire] = a.merge(b);
            }
            for (o, (&wire, dc_level)) in self.outputs.iter().zip(&mut level).enumerate() {
                pulses[o * cycles + cycle] = wires[wire].any;
                *dc_level ^= wires[wire].parity;
            }
            dc.extend_from_slice(&level);
            // The clock edge.
            for ((cell, state), out) in self.clocked.iter().zip(&mut data).zip(&mut emit) {
                let a = state[0] ^ wires[cell.data[0]].parity;
                let b = state[1] ^ wires[cell.data[1]].parity;
                let fired = wires[cell.clock].any;
                let value = match cell.kind {
                    CellKind::Xor => a ^ b,
                    CellKind::And => a & b,
                    CellKind::Or => a | b,
                    CellKind::Not => !a,
                    _ => a,
                };
                *out = value & fired;
                *state = [a & !fired, b & !fired];
            }
        }
        SlicedTrace {
            cycles,
            outputs,
            dc,
            pulses,
        }
    }
}

/// Orders combinational cells so that every cell comes after the cells that
/// drive it, level by level.
fn levelize(cells: Vec<Forward>, wires: usize) -> Vec<Forward> {
    let mut index = vec![usize::MAX; wires];
    for (i, cell) in cells.iter().enumerate() {
        index[cell.wire] = i;
    }
    let mut waiting = vec![0usize; cells.len()];
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
    for (i, cell) in cells.iter().enumerate() {
        for &wire in &cell.inputs {
            let driver = index[wire];
            if driver != usize::MAX {
                waiting[i] += 1;
                users[driver].push(i);
            }
        }
    }
    let mut ready: VecDeque<usize> = (0..cells.len()).filter(|&i| waiting[i] == 0).collect();
    let mut order = Vec::with_capacity(cells.len());
    while let Some(i) = ready.pop_front() {
        order.push(cells[i]);
        for &user in &users[i] {
            waiting[user] -= 1;
            if waiting[user] == 0 {
                ready.push_back(user);
            }
        }
    }
    assert_eq!(order.len(), cells.len(), "combinational cells form a cycle");
    order
}

/// The outputs of one [`SlicedSim::run`], 64 lanes per mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicedTrace {
    cycles: usize,
    outputs: usize,
    /// `dc[t * outputs + o]` — DC level of output `o` at the end of cycle `t`.
    dc: Vec<u64>,
    /// `pulses[o * cycles + t]` — a pulse arrived at output `o` in cycle `t`.
    pulses: Vec<u64>,
}

impl SlicedTrace {
    /// The DC level of every output at the end of `cycle`, one lane mask per
    /// output in output order.
    #[must_use]
    pub fn dc_word_at(&self, cycle: usize) -> &[u64] {
        &self.dc[cycle * self.outputs..(cycle + 1) * self.outputs]
    }

    /// The lanes on which a pulse arrived at output `output_index`, one mask
    /// per cycle.
    #[must_use]
    pub fn output_pulses(&self, output_index: usize) -> &[u64] {
        &self.pulses[output_index * self.cycles..(output_index + 1) * self.cycles]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{GateLevelSim, Stimulus};
    use gf2::{BitMat, BitSlice64, BitVec};
    use sfq_netlist::pass::PipelineOptions;
    use sfq_netlist::{synth, PortRef};

    /// input -> DFF -> … -> output with a clock tree.
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

    /// Asserts that every lane of `messages` matches the event simulator at
    /// every cycle, pulses and DC levels.
    fn assert_lanes_match_the_event_simulator(nl: &Netlist, messages: &[BitVec], cycles: usize) {
        let packed = BitSlice64::pack(messages);
        let mut lanes = vec![0; packed.bits()];
        packed.gather_word(0, &mut lanes);
        let trace = SlicedSim::new(nl).run(&lanes, cycles);
        let sim = GateLevelSim::new(nl);
        for (lane, message) in messages.iter().enumerate() {
            let mut stimulus = Stimulus::new(nl);
            stimulus.apply_word(message, 0);
            let oracle = sim.run(&stimulus, cycles);
            for cycle in 0..cycles {
                let dc: BitVec = trace
                    .dc_word_at(cycle)
                    .iter()
                    .map(|&m| (m >> lane) & 1 == 1)
                    .collect();
                assert_eq!(dc, oracle.dc_word_at(cycle), "lane {lane} cycle {cycle}");
            }
            for o in 0..nl.outputs().len() {
                let pulses: Vec<bool> = trace
                    .output_pulses(o)
                    .iter()
                    .map(|&m| (m >> lane) & 1 == 1)
                    .collect();
                assert_eq!(pulses, oracle.output_pulses(o), "lane {lane} output {o}");
            }
        }
    }

    #[test]
    fn pulse_takes_one_cycle_per_dff_stage() {
        for depth in 1..=4 {
            let trace = SlicedSim::new(&pipeline(depth)).run(&[0b10], depth + 2);
            for (cycle, &pulsed) in trace.output_pulses(0).iter().enumerate() {
                let expected = if cycle == depth { 0b10 } else { 0 };
                assert_eq!(pulsed, expected, "depth {depth} cycle {cycle}");
            }
        }
    }

    #[test]
    fn xor_truth_table() {
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
        // Lanes 0..4 are (a, b) = 00, 10, 01, 11.
        let trace = SlicedSim::new(&nl).run(&[0b1010, 0b1100], 3);
        assert_eq!(trace.dc_word_at(2), &[0b0110]);
        assert_eq!(trace.output_pulses(0), &[0, 0b0110, 0]);
        let messages: Vec<BitVec> = ["00", "10", "01", "11"]
            .iter()
            .map(|s| BitVec::from_str01(s))
            .collect();
        assert_lanes_match_the_event_simulator(&nl, &messages, 4);
    }

    #[test]
    fn hold_discipline_operands_settle_to_the_parity() {
        // A 3-term parity feeds a depth-0 input straight into a
        // second-level XOR under Hold.
        let g = BitMat::from_str_rows(&["11", "01", "01"]);
        let result = synth::synthesize_encoder("p3", &g, PipelineOptions::default());
        let latency = result.netlist.logic_depth();
        let messages: Vec<BitVec> = (0..8).map(|m| BitVec::from_u64(3, m)).collect();
        assert_lanes_match_the_event_simulator(&result.netlist, &messages, latency + 2);
        let packed = BitSlice64::pack(&messages);
        let mut lanes = vec![0; 3];
        packed.gather_word(0, &mut lanes);
        let trace = SlicedSim::new(&result.netlist).run(&lanes, latency + 1);
        for (j, &simulated) in trace.dc_word_at(latency).iter().enumerate() {
            let expected = (0..3)
                .filter(|&i| g.get(i, j))
                .fold(0, |acc, i| acc ^ lanes[i]);
            assert_eq!(simulated, expected, "output {j}");
        }
    }

    #[test]
    fn unclocked_lanes_keep_their_state() {
        // The DFF's clock comes from a second input, so each lane clocks
        // only when its own stimulus says so.
        let mut nl = Netlist::new("gated");
        let d = nl.add_input("d");
        let c = nl.add_input("c");
        let dff = nl.add_cell(CellKind::Dff, "dff");
        nl.connect(PortRef::of(d), dff, 0);
        nl.connect(PortRef::of(c), dff, 1);
        let out = nl.add_output("o");
        nl.connect(PortRef::of(dff), out, 0);
        let trace = SlicedSim::new(&nl).run(&[0b11, 0b01], 4);
        // Lane 0 is clocked in cycle 0 and emits in cycle 1; lane 1 keeps
        // its flux and never emits.
        assert_eq!(trace.output_pulses(0), &[0, 0b01, 0, 0]);
        let messages: Vec<BitVec> = ["11", "10"].iter().map(|s| BitVec::from_str01(s)).collect();
        assert_lanes_match_the_event_simulator(&nl, &messages, 4);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn a_combinational_cycle_panics_at_construction() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        let m = nl.add_cell(CellKind::Merger, "m");
        let s = nl.add_cell(CellKind::Splitter, "s");
        nl.connect(PortRef::of(a), m, 0);
        nl.connect(PortRef::of(m), s, 0);
        nl.connect(PortRef { node: s, port: 1 }, m, 1);
        let out = nl.add_output("o");
        nl.connect(PortRef::of(s), out, 0);
        let _ = SlicedSim::new(&nl);
    }
}
