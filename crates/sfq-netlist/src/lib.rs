//! Gate-level netlist representation for SFQ logic circuits.
//!
//! SFQ circuit design differs from CMOS in two ways that this crate models
//! explicitly (Section III of the paper):
//!
//! 1. every logic gate (XOR, AND, OR, NOT, DFF) is **clocked** — it emits its
//!    output only when a clock pulse arrives, so data paths must be balanced
//!    with D flip-flops to keep codeword bits aligned;
//! 2. every gate has a **fan-out of one** — driving two or more loads
//!    requires explicit splitter cells, and the clock itself must be
//!    distributed through a splitter tree.
//!
//! The [`Netlist`] type is a port-level directed graph of cell instances plus
//! primary inputs/outputs and a clock source. The [`synth`] module provides
//! the synthesis passes the paper applies by hand (fan-out splitter trees,
//! path-balancing DFF insertion, clock-distribution network), [`drc`] checks
//! the SFQ design rules, and [`stats`] computes the cell histogram / JJ count
//! / power / area bookkeeping that generates Table II.
//!
//! Above the netlist sits the optimizing encoder-synthesis pipeline: [`ir`]
//! defines the parity-equation IR, [`pass`] the pass manager, the
//! cost-model-driven [`SynthPlanner`], and the `depth_slack` latency/area
//! [`pareto_sweep`], and [`cancel`] the Boyar–Peralta-style
//! cancellation-aware factoring pass. See `docs/PASSES.md` at the workspace
//! root for the pass-author's guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod drc;
mod fxhash;
pub mod ir;
pub mod pass;
pub mod stats;
pub mod synth;
#[cfg(test)]
mod testkit;

pub use cancel::CancellationFactoringPass;
pub use drc::{check, DrcViolation};
pub use ir::ParityIr;
pub use pass::{
    pareto_sweep, InputDiscipline, ParetoPoint, PassManager, PipelineOptions, PipelineReport,
    Schedule, SchedulePlan, SynthPlanner, SynthResult,
};
pub use stats::{CellHistogram, NetlistStats};

use serde::{Deserialize, Serialize};
use sfq_cells::CellKind;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a node (cell instance, primary input/output, or the clock
/// source) inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A reference to one output port of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PortRef {
    /// The node the port belongs to.
    pub node: NodeId,
    /// Output port index (0 for all cells except splitters, which have 0 and 1).
    pub port: usize,
}

impl PortRef {
    /// Output port 0 of a node.
    #[must_use]
    pub fn of(node: NodeId) -> Self {
        PortRef { node, port: 0 }
    }
}

/// What a netlist node is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Primary data input (message bit).
    Input,
    /// Primary output (codeword bit / output channel).
    Output,
    /// The clock source feeding the clock-distribution network.
    ClockSource,
    /// An instance of a standard cell.
    Cell(CellKind),
}

impl NodeKind {
    /// Number of input ports of this node. For clocked cells this includes a
    /// dedicated clock port at index [`NodeKind::clock_port`].
    #[must_use]
    pub fn input_ports(&self) -> usize {
        match self {
            NodeKind::Input | NodeKind::ClockSource => 0,
            NodeKind::Output => 1,
            NodeKind::Cell(kind) => kind.data_inputs() + usize::from(kind.is_clocked()),
        }
    }

    /// The index of the clock input port, for clocked cells.
    #[must_use]
    pub fn clock_port(&self) -> Option<usize> {
        match self {
            NodeKind::Cell(kind) if kind.is_clocked() => Some(kind.data_inputs()),
            _ => None,
        }
    }

    /// Number of output ports of this node.
    #[must_use]
    pub fn output_ports(&self) -> usize {
        match self {
            NodeKind::Input | NodeKind::ClockSource => 1,
            NodeKind::Output => 0,
            NodeKind::Cell(kind) => kind.outputs(),
        }
    }

    /// Whether this node needs a clock connection.
    #[must_use]
    pub fn is_clocked(&self) -> bool {
        matches!(self, NodeKind::Cell(kind) if kind.is_clocked())
    }
}

/// A node of the netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Node identifier.
    pub id: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Instance name (unique within the netlist).
    pub name: String,
}

/// A directed connection from an output port to an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Connection {
    /// Driving output port.
    pub from: PortRef,
    /// Driven node.
    pub to: NodeId,
    /// Input-port index on the driven node.
    pub to_port: usize,
}

/// A gate-level SFQ netlist.
///
/// Besides the connection list, the netlist maintains reverse indexes —
/// per-input-port drivers and per-output-port sink lists — so the hot graph
/// queries [`Netlist::driver_of`] and [`Netlist::sinks_of`] are O(1) / O(deg)
/// instead of scanning every connection (they dominate DRC, logic-depth, and
/// fault-cone computations on wide synthesized encoders).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    /// Netlist name, e.g. `"hamming84_encoder"`.
    pub name: String,
    nodes: Vec<Node>,
    connections: Vec<Connection>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    clock: Option<NodeId>,
    clock_sinks: Vec<NodeId>,
    /// `drivers[node][port]` — the driver of that input port, if connected.
    drivers: Vec<Vec<Option<PortRef>>>,
    /// `sinks[node][port]` — every (node, port) driven by that output port.
    sinks: Vec<Vec<Vec<(NodeId, usize)>>>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            connections: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            clock: None,
            clock_sinks: Vec::new(),
            drivers: Vec::new(),
            sinks: Vec::new(),
        }
    }

    fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.drivers.push(vec![None; kind.input_ports()]);
        self.sinks.push(vec![Vec::new(); kind.output_ports()]);
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
        });
        id
    }

    /// Adds a primary data input and returns its node id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.add_node(NodeKind::Input, name);
        self.inputs.push(id);
        id
    }

    /// Adds a primary output and returns its node id.
    pub fn add_output(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.add_node(NodeKind::Output, name);
        self.outputs.push(id);
        id
    }

    /// Adds the clock source. A netlist has at most one clock source.
    ///
    /// # Panics
    /// Panics if a clock source already exists.
    pub fn add_clock(&mut self, name: impl Into<String>) -> NodeId {
        assert!(self.clock.is_none(), "netlist already has a clock source");
        let id = self.add_node(NodeKind::ClockSource, name);
        self.clock = Some(id);
        id
    }

    /// Adds a standard-cell instance and returns its node id.
    pub fn add_cell(&mut self, kind: CellKind, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Cell(kind), name)
    }

    /// Connects output `from` to input port `to_port` of node `to`.
    ///
    /// # Panics
    /// Panics if either node does not exist, the port indices are out of
    /// range, or the input port is already driven.
    pub fn connect(&mut self, from: PortRef, to: NodeId, to_port: usize) {
        let from_node = self.node(from.node);
        assert!(
            from.port < from_node.kind.output_ports(),
            "node {} ({}) has no output port {}",
            from_node.name,
            from.node,
            from.port
        );
        let to_node = self.node(to);
        assert!(
            to_port < to_node.kind.input_ports(),
            "node {} ({}) has no input port {}",
            to_node.name,
            to,
            to_port
        );
        assert!(
            self.drivers[to.0][to_port].is_none(),
            "input port {} of node {} is already driven",
            to_port,
            to_node.name
        );
        self.drivers[to.0][to_port] = Some(from);
        self.sinks[from.node.0][from.port].push((to, to_port));
        self.connections.push(Connection { from, to, to_port });
    }

    /// Registers a clocked cell as a sink of the clock-distribution network.
    ///
    /// The synthesis pass [`synth::build_clock_tree`] later expands the clock
    /// network into an explicit splitter tree feeding these sinks.
    ///
    /// # Panics
    /// Panics if the node is not a clocked cell.
    pub fn add_clock_sink(&mut self, node: NodeId) {
        assert!(
            self.node(node).kind.is_clocked(),
            "only clocked cells can be clock sinks"
        );
        self.clock_sinks.push(node);
    }

    /// Returns a node by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// All nodes, in creation order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All connections.
    #[must_use]
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Primary data inputs, in creation order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs, in creation order.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The clock source, if one was added.
    #[must_use]
    pub fn clock(&self) -> Option<NodeId> {
        self.clock
    }

    /// Clocked cells registered as clock sinks.
    #[must_use]
    pub fn clock_sinks(&self) -> &[NodeId] {
        &self.clock_sinks
    }

    /// The driver of input port `port` of node `id`, if connected. O(1) via
    /// the reverse-driver index.
    #[must_use]
    pub fn driver_of(&self, id: NodeId, port: usize) -> Option<PortRef> {
        self.drivers[id.0][port]
    }

    /// All (node, port) pairs driven by output port `from`, in connection
    /// order. O(deg) via the sink index.
    #[must_use]
    pub fn sinks_of(&self, from: PortRef) -> Vec<(NodeId, usize)> {
        self.sinks[from.node.0][from.port].clone()
    }

    /// Number of cell instances of a given kind.
    #[must_use]
    pub fn count_cells(&self, kind: CellKind) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Cell(kind))
            .count()
    }

    /// Histogram of cell kinds.
    #[must_use]
    pub fn cell_histogram(&self) -> BTreeMap<CellKind, u64> {
        let mut hist = BTreeMap::new();
        for node in &self.nodes {
            if let NodeKind::Cell(kind) = node.kind {
                *hist.entry(kind).or_insert(0) += 1;
            }
        }
        hist
    }

    /// Logic depth of the netlist: the maximum number of clocked cells on any
    /// path from a primary input to a primary output. The paper's
    /// Hamming(8,4) encoder has logic depth 2.
    #[must_use]
    pub fn logic_depth(&self) -> usize {
        // Depth of a node = clocked stages encountered from inputs up to and
        // including that node. Computed by memoized DFS over drivers.
        let mut memo: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut best = 0;
        for &out in &self.outputs {
            best = best.max(self.depth_of(out, &mut memo));
        }
        best
    }

    fn depth_of(&self, id: NodeId, memo: &mut Vec<Option<usize>>) -> usize {
        if let Some(d) = memo[id.0] {
            return d;
        }
        // Mark to guard against combinational loops (which the DRC reports).
        memo[id.0] = Some(0);
        let node = &self.nodes[id.0];
        let own = usize::from(node.kind.is_clocked());
        let mut upstream = 0;
        for port in 0..node.kind.input_ports() {
            if let Some(driver) = self.driver_of(id, port) {
                upstream = upstream.max(self.depth_of(driver.node, memo));
            }
        }
        let depth = own + upstream;
        memo[id.0] = Some(depth);
        depth
    }

    /// Per-output logic depth (number of clocked stages driving each primary
    /// output), in the order of [`Netlist::outputs`].
    #[must_use]
    pub fn output_depths(&self) -> Vec<usize> {
        let mut memo: Vec<Option<usize>> = vec![None; self.nodes.len()];
        self.outputs
            .iter()
            .map(|&out| self.depth_of(out, &mut memo))
            .collect()
    }

    /// Pretty-prints the netlist as a human-readable text listing.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("netlist {}\n", self.name));
        for node in &self.nodes {
            let kind = match &node.kind {
                NodeKind::Input => "INPUT".to_string(),
                NodeKind::Output => "OUTPUT".to_string(),
                NodeKind::ClockSource => "CLOCK".to_string(),
                NodeKind::Cell(c) => c.short_name().to_string(),
            };
            let drivers: Vec<String> = (0..node.kind.input_ports())
                .map(|p| match self.driver_of(node.id, p) {
                    Some(d) => format!("{}#{}", self.node(d.node).name, d.port),
                    None => "<unconnected>".to_string(),
                })
                .collect();
            out.push_str(&format!(
                "  {:<6} {:<24} <- [{}]\n",
                kind,
                node.name,
                drivers.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_netlist() -> Netlist {
        // m -> XOR(m, m2) -> out, plus clock.
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("m1");
        let b = nl.add_input("m2");
        let clk = nl.add_clock("clk");
        let xor = nl.add_cell(CellKind::Xor, "x0");
        let out = nl.add_output("c1");
        nl.connect(PortRef::of(a), xor, 0);
        nl.connect(PortRef::of(b), xor, 1);
        nl.connect(PortRef::of(xor), out, 0);
        nl.add_clock_sink(xor);
        let _ = clk;
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = tiny_netlist();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        assert!(nl.clock().is_some());
        assert_eq!(nl.count_cells(CellKind::Xor), 1);
        assert_eq!(nl.logic_depth(), 1);
        assert_eq!(nl.clock_sinks().len(), 1);
        let out = nl.outputs()[0];
        let driver = nl.driver_of(out, 0).unwrap();
        assert_eq!(nl.node(driver.node).name, "x0");
    }

    #[test]
    fn sinks_of_lists_fanout() {
        let nl = tiny_netlist();
        let a = nl.inputs()[0];
        let sinks = nl.sinks_of(PortRef::of(a));
        assert_eq!(sinks.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_driving_an_input_port_panics() {
        let mut nl = tiny_netlist();
        let a = nl.inputs()[0];
        let out = nl.outputs()[0];
        nl.connect(PortRef::of(a), out, 0);
    }

    #[test]
    #[should_panic(expected = "no output port")]
    fn invalid_output_port_panics() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let out = nl.add_output("o");
        nl.connect(PortRef { node: a, port: 1 }, out, 0);
    }

    #[test]
    #[should_panic(expected = "already has a clock")]
    fn two_clock_sources_panic() {
        let mut nl = Netlist::new("bad");
        nl.add_clock("clk1");
        nl.add_clock("clk2");
    }

    #[test]
    #[should_panic(expected = "only clocked cells")]
    fn splitter_cannot_be_clock_sink() {
        let mut nl = Netlist::new("bad");
        let s = nl.add_cell(CellKind::Splitter, "s0");
        nl.add_clock_sink(s);
    }

    #[test]
    fn histogram_counts_cells() {
        let mut nl = tiny_netlist();
        nl.add_cell(CellKind::Dff, "d0");
        nl.add_cell(CellKind::Dff, "d1");
        let hist = nl.cell_histogram();
        assert_eq!(hist[&CellKind::Xor], 1);
        assert_eq!(hist[&CellKind::Dff], 2);
    }

    #[test]
    fn logic_depth_counts_clocked_stages_only() {
        let mut nl = Netlist::new("depth");
        let a = nl.add_input("a");
        let spl = nl.add_cell(CellKind::Splitter, "s");
        let d1 = nl.add_cell(CellKind::Dff, "d1");
        let d2 = nl.add_cell(CellKind::Dff, "d2");
        let out = nl.add_output("o");
        let out2 = nl.add_output("o2");
        nl.connect(PortRef::of(a), spl, 0);
        nl.connect(PortRef { node: spl, port: 0 }, d1, 0);
        nl.connect(PortRef { node: spl, port: 1 }, out2, 0);
        nl.connect(PortRef::of(d1), d2, 0);
        nl.connect(PortRef::of(d2), out, 0);
        assert_eq!(nl.logic_depth(), 2);
        assert_eq!(nl.output_depths(), vec![2, 0]);
    }

    #[test]
    fn reverse_indexes_match_a_scan_of_the_connection_list() {
        let mut nl = tiny_netlist();
        // Add some fan-out and a clock tree to exercise multi-sink ports.
        let xor = nl.nodes()[3].id;
        let d0 = nl.add_cell(CellKind::Dff, "d0");
        nl.add_clock_sink(d0);
        let o2 = nl.add_output("c2");
        // xor already drives c1; route a second sink through the DFF chain
        // via a splitter to stay fan-out-legal, then build the clock tree.
        let _ = (xor, d0, o2);
        let a2 = nl.add_input("m3");
        nl.connect(PortRef::of(a2), d0, 0);
        nl.connect(PortRef::of(d0), o2, 0);
        synth::build_clock_tree(&mut nl, "clk");

        for node in nl.nodes() {
            for port in 0..node.kind.input_ports() {
                let scanned = nl
                    .connections()
                    .iter()
                    .find(|c| c.to == node.id && c.to_port == port)
                    .map(|c| c.from);
                assert_eq!(nl.driver_of(node.id, port), scanned, "{}", node.name);
            }
            for port in 0..node.kind.output_ports() {
                let from = PortRef {
                    node: node.id,
                    port,
                };
                let scanned: Vec<(NodeId, usize)> = nl
                    .connections()
                    .iter()
                    .filter(|c| c.from == from)
                    .map(|c| (c.to, c.to_port))
                    .collect();
                assert_eq!(nl.sinks_of(from), scanned, "{}#{port}", node.name);
            }
        }
    }

    #[test]
    fn to_text_mentions_every_node() {
        let nl = tiny_netlist();
        let text = nl.to_text();
        assert!(text.contains("m1"));
        assert!(text.contains("x0"));
        assert!(text.contains("c1"));
        assert!(text.contains("XOR"));
    }
}
