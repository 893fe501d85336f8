//! Netlist statistics: the cell-count / JJ-count / power / area bookkeeping
//! that generates Table II of the paper.

use crate::{Netlist, NodeKind};
use serde::{Deserialize, Serialize};
use sfq_cells::{CellKind, CellLibrary, CircuitCost};
use std::collections::BTreeMap;
use std::fmt;

/// A histogram of standard-cell instances.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellHistogram {
    counts: BTreeMap<CellKind, u64>,
}

impl CellHistogram {
    /// Builds the histogram of a netlist.
    #[must_use]
    pub fn of(netlist: &Netlist) -> Self {
        CellHistogram {
            counts: netlist.cell_histogram(),
        }
    }

    /// Count of one cell kind.
    #[must_use]
    pub fn count(&self, kind: CellKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total number of cell instances.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Underlying map.
    #[must_use]
    pub fn as_map(&self) -> &BTreeMap<CellKind, u64> {
        &self.counts
    }
}

impl fmt::Display for CellHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(k, c)| format!("{c} {k}"))
            .collect();
        write!(f, "{}", parts.join(", "))
    }
}

/// Full statistics of a netlist evaluated against a cell library — one row of
/// Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Netlist name.
    pub name: String,
    /// Cell histogram.
    pub histogram: CellHistogram,
    /// Aggregate JJ count, power, area, bias current.
    pub cost: CircuitCost,
    /// Logic depth (clocked stages input → output).
    pub logic_depth: usize,
    /// Number of primary data inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
}

impl NetlistStats {
    /// Computes the statistics of a netlist against a library.
    #[must_use]
    pub fn compute(netlist: &Netlist, library: &CellLibrary) -> Self {
        let histogram = CellHistogram::of(netlist);
        let cost = CircuitCost::from_histogram(library, histogram.as_map());
        NetlistStats {
            name: netlist.name.clone(),
            histogram,
            cost,
            logic_depth: netlist.logic_depth(),
            num_inputs: netlist.inputs().len(),
            num_outputs: netlist
                .nodes()
                .iter()
                .filter(|n| n.kind == NodeKind::Output)
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortRef;

    #[test]
    fn histogram_and_stats_of_small_netlist() {
        let mut nl = Netlist::new("small");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let clk = nl.add_clock("clk");
        let xor = nl.add_cell(CellKind::Xor, "x0");
        let dff = nl.add_cell(CellKind::Dff, "d0");
        let out = nl.add_output("o");
        nl.connect(PortRef::of(a), xor, 0);
        nl.connect(PortRef::of(b), xor, 1);
        nl.connect(PortRef::of(clk), xor, 2);
        nl.connect(PortRef::of(xor), dff, 0);
        nl.connect(PortRef::of(dff), out, 0);
        nl.add_clock_sink(dff);

        let hist = CellHistogram::of(&nl);
        assert_eq!(hist.count(CellKind::Xor), 1);
        assert_eq!(hist.count(CellKind::Dff), 1);
        assert_eq!(hist.count(CellKind::Splitter), 0);
        assert_eq!(hist.total(), 2);
        assert!(hist.to_string().contains("1 XOR"));

        let lib = CellLibrary::coldflux();
        let stats = NetlistStats::compute(&nl, &lib);
        assert_eq!(stats.cost.jj_count, 11 + 7);
        assert_eq!(stats.logic_depth, 2);
        assert_eq!(stats.num_inputs, 2);
        assert_eq!(stats.num_outputs, 1);
    }
}
