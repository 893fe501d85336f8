//! Per-cell fault descriptions used by the gate-level simulator.
//!
//! A fault map assigns each netlist node a per-activation malfunction
//! probability and a failure mode. Fault maps are produced by the PPV model
//! ([`crate::ppv::PpvModel`]) from sampled parameter deviations, but can also
//! be constructed directly for targeted fault-injection tests.

use serde::{Deserialize, Serialize};
use sfq_netlist::{Netlist, NodeId};

/// How a malfunctioning cell misbehaves during an affected clock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureMode {
    /// The cell fails to emit its output pulse (the dominant SFQ failure:
    /// a junction that should switch does not).
    DropPulse,
    /// The cell emits a pulse it should not have (premature or thermally
    /// induced switching).
    SpuriousPulse,
}

/// Fault state of one cell for one fabricated chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellFault {
    /// Probability that the cell malfunctions during any given clock cycle in
    /// which it is active.
    pub activation_failure_prob: f64,
    /// How the malfunction manifests.
    pub mode: FailureMode,
}

impl CellFault {
    /// A healthy cell: never malfunctions.
    #[must_use]
    pub fn healthy() -> Self {
        CellFault {
            activation_failure_prob: 0.0,
            mode: FailureMode::DropPulse,
        }
    }

    /// A hard-failed cell: malfunctions on every cycle.
    #[must_use]
    pub fn hard(mode: FailureMode) -> Self {
        CellFault {
            activation_failure_prob: 1.0,
            mode,
        }
    }

    /// Returns `true` if this cell can ever malfunction.
    #[must_use]
    pub fn is_faulty(&self) -> bool {
        self.activation_failure_prob > 0.0
    }
}

impl Default for CellFault {
    fn default() -> Self {
        Self::healthy()
    }
}

/// Fault assignment for every node of a netlist (one "fabricated chip").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMap {
    faults: Vec<CellFault>,
}

impl FaultMap {
    /// An all-healthy fault map for a netlist.
    #[must_use]
    pub fn healthy(netlist: &Netlist) -> Self {
        Self::healthy_with_len(netlist.nodes().len())
    }

    /// An all-healthy fault map for `len` nodes.
    #[must_use]
    pub(crate) fn healthy_with_len(len: usize) -> Self {
        FaultMap {
            faults: vec![CellFault::healthy(); len],
        }
    }

    /// Sets the fault of one node.
    ///
    /// # Panics
    /// Panics if the node id is out of range for the netlist this map was
    /// created from.
    pub fn set(&mut self, node: NodeId, fault: CellFault) {
        self.faults[node.0] = fault;
    }

    /// Returns the fault of one node.
    #[must_use]
    pub fn get(&self, node: NodeId) -> CellFault {
        self.faults[node.0]
    }

    /// Number of nodes with a nonzero malfunction probability.
    #[must_use]
    pub fn faulty_count(&self) -> usize {
        self.faults.iter().filter(|f| f.is_faulty()).count()
    }

    /// Iterates over `(node, fault)` pairs with nonzero malfunction
    /// probability.
    pub fn iter_faulty(&self) -> impl Iterator<Item = (NodeId, CellFault)> + '_ {
        self.faults
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_faulty())
            .map(|(i, f)| (NodeId(i), *f))
    }

    /// Returns `true` if every cell is healthy.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.faulty_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_map_has_no_faults() {
        let mut nl = Netlist::new("t");
        nl.add_input("a");
        nl.add_output("o");
        let map = FaultMap::healthy(&nl);
        assert!(map.is_healthy());
        assert_eq!(map.faulty_count(), 0);
        assert_eq!(map.iter_faulty().count(), 0);
    }

    #[test]
    fn set_and_get_fault() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        nl.add_output("o");
        let mut map = FaultMap::healthy(&nl);
        map.set(a, CellFault::hard(FailureMode::SpuriousPulse));
        assert!(!map.is_healthy());
        assert_eq!(map.faulty_count(), 1);
        assert_eq!(map.get(a).mode, FailureMode::SpuriousPulse);
        assert!((map.get(a).activation_failure_prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_fault_is_healthy() {
        let f = CellFault::default();
        assert!(!f.is_faulty());
    }
}
