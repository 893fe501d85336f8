//! RSFQ standard-cell library model.
//!
//! The paper implements its encoders with the SuperTools/ColdFlux RSFQ cell
//! library on the MIT Lincoln Laboratory SFQ5ee 10 kA/cm² process and reports
//! the circuit-level cost of each encoder (Table II) as the number of
//! Josephson junctions (JJs), the static power dissipation, and the layout
//! area. This crate provides the per-cell constants needed to perform the
//! same bookkeeping, together with the operating margins used by the PPV
//! fault model of the gate-level simulator (`sfq-sim`).
//!
//! Per-cell JJ count, power, and area are *calibrated* so that the three
//! encoder netlists of the paper reproduce Table II exactly (the calibration
//! is the unique realistic solution of the linear system formed by the three
//! table rows — see `DESIGN.md`). Cells not appearing in Table II carry
//! typical published RSFQ values.
//!
//! # Example
//!
//! ```
//! use sfq_cells::{CellKind, CellLibrary};
//!
//! let lib = CellLibrary::coldflux();
//! let xor = lib.params(CellKind::Xor);
//! assert_eq!(xor.jj_count, 11);
//! // Static power of a Hamming(8,4) encoder: 6 XOR + 8 DFF + 23 splitters
//! // + 8 SFQ-to-DC converters = 92.3 uW (Table II).
//! let total = 6.0 * lib.params(CellKind::Xor).static_power_uw
//!     + 8.0 * lib.params(CellKind::Dff).static_power_uw
//!     + 23.0 * lib.params(CellKind::Splitter).static_power_uw
//!     + 8.0 * lib.params(CellKind::SfqToDc).static_power_uw;
//! assert!((total - 92.3).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod margins;
pub mod process;

pub use margins::{MarginSpec, ParameterClass};
pub use process::Process;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The kinds of SFQ logic cells used in this workspace.
///
/// All clocked gates (XOR, AND, OR, NOT, DFF) require a clock pulse to emit
/// their output, and every SFQ gate has a fan-out of one — driving more than
/// one load requires an explicit [`CellKind::Splitter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Josephson transmission line segment (pulse buffer/repeater).
    Jtl,
    /// Pulse splitter: one input pulse is reproduced on two outputs.
    Splitter,
    /// Confluence buffer (merger): pulses from two inputs are merged onto one
    /// output.
    Merger,
    /// Clocked D flip-flop, used both for storage and for path balancing.
    Dff,
    /// Clocked XOR gate.
    Xor,
    /// Clocked AND gate.
    And,
    /// Clocked OR gate.
    Or,
    /// Clocked NOT (inverter) gate.
    Not,
    /// SFQ-to-DC converter: output driver that converts pulse trains into DC
    /// voltage levels for the room-temperature interface.
    SfqToDc,
    /// DC-to-SFQ converter: input interface generating SFQ pulses from DC
    /// signals.
    DcToSfq,
}

impl CellKind {
    /// All cell kinds, in a stable order.
    pub const ALL: [CellKind; 10] = [
        CellKind::Jtl,
        CellKind::Splitter,
        CellKind::Merger,
        CellKind::Dff,
        CellKind::Xor,
        CellKind::And,
        CellKind::Or,
        CellKind::Not,
        CellKind::SfqToDc,
        CellKind::DcToSfq,
    ];

    /// Returns `true` if the cell requires a clock input to produce output.
    #[must_use]
    pub fn is_clocked(&self) -> bool {
        matches!(
            self,
            CellKind::Dff | CellKind::Xor | CellKind::And | CellKind::Or | CellKind::Not
        )
    }

    /// Number of data (non-clock) inputs.
    #[must_use]
    pub fn data_inputs(&self) -> usize {
        match self {
            CellKind::Jtl
            | CellKind::Splitter
            | CellKind::Dff
            | CellKind::Not
            | CellKind::SfqToDc
            | CellKind::DcToSfq => 1,
            CellKind::Merger | CellKind::Xor | CellKind::And | CellKind::Or => 2,
        }
    }

    /// Number of outputs.
    #[must_use]
    pub fn outputs(&self) -> usize {
        match self {
            CellKind::Splitter => 2,
            _ => 1,
        }
    }

    /// Short library name (as used by the netlist printer).
    #[must_use]
    pub fn short_name(&self) -> &'static str {
        match self {
            CellKind::Jtl => "JTL",
            CellKind::Splitter => "SPL",
            CellKind::Merger => "CB",
            CellKind::Dff => "DFF",
            CellKind::Xor => "XOR",
            CellKind::And => "AND",
            CellKind::Or => "OR",
            CellKind::Not => "NOT",
            CellKind::SfqToDc => "SFQDC",
            CellKind::DcToSfq => "DCSFQ",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Physical and electrical parameters of one standard cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellParams {
    /// Cell kind these parameters describe.
    pub kind: CellKind,
    /// Number of Josephson junctions in the cell.
    pub jj_count: u32,
    /// Static (bias) power dissipation in microwatts.
    pub static_power_uw: f64,
    /// Layout area in square millimetres.
    pub area_mm2: f64,
    /// Total bias current in microamperes.
    pub bias_current_ua: f64,
    /// Switching energy per output pulse in attojoules (~ Ic · Φ0).
    pub switching_energy_aj: f64,
    /// Operating-margin specification used by the PPV fault model.
    pub margins: MarginSpec,
}

/// A complete standard-cell library: parameters for every [`CellKind`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    /// Library name, e.g. `"SuperTools/ColdFlux RSFQ (SFQ5ee)"`.
    pub name: String,
    /// Fabrication process the library targets.
    pub process: Process,
    cells: BTreeMap<CellKind, CellParams>,
}

impl CellLibrary {
    /// Builds a library from an explicit cell list.
    ///
    /// # Panics
    /// Panics if any [`CellKind`] is missing.
    #[must_use]
    pub fn new(name: impl Into<String>, process: Process, cells: Vec<CellParams>) -> Self {
        let map: BTreeMap<CellKind, CellParams> = cells.into_iter().map(|c| (c.kind, c)).collect();
        for kind in CellKind::ALL {
            assert!(map.contains_key(&kind), "library is missing cell {kind}");
        }
        CellLibrary {
            name: name.into(),
            process,
            cells: map,
        }
    }

    /// The SuperTools/ColdFlux RSFQ library on the MIT LL SFQ5ee process, with
    /// JJ count / power / area calibrated to reproduce Table II of the paper.
    #[must_use]
    pub fn coldflux() -> Self {
        let process = Process::mit_ll_sfq5ee();
        // The unique realistic solution of the Table II linear system:
        //   XOR: 11 JJ, 3.600 uW, 0.006 mm2
        //   DFF:  7 JJ, 2.00435 uW, 0.005 mm2
        //   SPL:  4 JJ, 1.33478 uW, 0.003 mm2
        //   SFQ-to-DC: 8 JJ, 2.99565 uW, 0.004 mm2
        // (6·XOR + 8·DFF + 23·SPL + 8·SFQDC = 278 JJ, 92.3 uW, 0.177 mm2, etc.)
        let spl_power = 30.7 / 23.0;
        let dff_power = 7.2 + 3.0 * spl_power - 9.2;
        let sfqdc_power = 10.6 - 3.6 - 3.0 * spl_power;
        let cells = vec![
            CellParams {
                kind: CellKind::Jtl,
                jj_count: 2,
                static_power_uw: 0.35,
                area_mm2: 0.0006,
                bias_current_ua: 175.0,
                switching_energy_aj: 0.2,
                margins: MarginSpec::uniform(0.40),
            },
            CellParams {
                kind: CellKind::Splitter,
                jj_count: 4,
                static_power_uw: spl_power,
                area_mm2: 0.003,
                bias_current_ua: 510.0,
                switching_energy_aj: 0.4,
                margins: MarginSpec::uniform(0.48),
            },
            CellParams {
                kind: CellKind::Merger,
                jj_count: 5,
                static_power_uw: 1.6,
                area_mm2: 0.003,
                bias_current_ua: 610.0,
                switching_energy_aj: 0.5,
                margins: MarginSpec::uniform(0.32),
            },
            CellParams {
                kind: CellKind::Dff,
                jj_count: 7,
                static_power_uw: dff_power,
                area_mm2: 0.005,
                bias_current_ua: 770.0,
                switching_energy_aj: 0.7,
                margins: MarginSpec::uniform(0.34),
            },
            CellParams {
                kind: CellKind::Xor,
                jj_count: 11,
                static_power_uw: 3.6,
                area_mm2: 0.006,
                bias_current_ua: 1380.0,
                switching_energy_aj: 1.1,
                margins: MarginSpec::uniform(0.31),
            },
            CellParams {
                kind: CellKind::And,
                jj_count: 11,
                static_power_uw: 3.5,
                area_mm2: 0.006,
                bias_current_ua: 1350.0,
                switching_energy_aj: 1.1,
                margins: MarginSpec::uniform(0.27),
            },
            CellParams {
                kind: CellKind::Or,
                jj_count: 9,
                static_power_uw: 3.0,
                area_mm2: 0.005,
                bias_current_ua: 1150.0,
                switching_energy_aj: 0.9,
                margins: MarginSpec::uniform(0.30),
            },
            CellParams {
                kind: CellKind::Not,
                jj_count: 9,
                static_power_uw: 3.0,
                area_mm2: 0.005,
                bias_current_ua: 1150.0,
                switching_energy_aj: 0.9,
                margins: MarginSpec::uniform(0.28),
            },
            CellParams {
                kind: CellKind::SfqToDc,
                jj_count: 8,
                static_power_uw: sfqdc_power,
                area_mm2: 0.004,
                bias_current_ua: 1030.0,
                switching_energy_aj: 1.5,
                margins: MarginSpec::uniform(0.30),
            },
            CellParams {
                kind: CellKind::DcToSfq,
                jj_count: 4,
                static_power_uw: 1.2,
                area_mm2: 0.003,
                bias_current_ua: 450.0,
                switching_energy_aj: 0.5,
                margins: MarginSpec::uniform(0.35),
            },
        ];
        CellLibrary::new("SuperTools/ColdFlux RSFQ (MIT LL SFQ5ee)", process, cells)
    }

    /// Returns the parameters of a cell kind.
    #[must_use]
    pub fn params(&self, kind: CellKind) -> &CellParams {
        &self.cells[&kind]
    }

    /// Josephson-junction count of one cell kind — the cost-model query the
    /// synthesis passes use when weighing transformations.
    #[must_use]
    pub fn jj_of(&self, kind: CellKind) -> u64 {
        u64::from(self.params(kind).jj_count)
    }

    /// Aggregate cost of an ad-hoc cell-count list, without building a
    /// histogram map first.
    #[must_use]
    pub fn cost_of(&self, counts: impl IntoIterator<Item = (CellKind, u64)>) -> CircuitCost {
        let mut cost = CircuitCost::default();
        for (kind, count) in counts {
            cost.add(self.params(kind), count);
        }
        cost
    }

    /// Iterates over all cells in the library.
    pub fn iter(&self) -> impl Iterator<Item = &CellParams> {
        self.cells.values()
    }

    /// Replaces the parameters of one cell (used by ablation studies).
    pub fn set_params(&mut self, params: CellParams) {
        self.cells.insert(params.kind, params);
    }
}

/// Aggregate cost of a collection of cells: the quantities reported per
/// encoder in Table II of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CircuitCost {
    /// Total number of Josephson junctions.
    pub jj_count: u64,
    /// Total static power dissipation in microwatts.
    pub static_power_uw: f64,
    /// Total layout area in square millimetres.
    pub area_mm2: f64,
    /// Total bias current in milliamperes.
    pub bias_current_ma: f64,
}

impl CircuitCost {
    /// Accumulates the cost of `count` instances of `cell`.
    pub fn add(&mut self, cell: &CellParams, count: u64) {
        self.jj_count += u64::from(cell.jj_count) * count;
        self.static_power_uw += cell.static_power_uw * count as f64;
        self.area_mm2 += cell.area_mm2 * count as f64;
        self.bias_current_ma += cell.bias_current_ua * count as f64 / 1000.0;
    }

    /// Computes the cost of a cell-count histogram against a library.
    #[must_use]
    pub fn from_histogram(library: &CellLibrary, histogram: &BTreeMap<CellKind, u64>) -> Self {
        let mut cost = CircuitCost::default();
        for (&kind, &count) in histogram {
            cost.add(library.params(kind), count);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2_cost(xor: u64, dff: u64, spl: u64, sfqdc: u64) -> CircuitCost {
        let lib = CellLibrary::coldflux();
        let mut hist = BTreeMap::new();
        hist.insert(CellKind::Xor, xor);
        hist.insert(CellKind::Dff, dff);
        hist.insert(CellKind::Splitter, spl);
        hist.insert(CellKind::SfqToDc, sfqdc);
        CircuitCost::from_histogram(&lib, &hist)
    }

    #[test]
    fn hamming84_cost_matches_table2() {
        let cost = table2_cost(6, 8, 23, 8);
        assert_eq!(cost.jj_count, 278);
        assert!(
            (cost.static_power_uw - 92.3).abs() < 1e-9,
            "{}",
            cost.static_power_uw
        );
        assert!((cost.area_mm2 - 0.177).abs() < 1e-12, "{}", cost.area_mm2);
    }

    #[test]
    fn hamming74_cost_matches_table2() {
        let cost = table2_cost(5, 8, 20, 7);
        assert_eq!(cost.jj_count, 247);
        assert!((cost.static_power_uw - 81.7).abs() < 1e-9);
        assert!((cost.area_mm2 - 0.158).abs() < 1e-12);
    }

    #[test]
    fn rm13_cost_matches_table2() {
        let cost = table2_cost(8, 7, 26, 8);
        assert_eq!(cost.jj_count, 305);
        assert!((cost.static_power_uw - 101.5).abs() < 1e-9);
        assert!((cost.area_mm2 - 0.193).abs() < 1e-12);
    }

    #[test]
    fn clocked_cells_are_flagged() {
        assert!(CellKind::Xor.is_clocked());
        assert!(CellKind::Dff.is_clocked());
        assert!(!CellKind::Splitter.is_clocked());
        assert!(!CellKind::Jtl.is_clocked());
        assert!(!CellKind::SfqToDc.is_clocked());
    }

    #[test]
    fn splitter_has_two_outputs_everything_else_one() {
        for kind in CellKind::ALL {
            let expected = if kind == CellKind::Splitter { 2 } else { 1 };
            assert_eq!(kind.outputs(), expected, "{kind}");
        }
    }

    #[test]
    fn two_input_gates() {
        assert_eq!(CellKind::Xor.data_inputs(), 2);
        assert_eq!(CellKind::And.data_inputs(), 2);
        assert_eq!(CellKind::Merger.data_inputs(), 2);
        assert_eq!(CellKind::Dff.data_inputs(), 1);
    }

    #[test]
    fn library_contains_all_cells() {
        let lib = CellLibrary::coldflux();
        assert_eq!(lib.iter().count(), CellKind::ALL.len());
        for kind in CellKind::ALL {
            let p = lib.params(kind);
            assert_eq!(p.kind, kind);
            assert!(p.jj_count > 0);
            assert!(p.static_power_uw > 0.0);
            assert!(p.area_mm2 > 0.0);
            assert!(p.margins.critical_current > 0.0);
        }
    }

    #[test]
    fn cost_queries_agree_with_the_histogram_path() {
        let lib = CellLibrary::coldflux();
        assert_eq!(lib.jj_of(CellKind::Xor), 11);
        assert_eq!(lib.jj_of(CellKind::Dff), 7);
        let direct = lib.cost_of([
            (CellKind::Xor, 6),
            (CellKind::Dff, 8),
            (CellKind::Splitter, 23),
            (CellKind::SfqToDc, 8),
        ]);
        let mut hist = BTreeMap::new();
        hist.insert(CellKind::Xor, 6);
        hist.insert(CellKind::Dff, 8);
        hist.insert(CellKind::Splitter, 23);
        hist.insert(CellKind::SfqToDc, 8);
        let via_histogram = CircuitCost::from_histogram(&lib, &hist);
        assert_eq!(direct.jj_count, via_histogram.jj_count);
        assert_eq!(direct.jj_count, 278);
        assert!((direct.static_power_uw - via_histogram.static_power_uw).abs() < 1e-12);
    }

    #[test]
    fn set_params_overrides_cell() {
        let mut lib = CellLibrary::coldflux();
        let mut xor = lib.params(CellKind::Xor).clone();
        xor.jj_count = 13;
        lib.set_params(xor);
        assert_eq!(lib.params(CellKind::Xor).jj_count, 13);
    }

    #[test]
    fn circuit_cost_is_additive() {
        let lib = CellLibrary::coldflux();
        let mut a = CircuitCost::default();
        a.add(lib.params(CellKind::Xor), 2);
        let mut b = CircuitCost::default();
        b.add(lib.params(CellKind::Xor), 1);
        b.add(lib.params(CellKind::Xor), 1);
        assert_eq!(a.jj_count, b.jj_count);
        assert!((a.static_power_uw - b.static_power_uw).abs() < 1e-12);
    }
}
