//! Per-cell timing parameters.
//!
//! SFQ logic is pulse based: a clocked gate captures the data pulses that
//! arrive between two clock pulses and emits its result a small
//! clock-to-output delay after the next clock pulse. Combinational cells
//! (JTLs, splitters, mergers, output drivers) simply propagate pulses after a
//! fixed delay. The gate-level simulator uses these values to model logic
//! depth (two clock cycles for the Hamming(8,4) encoder, Fig. 3) and to check
//! setup/hold violations when process variations skew delays.

use serde::{Deserialize, Serialize};

/// Timing parameters of a standard cell, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Delay from the triggering event (clock pulse for clocked cells, input
    /// pulse for combinational cells) to the output pulse.
    pub delay_ps: f64,
    /// Setup time: a data pulse must arrive at least this long before the
    /// clock pulse to be captured reliably. Zero for combinational cells.
    pub setup_ps: f64,
    /// Hold time: a data pulse must not arrive earlier than this long after
    /// the previous clock pulse. Zero for combinational cells.
    pub hold_ps: f64,
}

impl TimingParams {
    /// Timing of a combinational (unclocked) cell with the given propagation
    /// delay.
    #[must_use]
    pub fn combinational(delay_ps: f64) -> Self {
        TimingParams {
            delay_ps,
            setup_ps: 0.0,
            hold_ps: 0.0,
        }
    }

    /// Timing of a clocked cell.
    #[must_use]
    pub fn clocked(delay_ps: f64, setup_ps: f64, hold_ps: f64) -> Self {
        TimingParams {
            delay_ps,
            setup_ps,
            hold_ps,
        }
    }

    /// Returns a copy with every timing quantity scaled by `factor` —
    /// used to model the delay impact of process parameter variations
    /// (slower junctions under reduced critical current).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        TimingParams {
            delay_ps: self.delay_ps * factor,
            setup_ps: self.setup_ps * factor,
            hold_ps: self.hold_ps * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinational_has_no_setup_hold() {
        let t = TimingParams::combinational(3.0);
        assert_eq!(t.delay_ps, 3.0);
        assert_eq!(t.setup_ps, 0.0);
        assert_eq!(t.hold_ps, 0.0);
    }

    #[test]
    fn scaling_multiplies_all_fields() {
        let t = TimingParams::clocked(6.0, 3.0, 1.0).scaled(1.5);
        assert!((t.delay_ps - 9.0).abs() < 1e-12);
        assert!((t.setup_ps - 4.5).abs() < 1e-12);
        assert!((t.hold_ps - 1.5).abs() < 1e-12);
    }
}
