//! Fabrication-process description.
//!
//! The paper's encoders target the MIT Lincoln Laboratory SFQ5ee process with
//! a critical current density of 10 kA/cm². The process record carries the
//! junction and wiring constants (critical current density, characteristic
//! voltage, shunt resistance scaling, operating temperature) from which the
//! Fig. 3 waveform renderer derives its pulse width and thermal noise.

use serde::{Deserialize, Serialize};

/// Magnetic flux quantum Φ₀ in webers (≈ 2.0678 × 10⁻¹⁵ Wb).
pub const FLUX_QUANTUM: f64 = 2.067_833_848e-15;

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// A superconducting fabrication process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Process {
    /// Process name, e.g. `"MIT LL SFQ5ee"`.
    pub name: String,
    /// Critical current density in kA/cm².
    pub jc_ka_per_cm2: f64,
    /// Nominal junction critical current in microamperes (for a reference
    /// junction of the standard-cell library).
    pub nominal_ic_ua: f64,
    /// Characteristic voltage Ic·Rn in millivolts.
    pub ic_rn_mv: f64,
    /// Junction specific capacitance in fF/µm².
    pub specific_capacitance_ff_um2: f64,
    /// Sheet inductance of the wiring layers in pH/square.
    pub sheet_inductance_ph_sq: f64,
    /// Bias voltage applied to the resistive bias network, in millivolts.
    pub bias_voltage_mv: f64,
    /// Operating temperature in kelvin.
    pub temperature_k: f64,
}

impl Process {
    /// The MIT Lincoln Laboratory SFQ5ee 10 kA/cm² process used by the paper.
    #[must_use]
    pub fn mit_ll_sfq5ee() -> Self {
        Process {
            name: "MIT LL SFQ5ee".to_string(),
            jc_ka_per_cm2: 10.0,
            nominal_ic_ua: 100.0,
            ic_rn_mv: 0.7,
            specific_capacitance_ff_um2: 70.0,
            sheet_inductance_ph_sq: 8.0,
            bias_voltage_mv: 2.6,
            temperature_k: 4.2,
        }
    }

    /// Plasma-frequency-limited SFQ pulse width estimate in picoseconds:
    /// `τ ≈ Φ0 / (Ic·Rn)`.
    #[must_use]
    pub fn pulse_width_ps(&self) -> f64 {
        FLUX_QUANTUM / (self.ic_rn_mv * 1e-3) * 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sfq5ee_constants() {
        let p = Process::mit_ll_sfq5ee();
        assert_eq!(p.jc_ka_per_cm2, 10.0);
        assert_eq!(p.temperature_k, 4.2);
        assert_eq!(p.bias_voltage_mv, 2.6);
    }

    #[test]
    fn pulse_width_is_a_couple_of_picoseconds() {
        // The paper quotes ~1 mV amplitude and ~2 ps duration for SFQ pulses.
        let p = Process::mit_ll_sfq5ee();
        let tau = p.pulse_width_ps();
        assert!(tau > 1.0 && tau < 5.0, "pulse width {tau} ps");
    }
}
