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

    /// Thermal-noise current spectral density `√(4 k_B T / R)` for a resistor
    /// `r_ohm`, in A/√Hz, at the process operating temperature.
    #[must_use]
    pub fn thermal_noise_current_density(&self, r_ohm: f64) -> f64 {
        (4.0 * BOLTZMANN * self.temperature_k / r_ohm).sqrt()
    }

    /// Approximate thermal fluctuation parameter Γ = 2π k_B T / (Φ0 · Ic)
    /// for a junction with critical current `ic_ua` (in µA). Γ ≪ 1 means
    /// thermally induced switching is rare.
    #[must_use]
    pub fn thermal_fluctuation_gamma(&self, ic_ua: f64) -> f64 {
        2.0 * std::f64::consts::PI * BOLTZMANN * self.temperature_k / (FLUX_QUANTUM * ic_ua * 1e-6)
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

    #[test]
    fn thermal_noise_density_scales_with_resistance() {
        let p = Process::mit_ll_sfq5ee();
        let d1 = p.thermal_noise_current_density(1.0);
        let d4 = p.thermal_noise_current_density(4.0);
        assert!((d1 / d4 - 2.0).abs() < 1e-9);
        // Order of magnitude: ~15 pA/sqrt(Hz) at 4.2 K for 1 ohm.
        assert!(d1 > 1e-12 && d1 < 1e-10);
    }

    #[test]
    fn gamma_is_small_for_100ua_junctions() {
        let p = Process::mit_ll_sfq5ee();
        let gamma = p.thermal_fluctuation_gamma(100.0);
        assert!(gamma < 0.01, "gamma = {gamma}");
        // Smaller junctions are noisier.
        assert!(p.thermal_fluctuation_gamma(10.0) > gamma);
    }
}
