//! Cryogenic cable and CMOS receiver model.
//!
//! The SFQ-to-DC converters present DC levels of roughly a millivolt, which
//! are carried by cryogenic cables from the 4.2 K stage to a 50–300 K stage
//! and amplified/thresholded by CMOS circuits (Fig. 1). The paper treats this
//! part of the link as ideal (its errors come from PPV in the encoder), but
//! modelling it explicitly lets the ablation experiments add receiver noise
//! and study how channel quality interacts with the coding gain.

use gf2::BitVec;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Electrical configuration of one cryo-cable + receiver channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// DC level presented by the SFQ-to-DC driver for a logical `1`, in
    /// millivolts (the paper quotes output drivers producing up to ~1 V after
    /// amplification; at the driver itself the swing is in the mV range).
    pub high_level_mv: f64,
    /// Cable attenuation as a linear factor (1.0 = lossless).
    pub attenuation: f64,
    /// RMS noise referred to the receiver input, in millivolts.
    pub noise_rms_mv: f64,
    /// Receiver decision threshold, in millivolts.
    pub threshold_mv: f64,
}

impl ChannelConfig {
    /// An effectively ideal channel: generous swing, negligible noise.
    #[must_use]
    pub fn ideal() -> Self {
        ChannelConfig {
            high_level_mv: 1.0,
            attenuation: 0.9,
            noise_rms_mv: 1e-6,
            threshold_mv: 0.45,
        }
    }

    /// A noisy channel with the given signal-to-noise ratio (in dB) at the
    /// receiver, keeping the ideal swing and threshold.
    #[must_use]
    pub fn with_snr_db(snr_db: f64) -> Self {
        let ideal = Self::ideal();
        let signal = ideal.high_level_mv * ideal.attenuation;
        ChannelConfig {
            noise_rms_mv: signal / 10f64.powf(snr_db / 20.0),
            ..ideal
        }
    }

    /// The equivalent binary-symmetric-channel crossover probability of this
    /// configuration: the probability that Gaussian noise moves a level
    /// across the threshold.
    #[must_use]
    pub fn crossover_probability(&self) -> f64 {
        let signal = self.high_level_mv * self.attenuation;
        // Distances from the two nominal levels (0 and `signal`) to the threshold.
        let d0 = self.threshold_mv;
        let d1 = signal - self.threshold_mv;
        let q = |d: f64| 0.5 * erfc(d / (self.noise_rms_mv * std::f64::consts::SQRT_2));
        0.5 * (q(d0) + q(d1))
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Complementary error function (Abramowitz–Stegun 7.1.26 rational
/// approximation; max absolute error ≈ 1.5 × 10⁻⁷).
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x_abs);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erfc_abs = poly * (-x_abs * x_abs).exp();
    if sign_negative {
        2.0 - erfc_abs
    } else {
        erfc_abs
    }
}

/// A bank of parallel cryo-cable channels carrying one DC level each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CryoCable {
    config: ChannelConfig,
    channels: usize,
}

impl CryoCable {
    /// Creates a cable bundle with `channels` parallel lines.
    #[must_use]
    pub fn new(channels: usize, config: ChannelConfig) -> Self {
        CryoCable { config, channels }
    }

    /// Number of parallel channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The channel configuration.
    #[must_use]
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Transports a word of DC levels across the cable and thresholds it at
    /// the CMOS receiver, adding Gaussian noise per channel.
    ///
    /// # Panics
    /// Panics if the word length differs from the channel count.
    pub fn transport<R: Rng + ?Sized>(&self, word: &BitVec, rng: &mut R) -> BitVec {
        assert_eq!(
            word.len(),
            self.channels,
            "word width must match channel count"
        );
        let signal = self.config.high_level_mv * self.config.attenuation;
        (0..word.len())
            .map(|i| {
                let level = if word.get(i) { signal } else { 0.0 };
                let noise = gaussian(rng) * self.config.noise_rms_mv;
                level + noise > self.config.threshold_mv
            })
            .collect()
    }
}

/// Standard-normal sample via the Box–Muller transform.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_channel_is_transparent() {
        let cable = CryoCable::new(8, ChannelConfig::ideal());
        let mut rng = StdRng::seed_from_u64(1);
        for w in 0u64..256 {
            let word = BitVec::from_u64(8, w);
            assert_eq!(cable.transport(&word, &mut rng), word);
        }
    }

    #[test]
    fn crossover_probability_increases_as_snr_drops() {
        let high = ChannelConfig::with_snr_db(20.0).crossover_probability();
        let low = ChannelConfig::with_snr_db(6.0).crossover_probability();
        assert!(low > high, "low SNR must have more errors: {low} vs {high}");
        assert!(ChannelConfig::ideal().crossover_probability() < 1e-12);
    }

    #[test]
    fn noisy_channel_flips_roughly_the_predicted_fraction() {
        let config = ChannelConfig::with_snr_db(10.0);
        let predicted = config.crossover_probability();
        let cable = CryoCable::new(8, config);
        let mut rng = StdRng::seed_from_u64(3);
        let word = BitVec::from_u64(8, 0b1010_1100);
        let trials = 20_000;
        let mut flips = 0usize;
        for _ in 0..trials {
            let received = cable.transport(&word, &mut rng);
            flips += received.hamming_distance(&word);
        }
        let measured = flips as f64 / (trials * 8) as f64;
        assert!(
            (measured - predicted).abs() < 0.02 + predicted * 0.3,
            "measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!(erfc(3.0) < 3e-5);
        assert!((erfc(-3.0) - 2.0).abs() < 3e-5);
        assert!((erfc(0.5) - 0.4795).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "word width must match")]
    fn transport_rejects_wrong_width() {
        let cable = CryoCable::new(8, ChannelConfig::ideal());
        let mut rng = StdRng::seed_from_u64(1);
        let _ = cable.transport(&BitVec::zeros(4), &mut rng);
    }
}
