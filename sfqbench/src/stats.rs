//! The benchmark's own arithmetic: quantiles and spreads of repeated
//! timings, geometric means, guarded ratios, self-time subtraction, the
//! percentile sample-count rule, and the FNV-1a digests of simulated
//! outputs. Kept free of I/O so the unit tests below pin every formula.

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
/// Panics on an empty sample or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how the spread of a
/// metric across runs is judged. Needs at least two values.
///
/// # Panics
/// Panics on fewer than two values or a NaN.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    // CPython's formula: position i·(n+1)/4, index clamped to 1..n-1, then
    // linear interpolation (extrapolation at the clamped ends).
    let len = sorted.len() as i64;
    let at = |i: i64| -> f64 {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(3))
}

/// The `q` quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics (position `q·(n−1)`).
///
/// # Panics
/// Panics on an empty sample, a NaN, or `q` outside `[0, 1]`.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Which end of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates.
    Higher,
    /// Times.
    Lower,
}

/// The decile at the good end of repeated host samples: the 90th
/// percentile of rates, the 10th of times. On a shared host, other
/// tenants slow whole stretches of repetitions by up to half; the median
/// moves with how much of a run they cover, the good-end decile does not,
/// so this is the figure the result line reports.
#[must_use]
pub fn good_decile(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Higher => quantile(values, 0.9),
        Better::Lower => quantile(values, 0.1),
    }
}

/// Interquartile range as a share of the median — the benchmark's
/// steadiness figure.
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    ratio(q3 - q1, median(values))
}

/// Geometric mean of positive values.
///
/// # Panics
/// Panics on an empty sample or a non-positive value.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// reports a zero ratio, not NaN).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time of a span: its duration minus the part its children cover,
/// never negative (children timed separately can overshoot by noise).
#[must_use]
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    (total - children.iter().sum::<f64>()).max(0.0)
}

/// Whether a percentile `p` (in `(0, 1)`) of `samples` values has at least
/// ten samples beyond it — the rule for which tail percentile a timing may
/// be reported at.
#[must_use]
pub fn percentile_supported(samples: u64, p: f64) -> bool {
    (samples as f64) * (1.0 - p) >= 10.0 - 1e-9
}

/// Streaming 64-bit FNV-1a over `u64` words (little-endian bytes).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word into the hash.
    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a byte string into the hash (length-prefixed).
    pub fn bytes(&mut self, data: &[u8]) {
        self.word(data.len() as u64);
        for &byte in data {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a digest of a sequence of counts.
#[must_use]
pub fn digest_counts(counts: &[usize]) -> String {
    let mut h = Fnv::default();
    for &c in counts {
        h.word(c as u64);
    }
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        let spread = relative_spread(&v);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // Rates take the fast end from above, times from below.
        let rates: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(good_decile(&rates, Better::Higher), 10.0);
        assert_eq!(good_decile(&rates, Better::Lower), 2.0);
    }

    #[test]
    fn geomean_of_rates() {
        assert!((geomean(&[1e8, 1e6]) - 1e7).abs() < 1e-3);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero_rates() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn ratios_guard_zero_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(10.0, &[2.0, 3.0]), 5.0);
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(4.0, &[3.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert!(!percentile_supported(0, 0.5));
    }

    #[test]
    fn fnv_digests_are_order_sensitive_and_stable() {
        assert_eq!(digest_counts(&[]), "cbf29ce484222325");
        assert_ne!(digest_counts(&[1, 2]), digest_counts(&[2, 1]));
        assert_eq!(digest_counts(&[1, 2, 3]), digest_counts(&[1, 2, 3]));
        let mut a = Fnv::default();
        a.bytes(b"ab");
        let mut b = Fnv::default();
        b.bytes(b"a");
        b.bytes(b"b");
        assert_ne!(a.hex(), b.hex(), "length prefix separates fields");
    }
}
