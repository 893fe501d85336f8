//! Owned, renderable views of a metrics registry.

use crate::json::JsonWriter;

/// Number of histogram buckets: bucket 0 for the value `0`, buckets
/// `1..=64` for `2^(b-1) ..= 2^b - 1` (the whole `u64` range).
pub const BUCKETS: usize = 65;

/// One merged counter in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Sum over all shards.
    pub value: u64,
}

/// One gauge in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Current value.
    pub value: i64,
}

/// One merged histogram in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total samples over all shards.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts (see [`crate::bucket_index`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty histogram snapshot under `name`.
    #[must_use]
    pub fn empty(name: String) -> Self {
        HistogramSnapshot {
            name,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q ∈ [0, 1]`: the inclusive upper bound of the
    /// bucket containing the `ceil(q · count)`-th smallest sample, clamped
    /// to the observed `min`/`max`. Deterministic, and exact to within one
    /// octave by construction.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return crate::bucket_upper_bound(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A merged, name-sorted view of a registry at one point in time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// `true` when the registry held no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of the named counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of the named gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Writes the snapshot as a JSON object (`counters`, `gauges`,
    /// `histograms` with count/sum/min/max/mean/p50/p90/p99 and the
    /// non-empty buckets) through the given writer.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for c in &self.counters {
            w.key(&c.name);
            w.uint(c.value);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for g in &self.gauges {
            w.key(&g.name);
            w.int(g.value);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for h in &self.histograms {
            w.key(&h.name);
            w.begin_object();
            w.key("count");
            w.uint(h.count);
            w.key("sum");
            w.uint(h.sum);
            w.key("min");
            w.uint(h.min);
            w.key("max");
            w.uint(h.max);
            w.key("mean");
            w.float(h.mean());
            w.key("p50");
            w.uint(h.p50());
            w.key("p90");
            w.uint(h.p90());
            w.key("p99");
            w.uint(h.p99());
            w.key("buckets");
            w.begin_object();
            for (b, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    w.key(&format!("le_{}", crate::bucket_upper_bound(b)));
                    w.uint(c);
                }
            }
            w.end_object();
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }

    /// The snapshot as a standalone JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Human-readable table: one line per metric, histograms with
    /// count/mean/p50/p99/max.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics registered)\n");
            return out;
        }
        for c in &self.counters {
            out.push_str(&format!("{:<44} {:>16}\n", c.name, c.value));
        }
        for g in &self.gauges {
            out.push_str(&format!("{:<44} {:>16}\n", g.name, g.value));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "{:<44} n={:<9} mean={:<12.1} p50={:<10} p99={:<10} max={}\n",
                h.name,
                h.count,
                h.mean(),
                h.p50(),
                h.p99(),
                h.max,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram_of(samples: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty("t".to_string());
        for &s in samples {
            h.count += 1;
            h.sum = h.sum.saturating_add(s);
            h.min = h.min.min(s);
            h.max = h.max.max(s);
            h.buckets[crate::bucket_index(s)] += 1;
        }
        if h.count == 0 {
            h.min = 0;
        }
        h
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        let h = histogram_of(&[]);
        assert_eq!((h.p50(), h.p99(), h.mean() as u64), (0, 0, 0));
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        // 99 samples near 100 plus one at ~1e6: p50 stays in the low
        // octave, p99 lands at the outlier's octave, both clamped to
        // observed extrema.
        let mut samples = vec![100u64; 99];
        samples.push(1_000_000);
        let h = histogram_of(&samples);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 1_000_000);
        assert!(h.p50() >= 100 && h.p50() < 200, "p50 = {}", h.p50());
        assert_eq!(h.p99(), 127, "99th of 100 samples is still the low octave");
        assert_eq!(h.quantile(1.0), 1_000_000, "clamped to observed max");
    }

    #[test]
    fn single_sample_quantiles_clamp_to_the_sample() {
        let h = histogram_of(&[1000]);
        assert_eq!(h.p50(), 1000);
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.mean() as u64, 1000);
    }

    #[test]
    fn snapshot_lookups_and_table() {
        let snapshot = Snapshot {
            counters: vec![CounterSnapshot {
                name: "a.count".to_string(),
                value: 3,
            }],
            gauges: vec![GaugeSnapshot {
                name: "a.gauge".to_string(),
                value: -2,
            }],
            histograms: vec![histogram_of(&[1, 2, 3])],
        };
        assert_eq!(snapshot.counter("a.count"), Some(3));
        assert_eq!(snapshot.gauge("a.gauge"), Some(-2));
        assert_eq!(snapshot.counter("missing"), None);
        assert!(snapshot.histogram("t").is_some());
        let table = snapshot.to_table();
        assert!(table.contains("a.count"));
        assert!(table.contains("n=3"));
        assert!(!snapshot.is_empty());
        assert!(Snapshot::default().is_empty());
    }

    #[test]
    fn snapshot_json_is_valid_and_contains_quantiles() {
        let snapshot = Snapshot {
            counters: vec![CounterSnapshot {
                name: "x.\"quoted\"".to_string(),
                value: 1,
            }],
            gauges: vec![],
            histograms: vec![histogram_of(&[0, 5, 1 << 40])],
        };
        let json = snapshot.to_json();
        crate::json::validate(&json).expect("snapshot JSON parses");
        assert!(json.contains("\"p99\""));
        assert!(json.contains("le_7"), "bucket of 5 is le_7: {json}");
        assert!(json.contains("x.\\\"quoted\\\""), "names are escaped");
    }
}
