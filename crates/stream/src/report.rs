//! Run reports for the scrub service: the deterministic section (identical
//! across machines and thread counts for one configuration) and the
//! wall-clock section (real throughput, machine-dependent).

use crate::degrade::{ServiceMode, Transition};
use sfq_telemetry::json::JsonWriter;

/// Latency percentiles over completed batches, in simulated cycles —
/// computed from an exact per-cycle histogram, so deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Median completion latency.
    pub p50: u64,
    /// 99th-percentile completion latency.
    pub p99: u64,
    /// Worst completion latency.
    pub max: u64,
}

/// Exact latency histogram: one bucket per cycle up to a bound, plus an
/// overflow bucket. Percentiles computed from it are deterministic (no
/// sampling, no floating-point accumulation).
#[derive(Debug, Clone)]
pub(crate) struct LatencyHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    max: u64,
    count: u64,
}

impl LatencyHistogram {
    pub(crate) fn new(bound: u64) -> Self {
        LatencyHistogram {
            buckets: vec![0; bound as usize + 1],
            overflow: 0,
            max: 0,
            count: 0,
        }
    }

    pub(crate) fn record(&mut self, latency: u64) {
        match self.buckets.get_mut(latency as usize) {
            Some(bucket) => *bucket += 1,
            None => self.overflow += 1,
        }
        self.max = self.max.max(latency);
        self.count += 1;
    }

    fn percentile(&self, numerator: u64, denominator: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the percentile sample, 1-based, rounding up.
        let rank = (self.count * numerator).div_ceil(denominator).max(1);
        let mut seen = 0u64;
        for (latency, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return latency as u64;
            }
        }
        self.max
    }

    pub(crate) fn summary(&self) -> LatencySummary {
        LatencySummary {
            p50: self.percentile(50, 100),
            p99: self.percentile(99, 100),
            max: self.max,
        }
    }
}

/// The complete outcome of one service run.
///
/// Everything except the `wall_ns` / `throughput_msgs_per_sec` pair is a
/// pure function of the configuration, seed, and fault script — the
/// determinism tests compare these fields bit-for-bit across 1/2/4 worker
/// threads.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Batches generated by the arrival process.
    pub arrivals: u64,
    /// Batches decoded to completion (any mode).
    pub completed_batches: u64,
    /// Batches shed under [`ServiceMode::ShedAndRescrub`] — every one
    /// flagged for rescrub, none silently dropped.
    pub shed_batches: u64,
    /// Poisoned batches rejected with a shape error by the codec's checked
    /// entry point (`try_decode_batch_with` / `try_detect_batch_with`).
    pub poisoned_rejected: u64,
    /// Completed batches whose latency exceeded the cycle budget.
    pub deadline_misses: u64,
    /// Peak backlog (batches pending anywhere in the pipeline).
    pub max_backlog: usize,
    /// Cycles from end-of-arrivals until the pipeline was empty *and* the
    /// ladder had recovered to full correction.
    pub time_to_drain: u64,
    /// Whether the pipeline fully drained within the drain limit.
    pub drained: bool,
    /// Every ladder transition, in cycle order.
    pub transitions: Vec<Transition>,
    /// Operating mode when the run ended.
    pub final_mode: ServiceMode,
    /// Completion-latency percentiles (simulated cycles).
    pub latency: LatencySummary,

    /// Messages decoded (completed batches × batch size).
    pub messages_decoded: u64,
    /// Messages delivered correct (includes corrected ones).
    pub delivered_ok: u64,
    /// Delivered messages that needed a correction (subset of
    /// `delivered_ok`).
    pub corrected: u64,
    /// Messages flagged uncorrectable by a full decode (rescrub queue).
    pub flagged_rescrub: u64,
    /// Messages flagged dirty by a detection-only screen (rescrub queue).
    pub detect_rescrub: u64,
    /// Messages delivered wrong without a flag (miscorrections and
    /// undetectable patterns — code-theoretic, not service loss).
    pub silent_wrong: u64,

    /// Wall-clock run time (nondeterministic).
    pub wall_ns: u64,
    /// Real end-to-end throughput in messages per second
    /// (nondeterministic).
    pub throughput_msgs_per_sec: f64,

    /// Batch size the run used (messages per batch).
    pub batch_messages: u64,
    /// Worker threads the run used.
    pub threads: usize,
}

impl StreamReport {
    /// Checks the invariants every run must satisfy: a full drain within
    /// the drain limit, all arrivals accounted for (completed, shed, or
    /// rejected — nothing vanishes), message outcomes summing to the
    /// decoded total, and a recovery to [`ServiceMode::FullCorrection`].
    /// An undrained run fails on the drain alone: the batches it left
    /// queued or in flight are in none of the counts.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !self.drained {
            return Err("pipeline did not drain within the drain limit".into());
        }
        let accounted = self.completed_batches + self.shed_batches + self.poisoned_rejected;
        if self.arrivals != accounted {
            return Err(format!(
                "batch conservation violated: {} arrivals vs {} accounted \
                 ({} completed + {} shed + {} poisoned)",
                self.arrivals,
                accounted,
                self.completed_batches,
                self.shed_batches,
                self.poisoned_rejected
            ));
        }
        if self.messages_decoded != self.completed_batches * self.batch_messages {
            return Err(format!(
                "message conservation violated: decoded {} != {} batches × {}",
                self.messages_decoded, self.completed_batches, self.batch_messages
            ));
        }
        let outcomes =
            self.delivered_ok + self.flagged_rescrub + self.detect_rescrub + self.silent_wrong;
        if outcomes != self.messages_decoded {
            return Err(format!(
                "outcome conservation violated: {} outcomes vs {} decoded",
                outcomes, self.messages_decoded
            ));
        }
        if self.final_mode != ServiceMode::FullCorrection {
            return Err(format!(
                "service did not recover to full correction (ended {})",
                self.final_mode.name()
            ));
        }
        Ok(())
    }

    /// The deterministic fields as a comparable tuple-of-record string —
    /// the determinism tests compare these across thread counts. Excludes
    /// wall-clock fields and the thread count itself.
    #[must_use]
    pub fn deterministic_digest(&self) -> String {
        let transitions: Vec<String> = self
            .transitions
            .iter()
            .map(|t| format!("{}:{}->{}", t.cycle, t.from.name(), t.to.name()))
            .collect();
        format!(
            "arrivals={} completed={} shed={} poisoned={} misses={} max_backlog={} \
             drain={} drained={} final={} latency(p50={},p99={},max={}) \
             msgs={} ok={} corrected={} flagged={} detect={} silent={} transitions=[{}]",
            self.arrivals,
            self.completed_batches,
            self.shed_batches,
            self.poisoned_rejected,
            self.deadline_misses,
            self.max_backlog,
            self.time_to_drain,
            self.drained,
            self.final_mode.name(),
            self.latency.p50,
            self.latency.p99,
            self.latency.max,
            self.messages_decoded,
            self.delivered_ok,
            self.corrected,
            self.flagged_rescrub,
            self.detect_rescrub,
            self.silent_wrong,
            transitions.join(","),
        )
    }

    /// The report as a standalone JSON document (`examples/stream_scrub.rs`
    /// prints one per scenario).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for (key, value) in [
            ("arrivals", self.arrivals),
            ("completed_batches", self.completed_batches),
            ("shed_batches", self.shed_batches),
            ("poisoned_rejected", self.poisoned_rejected),
            ("deadline_misses", self.deadline_misses),
            ("max_backlog", self.max_backlog as u64),
            ("time_to_drain", self.time_to_drain),
        ] {
            w.key(key);
            w.uint(value);
        }
        w.key("drained");
        w.bool(self.drained);
        w.key("final_mode");
        w.string(self.final_mode.name());
        w.key("latency_cycles");
        w.begin_object();
        for (key, value) in [
            ("p50", self.latency.p50),
            ("p99", self.latency.p99),
            ("max", self.latency.max),
        ] {
            w.key(key);
            w.uint(value);
        }
        w.end_object();
        for (key, value) in [
            ("messages_decoded", self.messages_decoded),
            ("delivered_ok", self.delivered_ok),
            ("corrected", self.corrected),
            ("flagged_rescrub", self.flagged_rescrub),
            ("detect_rescrub", self.detect_rescrub),
            ("silent_wrong", self.silent_wrong),
        ] {
            w.key(key);
            w.uint(value);
        }
        w.key("transitions");
        w.begin_array();
        for t in &self.transitions {
            w.begin_object();
            w.key("cycle");
            w.uint(t.cycle);
            w.key("from");
            w.string(t.from.name());
            w.key("to");
            w.string(t.to.name());
            w.end_object();
        }
        w.end_array();
        w.key("threads");
        w.uint(self.threads as u64);
        w.key("wall_ns");
        w.uint(self.wall_ns);
        w.key("throughput_msgs_per_sec");
        w.float(self.throughput_msgs_per_sec);
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_exact() {
        let mut h = LatencyHistogram::new(100);
        for latency in 1..=100u64 {
            h.record(latency);
        }
        let s = h.summary();
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        h.record(5000); // overflow bucket
        assert_eq!(h.summary().max, 5000);
    }

    #[test]
    fn validate_catches_lost_batches() {
        let report = StreamReport {
            arrivals: 10,
            completed_batches: 8,
            shed_batches: 1,
            poisoned_rejected: 0, // one batch vanished
            deadline_misses: 0,
            max_backlog: 4,
            time_to_drain: 10,
            drained: true,
            transitions: Vec::new(),
            final_mode: ServiceMode::FullCorrection,
            latency: LatencySummary::default(),
            messages_decoded: 8 * 64,
            delivered_ok: 8 * 64,
            corrected: 0,
            flagged_rescrub: 0,
            detect_rescrub: 0,
            silent_wrong: 0,
            wall_ns: 1,
            throughput_msgs_per_sec: 1.0,
            batch_messages: 64,
            threads: 1,
        };
        let err = report.validate().unwrap_err();
        assert!(err.contains("batch conservation"), "{err}");
        let ok = StreamReport {
            poisoned_rejected: 1,
            ..report
        };
        assert_eq!(ok.validate(), Ok(()));
    }
}
