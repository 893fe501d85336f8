//! # sfq-telemetry — workspace-wide metrics, span timers, and run reports
//!
//! Every layer of this workspace — the bit-sliced batch codec, the
//! Monte-Carlo link drivers, the synthesis pipeline — needs a uniform,
//! near-zero-overhead way to count, time, and export what it is doing, so
//! that tail latency, per-bucket decoder behavior, worker utilization, and
//! per-pass synthesis costs land in one machine-readable run report instead
//! of ad-hoc `println!`s. This crate is that layer. It is dependency-light
//! (std only) and instrumentation **never influences results**: metrics are
//! write-only from the instrumented code's point of view and no RNG stream
//! passes through this crate, so outputs are bit-identical with recording
//! on or off (the workspace's determinism suite asserts this).
//!
//! ## Model
//!
//! * A [`MetricsRegistry`] maps metric **names** to metrics. Requesting a
//!   [`Counter`] or [`Histogram`] handle creates a fresh **shard** under
//!   that name: the handle owns its own atomics, so two worker threads that
//!   each requested their own handle never contend on the hot path
//!   (lock-free relaxed atomics; the registry lock is only taken at
//!   registration and snapshot time). [`MetricsRegistry::snapshot`] merges
//!   all shards of a name into one figure. [`Gauge`]s are single-instance
//!   (last write wins) rather than sharded.
//! * [`Histogram`]s use fixed log-scale buckets: bucket 0 holds the value
//!   `0`, bucket `b ≥ 1` holds `2^(b-1) ..= 2^b - 1` (65 buckets cover the
//!   whole `u64` range). Recording is a handful of relaxed atomic ops;
//!   quantiles are estimated from bucket upper bounds at snapshot time.
//! * [`SpanTimer`] is an RAII scope that records its elapsed nanoseconds
//!   into a histogram on drop; [`Stopwatch`] is its manual twin.
//! * [`Snapshot`] is an owned, orderable view of the registry, renderable
//!   as a JSON document (the workspace's `RUN_REPORT.json`) or a
//!   human-readable table. The serde shim in this workspace is a no-op
//!   marker, so JSON is emitted by hand through [`json`], which also ships
//!   the validator and the validated artifact writer
//!   ([`json::write_artifact`]) that every emitted document goes through.
//! * [`Fingerprint`] identifies the configuration that produced an
//!   artifact (code, chips, messages, seed, threads, git SHA), so BENCH
//!   and RUN_REPORT files are attributable to a configuration.
//!
//! ## Runtime kill-switch
//!
//! Instrumentation is always compiled in. The process-wide kill-switch
//! ([`set_recording`]) turns every recording call into an early-out, which
//! lets a build measure its own overhead (the release-only
//! `tests/throughput_gates.rs` uses it).
//!
//! ## Naming conventions
//!
//! `layer.subject.metric`, lower-case, dot-separated: `batch.decode.limbs`,
//! `link.decode_ns`, `fig5.chip_ns`, `synth.pass.factor-cancellation.ns`.
//! Histogram names that record durations end in `_ns`. See
//! `docs/OBSERVABILITY.md` for the full catalog and the how-to-add guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod fingerprint;
mod registry;
mod snapshot;

pub use fingerprint::{detect_git_sha, Fingerprint};
pub use registry::{
    global, recording, set_recording, Counter, Gauge, Histogram, MetricsRegistry, SpanTimer,
    Stopwatch,
};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot, BUCKETS};

/// Index of the histogram bucket a value falls into: bucket 0 is the value
/// `0`, bucket `b ≥ 1` covers `2^(b-1) ..= 2^b - 1`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a histogram bucket (the value quantile
/// estimates report). Bucket 0 is `0`; bucket 64 saturates at `u64::MAX`.
#[must_use]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= 64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        // Power-of-two boundaries: 2^k - 1 and 2^k land in adjacent buckets.
        for k in 1..64 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k + 1, "2^{k}");
            assert_eq!(bucket_index(v - 1), k, "2^{k} - 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0u64, 1, 2, 3, 100, 1 << 20, u64::MAX] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b), "{v} in bucket {b}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1), "{v} above bucket {}", b - 1);
            }
        }
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }
}
