//! The metrics registry, its handles, span timers and the recording
//! kill-switch.

use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot, BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Process-wide runtime kill-switch. Instrumentation records only while
/// this is `true` (the default). The release-only overhead test flips it to
/// measure the build's own overhead.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation currently records (see [`set_recording`]).
#[must_use]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turns runtime recording on or off process-wide. Handles stay valid
/// either way; recording calls become cheap early-outs while off.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// A monotonically increasing event count. Each handle is its own shard:
/// cloning shares the shard, requesting the same name from a registry
/// again creates a fresh one.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds `v` to the counter (relaxed; no-op while recording is off).
    pub fn add(&self, v: u64) {
        if v != 0 && recording() {
            self.0.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// This shard's current value (not merged across shards).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (last write wins). Unlike counters and
/// histograms, all handles to one name share a single instance.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        if recording() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` to the gauge.
    pub fn add(&self, delta: i64) {
        if delta != 0 && recording() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The gauge's current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A fixed-bucket log-scale histogram of `u64` samples (see
/// [`crate::bucket_index`] for the bucket layout). Each handle is its own
/// shard, like [`Counter`].
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    /// Records one sample (a handful of relaxed atomic ops; no-op while
    /// recording is off).
    pub fn record(&self, value: u64) {
        if !recording() {
            return;
        }
        let core = &*self.0;
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
        core.buckets[crate::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded into this shard.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// RAII span: measures the wall time between construction and drop and
/// records it, in nanoseconds, into the given histogram.
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Histogram,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Starts a span that reports into `histogram` on drop. While recording
    /// is off the clock is never read.
    #[must_use]
    pub fn start(histogram: Histogram) -> Self {
        SpanTimer {
            histogram,
            start: recording().then(Instant::now),
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.histogram.record(ns);
        }
    }
}

/// Manual twin of [`SpanTimer`]: read the elapsed time yourself and decide
/// what to record. Reports 0 while recording is off, without reading the
/// clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts the stopwatch (never reads the clock while recording is off).
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            start: recording().then(Instant::now),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`], or 0 when not recording.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |s| {
            u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }
}

/// One registered name: all shards handed out for it.
#[derive(Debug)]
enum Slot {
    Counter(Vec<Counter>),
    Gauge(Gauge),
    Histogram(Vec<Histogram>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A thread-safe registry of named counters, gauges, and histograms.
///
/// Handle creation and snapshots take a mutex; recording through a handle
/// is lock-free. Instrumented crates use the process-wide [`global`]
/// registry; tests that want isolation construct their own.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fresh counter shard under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Vec::new()));
        match slot {
            Slot::Counter(shards) => {
                let shard = Counter::new();
                shards.push(shard.clone());
                shard
            }
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use
    /// (gauges are shared, not sharded: last write wins).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Gauge::new()));
        match slot {
            Slot::Gauge(gauge) => gauge.clone(),
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Registers a fresh histogram shard under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Vec::new()));
        match slot {
            Slot::Histogram(shards) => {
                let shard = Histogram::new();
                shards.push(shard.clone());
                shard
            }
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Merges every shard of every metric into an owned [`Snapshot`]
    /// (sorted by name; counters and histogram buckets sum across shards,
    /// min/max take the extrema).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().expect("metrics registry poisoned");
        let mut snapshot = Snapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(shards) => snapshot.counters.push(CounterSnapshot {
                    name: name.clone(),
                    value: shards.iter().map(Counter::value).sum(),
                }),
                Slot::Gauge(gauge) => snapshot.gauges.push(GaugeSnapshot {
                    name: name.clone(),
                    value: gauge.value(),
                }),
                Slot::Histogram(shards) => {
                    let mut merged = HistogramSnapshot::empty(name.clone());
                    for shard in shards {
                        let core = &*shard.0;
                        merged.count += core.count.load(Ordering::Relaxed);
                        merged.sum = merged.sum.saturating_add(core.sum.load(Ordering::Relaxed));
                        merged.min = merged.min.min(core.min.load(Ordering::Relaxed));
                        merged.max = merged.max.max(core.max.load(Ordering::Relaxed));
                        for (b, bucket) in core.buckets.iter().enumerate() {
                            merged.buckets[b] += bucket.load(Ordering::Relaxed);
                        }
                    }
                    if merged.count == 0 {
                        merged.min = 0;
                    }
                    snapshot.histograms.push(merged);
                }
            }
        }
        snapshot
    }

    /// Zeroes every shard in place (handles stay valid). Meant for
    /// examples and tests that want a report scoped to one phase.
    pub fn reset(&self) {
        let slots = self.slots.lock().expect("metrics registry poisoned");
        for slot in slots.values() {
            match slot {
                Slot::Counter(shards) => {
                    for shard in shards {
                        shard.0.store(0, Ordering::Relaxed);
                    }
                }
                Slot::Gauge(gauge) => gauge.0.store(0, Ordering::Relaxed),
                Slot::Histogram(shards) => {
                    for shard in shards {
                        let core = &*shard.0;
                        core.count.store(0, Ordering::Relaxed);
                        core.sum.store(0, Ordering::Relaxed);
                        core.min.store(u64::MAX, Ordering::Relaxed);
                        core.max.store(0, Ordering::Relaxed);
                        for bucket in &core.buckets {
                            bucket.store(0, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }
}

/// The process-wide registry every instrumented crate reports into.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recording kill-switch is process-global, so every test that
    /// records (or toggles) takes this lock to avoid cross-test races.
    fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counter_shards_merge_on_snapshot() {
        let _guard = recording_lock();
        let registry = MetricsRegistry::new();
        let a = registry.counter("test.counter");
        let b = registry.counter("test.counter");
        a.add(3);
        b.inc();
        b.inc();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("test.counter"), Some(5));
    }

    #[test]
    fn concurrent_shard_writes_merge_exactly() {
        let _guard = recording_lock();
        let registry = MetricsRegistry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let counter = registry.counter("test.concurrent");
                let hist = registry.histogram("test.concurrent_ns");
                scope.spawn(move || {
                    for i in 0..per_thread {
                        counter.inc();
                        hist.record(i);
                    }
                });
            }
        });
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("test.concurrent"),
            Some(threads * per_thread)
        );
        let hist = snapshot.histogram("test.concurrent_ns").unwrap();
        assert_eq!(hist.count, threads * per_thread);
        assert_eq!(hist.min, 0);
        assert_eq!(hist.max, per_thread - 1);
        assert_eq!(
            hist.sum,
            threads * (per_thread * (per_thread - 1) / 2),
            "sums add across shards"
        );
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    }

    #[test]
    fn gauge_is_shared_not_sharded() {
        let _guard = recording_lock();
        let registry = MetricsRegistry::new();
        let a = registry.gauge("test.gauge");
        let b = registry.gauge("test.gauge");
        a.set(7);
        b.add(3);
        assert_eq!(a.value(), 10);
        assert_eq!(registry.snapshot().gauges[0].value, 10);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("test.kind");
        let _ = registry.gauge("test.kind");
    }

    #[test]
    fn histogram_tracks_extrema_and_buckets() {
        let _guard = recording_lock();
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("test.hist");
        for v in [0u64, 1, 1, 5, 1000, u64::MAX] {
            hist.record(v);
        }
        let snap = registry.snapshot();
        let h = snap.histogram("test.hist").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1); // the 0 sample
        assert_eq!(h.buckets[1], 2); // the two 1s
        assert_eq!(h.buckets[64], 1); // u64::MAX
    }

    #[test]
    fn recording_toggle_suppresses_updates() {
        let _guard = recording_lock();
        let registry = MetricsRegistry::new();
        let counter = registry.counter("test.toggle");
        let hist = registry.histogram("test.toggle_ns");
        counter.inc();
        set_recording(false);
        counter.add(100);
        hist.record(1);
        let sw = Stopwatch::start();
        assert_eq!(sw.elapsed_ns(), 0, "stopwatch is inert while off");
        set_recording(true);
        counter.inc();
        assert_eq!(counter.value(), 2);
        assert_eq!(hist.count(), 0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let _guard = recording_lock();
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("test.span_ns");
        {
            let _span = SpanTimer::start(hist.clone());
            std::hint::black_box(());
        }
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _guard = recording_lock();
        let registry = MetricsRegistry::new();
        let counter = registry.counter("test.reset");
        let hist = registry.histogram("test.reset_ns");
        counter.add(5);
        hist.record(9);
        registry.reset();
        assert_eq!(registry.snapshot().counter("test.reset"), Some(0));
        counter.inc();
        hist.record(2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("test.reset"), Some(1));
        let h = snap.histogram("test.reset_ns").unwrap();
        assert_eq!((h.count, h.min, h.max), (1, 2, 2));
    }
}
