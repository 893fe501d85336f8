//! The scrub service itself: a cycle-stepped deterministic scheduler
//! feeding real decode workers through bounded queues.
//!
//! ## Determinism architecture
//!
//! Everything the latency contract is judged by — admission, shard
//! assignment, completion cycles, deadline misses, backlog, ladder
//! transitions — is computed by a **discrete-event simulation** over a
//! virtual cycle clock with an integer cost model (`fixed + batches ×
//! marginal` cycles per decode job). The simulation depends only on the
//! configuration, seed, and fault script — never on thread timing — so a
//! scenario replays bit-identically on any machine.
//!
//! Real parallelism lives one layer below: every dispatched job is *also*
//! executed. It is pushed through a bounded SPSC queue to a decode worker
//! thread (shard `s` is served by worker `s % threads`); when that queue is
//! full, the scheduler thread runs the job itself instead of waiting for
//! room (caller-runs backpressure). Either way one job body regenerates the
//! batch from the seed, injects the scripted errors, runs the real
//! [`BatchCodec`] in the mode the scheduler chose, and classifies every
//! message; workers report the counts over the MPSC completion queue.
//! Outcome counts are pure functions of `(seed, batch id, mode, faults)`
//! and addition is commutative, so the totals are bit-identical across 1,
//! 2, or 4 workers and whichever thread ran a job — that is exactly what
//! the determinism tests assert. Only the wall-clock throughput numbers are
//! machine-dependent, and the report labels them as such.

use crate::clock::ArrivalProcess;
use crate::degrade::{Ladder, LadderConfig, ServiceMode};
use crate::fault::{Fault, FaultScript};
use crate::queue::{BoundedQueue, TryPushError};
use crate::report::{LatencyHistogram, StreamReport};
use cryolink::burst::{BurstSource, SparseFlipSource};
use ecc::{BatchDecode, BatchDecoded, BatchEncode, BatchScratch, ColumnCode};
use gf2::BitSlice64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_batch::BatchCodec;
use std::collections::VecDeque;

/// Full configuration of one service run. Every field participates in the
/// deterministic section of the report except `threads`, which is purely a
/// real-parallelism knob (the simulated capacity is fixed by `shards` and
/// the cost model).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Messages per syndrome batch.
    pub batch_messages: usize,
    /// SEC-DED family member: `2^m` data bits (6 → the wide (72,64) code).
    pub secded_m: usize,
    /// Simulated decode shards — these set the service's capacity.
    pub shards: usize,
    /// Worker threads executing the decode work, `1..=shards` (worker `w`
    /// serves shards `s` with `s % threads == w`). The scheduler thread also
    /// decodes every job it finds no queue room for, so up to `threads + 1`
    /// threads decode.
    pub threads: usize,
    /// The latency contract: a batch must complete within this many cycles
    /// of its arrival.
    pub cycle_budget: u64,
    /// Bounded intake depth (batches) — the admission-control edge.
    pub intake_capacity: usize,
    /// Per-shard job-queue depth (jobs).
    pub shard_queue_capacity: usize,
    /// Per-worker job-queue depth (jobs) — the execution backpressure edge:
    /// a job that finds its worker's queue full runs on the scheduler thread
    /// instead.
    pub exec_queue_capacity: usize,
    /// Nominal arrival rate: batches per 1024 cycles.
    pub arrivals_per_1024: u64,
    /// Fixed cycles per decode job (setup, queue hop).
    pub fixed_cost: u64,
    /// Marginal cycles per batch under full correction.
    pub full_cost: u64,
    /// Marginal cycles per batch under detection-only decode.
    pub detect_cost: u64,
    /// Batches coalesced per job at full service.
    pub coalesce: usize,
    /// Batches coalesced per job once admission is widened (rungs ≥ 1).
    pub widened_coalesce: usize,
    /// Degradation-ladder thresholds.
    pub ladder: LadderConfig,
    /// Per-position (lane × message) flip probability of the steady-state
    /// error source.
    pub flip_prob: f64,
    /// Master seed: batch contents and injected errors derive from it.
    pub seed: u64,
    /// Cycles during which batches arrive.
    pub total_cycles: u64,
    /// Extra cycles allowed for the pipeline to drain and the ladder to
    /// recover after arrivals stop.
    pub drain_limit: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self::nominal()
    }
}

impl StreamConfig {
    /// The nominal operating point: SEC-DED(72,64), 4 shards at ~81 %
    /// simulated utilization, a 384-cycle latency budget, and a light error
    /// rate. At this rate the service must show zero deadline misses.
    #[must_use]
    pub fn nominal() -> Self {
        StreamConfig {
            batch_messages: 4096,
            secded_m: 6,
            shards: 4,
            threads: 2,
            cycle_budget: 384,
            intake_capacity: 32,
            shard_queue_capacity: 8,
            exec_queue_capacity: 4,
            arrivals_per_1024: 52,
            fixed_cost: 16,
            full_cost: 48,
            detect_cost: 12,
            coalesce: 1,
            widened_coalesce: 4,
            ladder: LadderConfig::default(),
            flip_prob: 1e-4,
            seed: 0xC0FF_EE11,
            total_cycles: 1 << 16,
            drain_limit: 1 << 16,
        }
    }

    /// The same operating point with the arrival rate scaled by
    /// `factor_milli / 1000` (1500 = the 1.5× overload of
    /// `docs/STREAMING.md`).
    #[must_use]
    pub fn with_rate_factor(mut self, factor_milli: u64) -> Self {
        self.arrivals_per_1024 = self.arrivals_per_1024 * factor_milli / 1000;
        self
    }

    /// Simulated decode capacity in batches per 1024 cycles at full
    /// correction with unit coalescing — the yardstick overload factors are
    /// measured against.
    #[must_use]
    pub fn capacity_per_1024(&self) -> u64 {
        self.shards as u64 * 1024 / (self.fixed_cost + self.full_cost)
    }
}

/// One scheduled batch, as both the simulation and the workers see it.
#[derive(Debug, Clone, Copy)]
struct TicketSpec {
    id: u64,
    arrival: u64,
    /// Clock-tree burst width to strike this batch with (0 = none).
    burst_width: u8,
    poisoned: bool,
}

/// A decode job in the simulated shard queue; `finish` is fixed at dispatch
/// (integer cost model), which is what makes completions deterministic.
#[derive(Debug)]
struct SimJob {
    finish: u64,
    tickets: Vec<TicketSpec>,
}

#[derive(Debug, Default)]
struct SimShard {
    jobs: VecDeque<SimJob>,
    /// Completion cycle of the last job scheduled on this shard.
    tail_finish: u64,
    /// Stall cycles to charge to the next dispatched job (worker-stall
    /// faults).
    stall_debt: u64,
    /// Batches dispatched to this shard and not yet completed.
    inflight: usize,
}

/// A job as executed by a worker thread or the scheduler.
struct ExecJob {
    mode: ServiceMode,
    tickets: Vec<TicketSpec>,
}

/// Message-outcome counts an executor reports per job. Pure sums, so
/// merging is order-independent — the root of cross-thread determinism.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ExecCounts {
    /// Executed jobs these counts cover.
    jobs: u64,
    batches: u64,
    messages: u64,
    delivered_ok: u64,
    corrected: u64,
    flagged: u64,
    detect_rescrub: u64,
    silent: u64,
    poisoned: u64,
}

impl ExecCounts {
    fn merge(&mut self, other: ExecCounts) {
        self.jobs += other.jobs;
        self.batches += other.batches;
        self.messages += other.messages;
        self.delivered_ok += other.delivered_ok;
        self.corrected += other.corrected;
        self.flagged += other.flagged;
        self.detect_rescrub += other.detect_rescrub;
        self.silent += other.silent;
        self.poisoned += other.poisoned;
    }
}

/// Telemetry handles of the `stream.*` family (see docs/OBSERVABILITY.md).
struct StreamMetrics {
    arrivals: sfq_telemetry::Counter,
    completed: sfq_telemetry::Counter,
    sheds: sfq_telemetry::Counter,
    poisoned: sfq_telemetry::Counter,
    deadline_misses: sfq_telemetry::Counter,
    transitions: sfq_telemetry::Counter,
    stalls: sfq_telemetry::Counter,
    spikes: sfq_telemetry::Counter,
    bursts: sfq_telemetry::Counter,
    backlog: sfq_telemetry::Gauge,
    mode: sfq_telemetry::Gauge,
    latency: sfq_telemetry::Histogram,
    drain: sfq_telemetry::Gauge,
    msgs_delivered: sfq_telemetry::Counter,
    msgs_corrected: sfq_telemetry::Counter,
    msgs_flagged: sfq_telemetry::Counter,
    msgs_detect_rescrub: sfq_telemetry::Counter,
    msgs_silent_wrong: sfq_telemetry::Counter,
    jobs_worker: sfq_telemetry::Counter,
    jobs_scheduler: sfq_telemetry::Counter,
}

impl StreamMetrics {
    fn new() -> Self {
        let registry = sfq_telemetry::global();
        StreamMetrics {
            arrivals: registry.counter("stream.arrivals"),
            completed: registry.counter("stream.completed_batches"),
            sheds: registry.counter("stream.shed_batches"),
            poisoned: registry.counter("stream.poisoned_rejected"),
            deadline_misses: registry.counter("stream.deadline_misses"),
            transitions: registry.counter("stream.mode_transitions"),
            stalls: registry.counter("stream.faults.stalls"),
            spikes: registry.counter("stream.faults.spikes"),
            bursts: registry.counter("stream.faults.bursts"),
            backlog: registry.gauge("stream.backlog"),
            mode: registry.gauge("stream.mode"),
            latency: registry.histogram("stream.latency_cycles"),
            drain: registry.gauge("stream.drain_cycles"),
            msgs_delivered: registry.counter("stream.msgs.delivered_ok"),
            msgs_corrected: registry.counter("stream.msgs.corrected"),
            msgs_flagged: registry.counter("stream.msgs.flagged_rescrub"),
            msgs_detect_rescrub: registry.counter("stream.msgs.detect_rescrub"),
            msgs_silent_wrong: registry.counter("stream.msgs.silent_wrong"),
            jobs_worker: registry.counter("stream.jobs.worker"),
            jobs_scheduler: registry.counter("stream.jobs.scheduler"),
        }
    }
}

/// The continuous scrubbing service.
pub struct ScrubService;

impl ScrubService {
    /// Runs one complete service scenario: arrivals for
    /// `config.total_cycles` cycles under the fault script, then drain.
    ///
    /// # Panics
    /// Panics on nonsensical configuration (zero shards, more threads than
    /// shards, zero batch size) and if a worker thread panics.
    #[must_use]
    pub fn run(config: &StreamConfig, faults: &FaultScript) -> StreamReport {
        assert!(config.shards > 0, "need at least one shard");
        assert!(
            config.threads >= 1 && config.threads <= config.shards,
            "threads must be in 1..=shards"
        );
        assert!(config.batch_messages > 0, "empty batches make no progress");
        assert!(config.coalesce >= 1 && config.widened_coalesce >= config.coalesce);

        let metrics = StreamMetrics::new();
        let job_queues: Vec<BoundedQueue<ExecJob>> = (0..config.threads)
            .map(|_| BoundedQueue::new(config.exec_queue_capacity))
            .collect();
        let completion_queue: BoundedQueue<ExecCounts> = BoundedQueue::new(config.threads * 4);

        let mut report: Option<StreamReport> = None;
        crossbeam::scope(|s| {
            for queue in &job_queues {
                let completion_queue = &completion_queue;
                s.spawn(move |_| worker_loop(config, queue, completion_queue));
            }
            report = Some(Self::schedule(
                config,
                faults,
                &metrics,
                &job_queues,
                &completion_queue,
            ));
        })
        .expect("scrub worker panicked");
        report.expect("scheduler always produces a report")
    }

    /// The scheduler: the deterministic simulation loop plus the real
    /// dispatch/collection edges.
    #[allow(clippy::too_many_lines)]
    fn schedule(
        config: &StreamConfig,
        faults: &FaultScript,
        metrics: &StreamMetrics,
        job_queues: &[BoundedQueue<ExecJob>],
        completion_queue: &BoundedQueue<ExecCounts>,
    ) -> StreamReport {
        let wall_start = std::time::Instant::now();

        let mut arrivals = ArrivalProcess::new(config.arrivals_per_1024);
        let mut ladder = Ladder::new(config.ladder);
        let mut shards: Vec<SimShard> = (0..config.shards).map(|_| SimShard::default()).collect();
        let mut pending: VecDeque<TicketSpec> = VecDeque::new();
        let mut intake: VecDeque<TicketSpec> = VecDeque::new();
        let mut latency = LatencyHistogram::new(config.cycle_budget * 4);
        let events = faults.events();
        let mut fault_idx = 0usize;
        let mut burst_queue: VecDeque<u8> = VecDeque::new();
        let mut pending_poison = 0usize;

        let mut ticket_id = 0u64;
        let mut stat_arrivals = 0u64;
        let mut stat_completed = 0u64;
        let mut stat_shed = 0u64;
        let mut stat_poisoned = 0u64;
        let mut stat_misses = 0u64;
        let mut max_backlog = 0usize;
        let mut transitions = Vec::new();

        let mut executor = Executor::new(config);
        let mut agg = ExecCounts::default();
        let mut dispatched_jobs = 0u64;

        let drain_deadline = config.total_cycles + config.drain_limit;
        let mut cycle = 0u64;
        let mut drained = false;
        let end_cycle;
        loop {
            // 1. Scripted faults due this cycle.
            while fault_idx < events.len() && events[fault_idx].0 <= cycle {
                match events[fault_idx].1 {
                    Fault::WorkerStall { shard, cycles } => {
                        shards[shard % config.shards].stall_debt += cycles;
                        metrics.stalls.inc();
                    }
                    Fault::RateSpike {
                        factor_milli,
                        duration,
                    } => {
                        arrivals.spike(factor_milli, cycle + duration);
                        metrics.spikes.inc();
                    }
                    Fault::ClockTreeBurst { width } => {
                        burst_queue.push_back(width.min(255) as u8);
                        metrics.bursts.inc();
                    }
                    Fault::PoisonedBatch => pending_poison += 1,
                }
                fault_idx += 1;
            }

            // 2. Arrivals (while the run is live).
            if cycle < config.total_cycles {
                for _ in 0..arrivals.tick(cycle) {
                    let burst_width = burst_queue.pop_front().unwrap_or(0);
                    let poisoned = pending_poison > 0;
                    pending_poison = pending_poison.saturating_sub(1);
                    pending.push_back(TicketSpec {
                        id: ticket_id,
                        arrival: cycle,
                        burst_width,
                        poisoned,
                    });
                    ticket_id += 1;
                    stat_arrivals += 1;
                    metrics.arrivals.inc();
                }
            }

            // 3. Admission: bounded intake; overflow defers (backpressure on
            // the scrub pointer) unless the ladder says shed.
            while intake.len() < config.intake_capacity {
                match pending.pop_front() {
                    Some(t) => intake.push_back(t),
                    None => break,
                }
            }
            if ladder.mode() == ServiceMode::ShedAndRescrub {
                // Every shed batch is flagged for rescrub — never silently
                // dropped.
                while pending.pop_front().is_some() {
                    stat_shed += 1;
                    metrics.sheds.inc();
                }
            }

            // 4. Dispatch: coalesce per the mode, place on the
            // least-loaded shard, fix the completion cycle, and ship the
            // job to the real worker.
            let mode = ladder.mode();
            let coalesce = if mode == ServiceMode::FullCorrection {
                config.coalesce
            } else {
                config.widened_coalesce
            };
            let marginal = match mode {
                ServiceMode::DetectionOnly | ServiceMode::ShedAndRescrub => config.detect_cost,
                _ => config.full_cost,
            };
            while !intake.is_empty() {
                let Some(shard_idx) = pick_shard(&shards, config.shard_queue_capacity, cycle)
                else {
                    break; // every shard queue full: backpressure holds
                };
                let take = coalesce.min(intake.len());
                let tickets: Vec<TicketSpec> = intake.drain(..take).collect();
                let cost = config.fixed_cost
                    + tickets
                        .iter()
                        .map(|t| if t.poisoned { 0 } else { marginal })
                        .sum::<u64>();
                let shard = &mut shards[shard_idx];
                let start = shard.tail_finish.max(cycle) + shard.stall_debt;
                shard.stall_debt = 0;
                let finish = start + cost;
                shard.tail_finish = finish;
                shard.inflight += tickets.len();
                shard.jobs.push_back(SimJob {
                    finish,
                    tickets: tickets.clone(),
                });
                let ran_here = push_with_drain(
                    &job_queues[shard_idx % config.threads],
                    ExecJob { mode, tickets },
                    completion_queue,
                    &mut executor,
                    config,
                    &mut agg,
                );
                if ran_here {
                    metrics.jobs_scheduler.inc();
                } else {
                    metrics.jobs_worker.inc();
                }
                dispatched_jobs += 1;
            }

            // 5. Simulated completions due by this cycle.
            for shard in &mut shards {
                while shard.jobs.front().is_some_and(|j| j.finish <= cycle) {
                    let job = shard.jobs.pop_front().expect("front checked");
                    shard.inflight -= job.tickets.len();
                    for t in &job.tickets {
                        if t.poisoned {
                            stat_poisoned += 1;
                            metrics.poisoned.inc();
                            continue;
                        }
                        let lat = job.finish - t.arrival;
                        latency.record(lat);
                        metrics.latency.record(lat);
                        if lat > config.cycle_budget {
                            stat_misses += 1;
                            metrics.deadline_misses.inc();
                        }
                        stat_completed += 1;
                        metrics.completed.inc();
                    }
                }
            }

            // 6. Backlog and the ladder.
            let backlog =
                pending.len() + intake.len() + shards.iter().map(|s| s.inflight).sum::<usize>();
            max_backlog = max_backlog.max(backlog);
            if let Some(t) = ladder.update(backlog, cycle) {
                transitions.push(t);
                metrics.transitions.inc();
                metrics.mode.set(t.to.rung() as i64);
            }
            if cycle.is_multiple_of(256) {
                metrics.backlog.set(backlog as i64);
            }

            // 7. Opportunistic completion drain (keeps workers unblocked).
            while let Some(c) = completion_queue.try_pop() {
                agg.merge(c);
            }

            // 8. Termination: arrivals over, pipeline empty, ladder
            // recovered.
            cycle += 1;
            if cycle >= config.total_cycles {
                if backlog == 0 && ladder.mode() == ServiceMode::FullCorrection {
                    drained = true;
                    end_cycle = cycle;
                    break;
                }
                if cycle >= drain_deadline {
                    end_cycle = cycle;
                    break;
                }
            }
        }

        // Shut the pipeline down: close job queues, collect every
        // outstanding completion, then the scope joins the workers.
        for queue in job_queues {
            queue.close();
        }
        while agg.jobs < dispatched_jobs {
            let counts = completion_queue
                .pop_blocking()
                .expect("workers exit only after flushing completions");
            agg.merge(counts);
        }
        let wall_ns = u64::try_from(wall_start.elapsed().as_nanos()).unwrap_or(u64::MAX);

        // Cross-check the two bookkeeping layers against each other: the
        // simulation and the real workers must have seen the same batches.
        // A run cut at its drain limit leaves simulated jobs in flight that
        // the workers already ran; they count here, and the report says the
        // run did not drain.
        let (mut inflight_batches, mut inflight_poisoned) = (0u64, 0u64);
        for ticket in shards.iter().flat_map(|s| &s.jobs).flat_map(|j| &j.tickets) {
            if ticket.poisoned {
                inflight_poisoned += 1;
            } else {
                inflight_batches += 1;
            }
        }
        assert_eq!(
            agg.batches,
            stat_completed + inflight_batches,
            "sim and exec disagree on completed batches"
        );
        assert_eq!(
            agg.poisoned,
            stat_poisoned + inflight_poisoned,
            "sim and exec disagree on poisoned batches"
        );

        metrics.msgs_delivered.add(agg.delivered_ok);
        metrics.msgs_corrected.add(agg.corrected);
        metrics.msgs_flagged.add(agg.flagged);
        metrics.msgs_detect_rescrub.add(agg.detect_rescrub);
        metrics.msgs_silent_wrong.add(agg.silent);

        let time_to_drain = end_cycle.saturating_sub(config.total_cycles);
        metrics.drain.set(time_to_drain as i64);
        let throughput = if wall_ns == 0 {
            0.0
        } else {
            agg.messages as f64 * 1e9 / wall_ns as f64
        };

        StreamReport {
            arrivals: stat_arrivals,
            completed_batches: stat_completed,
            shed_batches: stat_shed,
            poisoned_rejected: stat_poisoned,
            deadline_misses: stat_misses,
            max_backlog,
            time_to_drain,
            drained,
            transitions,
            final_mode: ladder.mode(),
            latency: latency.summary(),
            messages_decoded: agg.messages,
            delivered_ok: agg.delivered_ok,
            corrected: agg.corrected,
            flagged_rescrub: agg.flagged,
            detect_rescrub: agg.detect_rescrub,
            silent_wrong: agg.silent,
            wall_ns,
            throughput_msgs_per_sec: throughput,
            batch_messages: config.batch_messages as u64,
            threads: config.threads,
        }
    }
}

/// Least-loaded shard with queue room (ties to the lowest index —
/// deterministic).
fn pick_shard(shards: &[SimShard], queue_capacity: usize, cycle: u64) -> Option<usize> {
    shards
        .iter()
        .enumerate()
        .filter(|(_, s)| s.jobs.len() < queue_capacity)
        .min_by_key(|(i, s)| (s.tail_finish.max(cycle) + s.stall_debt, *i))
        .map(|(i, _)| i)
}

/// Ships `job` to its worker without blocking. When the worker's queue is
/// full, the scheduler drains the completion queue (so a worker blocked on
/// it moves again) and runs the job on its own executor instead of waiting
/// for room (caller-runs backpressure), merging the counts into `agg`.
/// Returns whether the scheduler ran the job.
fn push_with_drain(
    queue: &BoundedQueue<ExecJob>,
    job: ExecJob,
    completion_queue: &BoundedQueue<ExecCounts>,
    executor: &mut Executor,
    config: &StreamConfig,
    agg: &mut ExecCounts,
) -> bool {
    match queue.try_push(job) {
        Ok(()) => false,
        Err(TryPushError::Full(job)) => {
            while let Some(c) = completion_queue.try_pop() {
                agg.merge(c);
            }
            agg.merge(executor.run(config, &job));
            true
        }
        Err(TryPushError::Closed(_)) => {
            unreachable!("job queues close only after the scheduler loop")
        }
    }
}

/// SplitMix64-style per-ticket seed derivation: batch `id`'s content is a
/// pure function of `(master seed, id)`, independent of which thread
/// regenerates it.
fn ticket_seed(master: u64, id: u64) -> u64 {
    let mut z = master ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills every lane with seeded random words, respecting the tail mask so
/// the slice's invariants hold.
fn fill_random(frame: &mut BitSlice64, rng: &mut StdRng) {
    let words = frame.words();
    let tail = frame.tail_mask();
    for lane in 0..frame.bits() {
        let data = frame.lane_mut(lane);
        for (w, slot) in data.iter_mut().enumerate() {
            let mask = if w + 1 == words { tail } else { u64::MAX };
            *slot = rng.random::<u64>() & mask;
        }
    }
}

/// The one job body, shared by the worker threads and the scheduler: a
/// codec plus every buffer a job touches, allocated once per thread.
struct Executor {
    codec: BatchCodec,
    flips: SparseFlipSource,
    scratch: BatchScratch,
    decoded: BatchDecoded,
    dirty: Vec<u64>,
    messages: BitSlice64,
    clean: BitSlice64,
    received: BitSlice64,
    /// What a poisoned ticket delivers: a frame one lane short.
    malformed: BitSlice64,
}

impl Executor {
    fn new(config: &StreamConfig) -> Self {
        let codec = BatchCodec::new(&ColumnCode::sec_ded(config.secded_m));
        Executor {
            flips: SparseFlipSource::new(config.flip_prob),
            scratch: BatchScratch::new(),
            decoded: BatchDecoded::empty(),
            dirty: Vec::new(),
            messages: BitSlice64::zeros(codec.k(), config.batch_messages),
            clean: BitSlice64::default(),
            received: BitSlice64::default(),
            malformed: BitSlice64::zeros(codec.n() - 1, config.batch_messages),
            codec,
        }
    }

    /// Regenerates each ticket's batch from the seed, injects the scripted
    /// errors, decodes in the scheduler-chosen mode, and classifies every
    /// message.
    fn run(&mut self, config: &StreamConfig, job: &ExecJob) -> ExecCounts {
        let Executor {
            codec,
            flips,
            scratch,
            decoded,
            dirty,
            messages,
            clean,
            received,
            malformed,
        } = self;
        let (k, n) = (codec.k(), codec.n());
        let mut counts = ExecCounts {
            jobs: 1,
            ..ExecCounts::default()
        };
        for ticket in &job.tickets {
            if ticket.poisoned {
                // The link delivered a malformed frame: wrong lane count.
                // The job mode's checked entry point rejects it with a
                // shape error before any stage runs.
                match job.mode {
                    ServiceMode::FullCorrection | ServiceMode::WidenedAdmission => codec
                        .try_decode_batch_with(malformed, scratch, decoded)
                        .expect_err("a wrong-lane-count frame is rejected"),
                    ServiceMode::DetectionOnly | ServiceMode::ShedAndRescrub => codec
                        .try_detect_batch_with(malformed, scratch, dirty)
                        .expect_err("a wrong-lane-count frame is rejected"),
                };
                counts.poisoned += 1;
                continue;
            }
            let mut rng = StdRng::seed_from_u64(ticket_seed(config.seed, ticket.id));
            fill_random(messages, &mut rng);
            codec.encode_batch_into(messages, clean);
            received.copy_from(clean);
            flips.inject(&mut rng, received);
            if ticket.burst_width > 0 {
                BurstSource::new(usize::from(ticket.burst_width), 1.0).strike(&mut rng, received);
            }
            match job.mode {
                ServiceMode::FullCorrection | ServiceMode::WidenedAdmission => {
                    codec.decode_batch_with(received, scratch, decoded);
                    classify_full(decoded, messages, k, &mut counts);
                }
                ServiceMode::DetectionOnly | ServiceMode::ShedAndRescrub => {
                    codec.detect_batch_with(received, scratch, dirty);
                    classify_detect(received, clean, dirty, n, &mut counts);
                }
            }
            counts.batches += 1;
            counts.messages += config.batch_messages as u64;
        }
        counts
    }
}

/// One worker thread: runs each job its queue delivers and reports the
/// counts over the completion queue.
fn worker_loop(
    config: &StreamConfig,
    jobs: &BoundedQueue<ExecJob>,
    completion_queue: &BoundedQueue<ExecCounts>,
) {
    let mut executor = Executor::new(config);
    while let Some(job) = jobs.pop_blocking() {
        completion_queue
            .push_blocking(executor.run(config, &job))
            .expect("completion queue outlives the workers");
    }
}

/// Classifies a full decode against ground truth: delivered-correct
/// (including corrections), flagged, or silently wrong.
fn classify_full(decoded: &BatchDecoded, messages: &BitSlice64, k: usize, counts: &mut ExecCounts) {
    let words = messages.words();
    let tail = messages.tail_mask();
    for w in 0..words {
        let valid = if w + 1 == words { tail } else { u64::MAX };
        let flagged = decoded.flagged[w] & valid;
        let mut diff = 0u64;
        for lane in 0..k {
            diff |= decoded.messages.lane(lane)[w] ^ messages.lane(lane)[w];
        }
        let silent = diff & !flagged & valid;
        let ok = valid & !flagged & !silent;
        counts.delivered_ok += u64::from(ok.count_ones());
        counts.corrected += u64::from((decoded.corrected[w] & ok).count_ones());
        counts.flagged += u64::from(flagged.count_ones());
        counts.silent += u64::from(silent.count_ones());
    }
}

/// Classifies a detection-only screen against ground truth: clean words
/// delivered, dirty words flagged for rescrub, undetectable corruption
/// counted silent.
fn classify_detect(
    received: &BitSlice64,
    clean: &BitSlice64,
    dirty: &[u64],
    n: usize,
    counts: &mut ExecCounts,
) {
    let words = received.words();
    let tail = received.tail_mask();
    for (w, &dirty_word) in dirty.iter().enumerate().take(words) {
        let valid = if w + 1 == words { tail } else { u64::MAX };
        let dirty_w = dirty_word & valid;
        let mut diff = 0u64;
        for lane in 0..n {
            diff |= received.lane(lane)[w] ^ clean.lane(lane)[w];
        }
        let silent = diff & !dirty_w & valid;
        counts.detect_rescrub += u64::from(dirty_w.count_ones());
        counts.silent += u64::from(silent.count_ones());
        counts.delivered_ok += u64::from((valid & !dirty_w & !diff).count_ones());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> StreamConfig {
        StreamConfig {
            batch_messages: 256,
            total_cycles: 1 << 13,
            drain_limit: 1 << 14,
            threads: 1,
            ..StreamConfig::nominal()
        }
    }

    #[test]
    fn nominal_run_meets_the_contract_and_conserves_batches() {
        let config = small_config();
        let report = ScrubService::run(&config, &FaultScript::quiet());
        report.validate().expect("invariants hold");
        assert_eq!(report.deadline_misses, 0, "nominal rate must not miss");
        assert!(report.arrivals > 300, "the run actually ran");
        assert_eq!(report.shed_batches, 0);
        assert_eq!(report.transitions, vec![]);
    }

    #[test]
    fn ticket_seed_spreads_ids() {
        let a = ticket_seed(1, 0);
        let b = ticket_seed(1, 1);
        let c = ticket_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ticket_seed(1, 0), "pure function");
    }

    #[test]
    fn poisoned_batches_are_rejected_not_decoded() {
        let config = small_config();
        let script = FaultScript::quiet().repeat(100, 400, 8, crate::fault::Fault::PoisonedBatch);
        let report = ScrubService::run(&config, &script);
        report.validate().expect("invariants hold");
        assert_eq!(report.poisoned_rejected, 8);
    }

    #[test]
    fn worker_stalls_delay_but_never_lose_batches() {
        let config = small_config();
        let script = FaultScript::quiet().repeat(
            500,
            1000,
            6,
            crate::fault::Fault::WorkerStall {
                shard: 1,
                cycles: 200,
            },
        );
        let report = ScrubService::run(&config, &script);
        report.validate().expect("invariants hold");
        let quiet = ScrubService::run(&config, &FaultScript::quiet());
        assert_eq!(report.arrivals, quiet.arrivals);
        assert!(
            report.latency.max >= quiet.latency.max,
            "stalls must not make latency better"
        );
    }

    /// A job in `mode` whose tickets are a clean batch, a poisoned batch and
    /// a batch struck by a width-2 clock-tree burst.
    fn mixed_job(mode: ServiceMode, first_id: u64) -> ExecJob {
        let ticket = |offset: u64, burst_width: u8, poisoned: bool| TicketSpec {
            id: first_id + offset,
            arrival: 0,
            burst_width,
            poisoned,
        };
        ExecJob {
            mode,
            tickets: vec![ticket(0, 0, false), ticket(1, 0, true), ticket(2, 2, false)],
        }
    }

    #[test]
    fn a_full_job_queue_makes_the_scheduler_run_the_job() {
        let config = small_config();
        let mut executor = Executor::new(&config);
        for mode in [ServiceMode::FullCorrection, ServiceMode::DetectionOnly] {
            // No worker consumes this queue: the pushes fill it to capacity.
            let queue = BoundedQueue::new(config.exec_queue_capacity);
            let completions = BoundedQueue::new(2);
            let mut agg = ExecCounts::default();
            for i in 0..config.exec_queue_capacity as u64 {
                let job = mixed_job(mode, 100 * i);
                assert!(!push_with_drain(
                    &queue,
                    job,
                    &completions,
                    &mut executor,
                    &config,
                    &mut agg
                ));
            }
            assert_eq!(agg, ExecCounts::default(), "queued jobs run nowhere yet");

            // One finished worker job waits in the completion queue.
            let pending = ExecCounts {
                jobs: 1,
                batches: 5,
                ..ExecCounts::default()
            };
            completions.try_push(pending).expect("room");
            let overflow = mixed_job(mode, 7_000);
            assert!(push_with_drain(
                &queue,
                overflow,
                &completions,
                &mut executor,
                &config,
                &mut agg
            ));

            let fresh = Executor::new(&config).run(&config, &mixed_job(mode, 7_000));
            assert_eq!((fresh.jobs, fresh.batches, fresh.poisoned), (1, 2, 1));
            match mode {
                ServiceMode::FullCorrection => assert!(fresh.flagged > 0, "{fresh:?}"),
                _ => assert!(fresh.detect_rescrub > 0, "{fresh:?}"),
            }
            let mut expected = pending;
            expected.merge(fresh);
            assert_eq!(agg, expected, "drained the completion, then ran the job");
            assert_eq!(agg.jobs, 2, "the job the scheduler ran counts as received");
            assert!(completions.is_empty());
            let queued: Vec<u64> = std::iter::from_fn(|| queue.try_pop())
                .map(|job| job.tickets[0].id)
                .collect();
            let filled: Vec<u64> = (0..config.exec_queue_capacity as u64)
                .map(|i| 100 * i)
                .collect();
            assert_eq!(queued, filled, "the full queue is untouched");
        }
    }

    #[test]
    fn capacity_yardstick_matches_the_cost_model() {
        let config = StreamConfig::nominal();
        assert_eq!(config.capacity_per_1024(), 64);
        assert!(config.arrivals_per_1024 < config.capacity_per_1024());
    }
}
