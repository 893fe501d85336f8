//! `fig5_paper`: the paper's Fig. 5 experiment as a batch job.
//!
//! RM(1,3), Hamming(7,4), Hamming(8,4), and the uncoded link at 100
//! messages per chip under `PpvModel::paper_defaults()` and `SilentOnly`
//! counting, on one worker thread. The batched engine
//! (`run_design_batched`) is repeated over [`BATCHED_CHIPS`] chips per
//! design until the budget is spent; the pulse-level oracle (`run_design`)
//! runs once over the paper's 1000 chips, which are the batched run's
//! first 1000 (chip `i` draws from `seed + i` in both engines).
//!
//! The traced run replays both engines' per-chip loops through the same
//! public calls (`PpvModel::sample_chip`, `BatchLink::{rebind,
//! random_messages_into, transmit_batch_with}`, `CryoLink::{new,
//! transmit}`) with a timer around each, checks that the replicas
//! reproduce the engines' per-chip error counts exactly, and runs the
//! batched engine once more on `nproc` (at most two) threads for the
//! worker-utilization figure.

use crate::stats::{self, Better};
use crate::{ns_since, Outcome, RunConfig, Scale, Workload};
use cryolink::{
    paper_zero_error_probabilities, wilson_interval, BatchLink, BatchLinkContext, CryoLink,
    ErrorCounting, Fig5Curve, Fig5Experiment, LinkOutcome, LinkScratch,
};
use encoders::{EncoderDesign, EncoderKind};
use gf2::{BitSlice64, BitVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_cells::CellLibrary;
use std::time::Instant;

/// `Fig5Experiment::paper_setup()`'s seed.
pub const DEFAULT_SEED: u64 = 0x5f5_ecc;

/// Chips per design in one batched repetition: the oracle's chips, about
/// a tenth of a second for the four designs on one thread, so a run holds
/// enough repetitions for a steady good-end decile.
pub const BATCHED_CHIPS: usize = ORACLE_CHIPS;

/// Chips per design of the pulse-level oracle: the paper's count.
pub const ORACLE_CHIPS: usize = 1000;

/// Critical value of the Wilson intervals the ordering check uses (99.9 %
/// two-sided): designs whose intervals overlap count as tied.
const ORDERING_Z: f64 = 3.29;

/// The paper's Fig. 5 ordering, best first.
const PAPER_ORDER: [EncoderKind; 4] = [
    EncoderKind::Hamming84,
    EncoderKind::Hamming74,
    EncoderKind::Rm13,
    EncoderKind::None,
];

/// `(oracle chips, batched chips)` per design.
fn chip_counts(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (ORACLE_CHIPS, BATCHED_CHIPS),
        Scale::Tiny => (12, 96),
    }
}

/// The four designs of the paper, built.
pub struct Prepared {
    library: CellLibrary,
    designs: Vec<EncoderDesign>,
}

/// Set-up: synthesizes the paper's four designs.
pub fn setup(cfg: &RunConfig, out: &mut Outcome) -> Prepared {
    let designs = if cfg.trace {
        crate::build_timed(&EncoderKind::ALL, out)
    } else {
        EncoderDesign::build_all()
    };
    Prepared {
        library: CellLibrary::coldflux(),
        designs,
    }
}

/// The experiment at `chips` chips per design, on one thread.
fn experiment(cfg: &RunConfig, chips: usize) -> Fig5Experiment {
    Fig5Experiment {
        chips,
        seed: cfg.seed,
        threads: 1,
        counting: ErrorCounting::SilentOnly,
        ..Fig5Experiment::paper_setup()
    }
}

/// Zero-error probability over the first `chips` chips of a curve.
fn zero_error_over(curve: &Fig5Curve, chips: usize) -> f64 {
    let head = &curve.errors_per_chip[..chips.min(curve.chips())];
    stats::ratio(
        head.iter().filter(|&&e| e == 0).count() as f64,
        head.len() as f64,
    )
}

/// Pairs of designs the curves rank against the paper's order beyond
/// their Wilson intervals: a worse-ranked design whose interval lies
/// wholly above a better-ranked one's.
fn ordering_inversions(curves: &[Fig5Curve]) -> u64 {
    let interval = |kind: EncoderKind| {
        curves.iter().find(|c| c.kind == kind).map(|c| {
            let zero = c.errors_per_chip.iter().filter(|&&e| e == 0).count();
            wilson_interval(zero, c.chips(), ORDERING_Z)
        })
    };
    let mut inversions = 0;
    for (i, &better) in PAPER_ORDER.iter().enumerate() {
        for &worse in &PAPER_ORDER[i + 1..] {
            if let (Some(b), Some(w)) = (interval(better), interval(worse)) {
                inversions += u64::from(w.0 > b.1);
            }
        }
    }
    inversions
}

/// Runs every design through the batched engine once; returns the curves
/// and the rate in (design, chip) pairs per host second.
fn batched_rep(p: &Prepared, exp: &Fig5Experiment) -> (Vec<Fig5Curve>, f64) {
    let start = Instant::now();
    let curves: Vec<Fig5Curve> = p
        .designs
        .iter()
        .map(|d| exp.run_design_batched(d, &p.library))
        .collect();
    let rate = (p.designs.len() * exp.chips) as f64 / start.elapsed().as_secs_f64();
    (curves, rate)
}

/// Per-chip error counts that differ between two runs of the same designs.
fn mismatches(a: &[Fig5Curve], b: &[Fig5Curve]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            x.errors_per_chip
                .iter()
                .zip(&y.errors_per_chip)
                .filter(|(u, v)| u != v)
                .count() as u64
        })
        .sum()
}

/// Measures the workload (see the module docs).
pub fn measure(cfg: &RunConfig, p: &Prepared, out: &mut Outcome) {
    let (oracle_chips, batched_chips) = chip_counts(cfg.scale);
    let designs = p.designs.len();
    let start = Instant::now();

    let batched_exp = experiment(cfg, batched_chips);
    for d in &p.designs {
        out.note(
            format!("kernel.{}", crate::slug(d.kind())),
            cryolink::batch_codec_for(d).selected_kernel_name(batched_exp.messages_per_chip),
        );
    }

    // Pulse-level oracle, once, over the paper's chip count.
    let oracle_exp = experiment(cfg, oracle_chips);
    let oracle_start = Instant::now();
    let oracle: Vec<Fig5Curve> = p
        .designs
        .iter()
        .map(|d| oracle_exp.run_design(d, &p.library))
        .collect();
    let oracle_s = oracle_start.elapsed().as_secs_f64();

    // Batched engine, repeated until the budget is spent.
    let (batched, first_rate) = batched_rep(p, &batched_exp);
    let mut rates = vec![first_rate];
    let mut rerun_mismatches = 0;
    while rates.len() < 3 || start.elapsed().as_secs_f64() < cfg.untraced_budget() {
        let (curves, rate) = batched_rep(p, &batched_exp);
        rates.push(rate);
        rerun_mismatches += mismatches(&curves, &batched);
    }
    out.checks.record(
        "batched reruns reproduce the first run's per-chip counts",
        ((rates.len() - 1) * designs * batched_chips) as u64,
        rerun_mismatches,
    );

    let chips_per_s = out.host_repeated("fig5_chips_per_s", &rates, "1/s", Better::Higher);
    out.host("items_per_s", chips_per_s, "1/s");
    out.host(
        "fig5_oracle_chips_per_s",
        (designs * oracle_chips) as f64 / oracle_s,
        "1/s",
    );
    let engine_gap = oracle
        .iter()
        .zip(&batched)
        .map(|(o, b)| (zero_error_over(b, oracle_chips) - o.zero_error_probability()).abs())
        .fold(0.0, f64::max);
    out.sim("fig5_engine_gap", engine_gap, "P0");
    let paper = paper_zero_error_probabilities();
    let paper_error = oracle
        .iter()
        .filter(|c| c.kind != EncoderKind::None)
        .map(|c| {
            let reference = paper
                .iter()
                .find(|(k, _)| *k == c.kind)
                .map_or(f64::NAN, |&(_, p0)| p0);
            (c.zero_error_probability() - reference).abs()
        })
        .fold(0.0, f64::max);
    out.sim("fig5_paper_error", paper_error, "P0");
    for (engine, curves) in [("batched", &batched), ("oracle", &oracle)] {
        for c in curves.iter() {
            out.sim(
                format!("fig5.p0.{engine}.{}", crate::slug(c.kind)),
                c.zero_error_probability(),
                "P0",
            );
            out.digest(
                format!("fig5.{engine}.{}", crate::slug(c.kind)),
                stats::digest_counts(&c.errors_per_chip),
            );
        }
        out.checks.record(
            &format!("{engine} engine keeps the paper ordering (pairs inverted beyond 99.9 % Wilson intervals)"),
            6,
            ordering_inversions(curves),
        );
    }

    if cfg.trace {
        // The replicas run once each, so they compare against the
        // untraced median, not its good-end decile.
        trace(cfg, p, &batched, &oracle, stats::median(&rates), out);
    }
}

/// One uniform `k`-bit message, drawn exactly as the oracle draws it.
fn random_message(k: usize, rng: &mut StdRng) -> BitVec {
    if k < 64 {
        BitVec::from_u64(k, rng.random_range(0..(1u64 << k)))
    } else {
        BitVec::from_u64(64, rng.random::<u64>())
    }
}

/// The traced replicas and the per-layer metrics they yield.
fn trace(
    cfg: &RunConfig,
    p: &Prepared,
    batched: &[Fig5Curve],
    oracle: &[Fig5Curve],
    untraced_rate: f64,
    out: &mut Outcome,
) {
    let (oracle_chips, batched_chips) = chip_counts(cfg.scale);
    let exp = experiment(cfg, batched_chips);
    let silent_only = exp.counting == ErrorCounting::SilentOnly;

    // Batched replica: the body of `run_design_batched`'s chip loop.
    let before = sfq_telemetry::global().snapshot();
    let replica_start = Instant::now();
    let [mut sample, mut rebind, mut gen, mut transmit, mut faulty] = [0u64; 5];
    let mut mismatched = 0;
    for (design, curve) in p.designs.iter().zip(batched) {
        let ctx = BatchLinkContext::new(design);
        let mut link = BatchLink::new(design, &ctx);
        let mut messages = BitSlice64::default();
        let mut scratch = LinkScratch::new();
        for (chip_index, &expected) in curve.errors_per_chip.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(exp.seed.wrapping_add(chip_index as u64));
            let mark = Instant::now();
            let chip = exp.ppv.sample_chip(design.netlist(), &p.library, &mut rng);
            sample += ns_since(mark);
            faulty += chip.faults.faulty_count() as u64;
            let mark = Instant::now();
            link.rebind(&chip.faults, exp.channel);
            rebind += ns_since(mark);
            let mark = Instant::now();
            link.random_messages_into(exp.messages_per_chip, &mut rng, &mut messages);
            gen += ns_since(mark);
            let mark = Instant::now();
            let result = link.transmit_batch_with(&messages, &mut rng, &mut scratch);
            transmit += ns_since(mark);
            mismatched += u64::from(result.erroneous(silent_only) != expected);
        }
    }
    let replica_s = replica_start.elapsed().as_secs_f64();
    let after = sfq_telemetry::global().snapshot();
    let chips = (p.designs.len() * batched_chips) as u64;
    out.checks.record(
        "traced batched replica reproduces run_design_batched's per-chip counts",
        chips,
        mismatched,
    );
    let per_chip_us = |ns: u64| ns as f64 / chips as f64 / 1e3;
    out.host("sim.sample_chip_us", per_chip_us(sample), "us/chip");
    out.sim(
        "sim.faulty_cells_per_chip",
        faulty as f64 / chips as f64,
        "cells/chip",
    );
    out.host("link.rebind_us", per_chip_us(rebind), "us/chip");
    out.host("link.gen_us", per_chip_us(gen), "us/chip");
    out.host("link.transmit_us", per_chip_us(transmit), "us/chip");
    // Per-chip time three ways: the stage sum, the traced replica's wall
    // time, and the untraced engine's; their ratios are the stage
    // coverage and the trace overhead.
    out.host(
        "fig5.stage_sum_chip_us",
        per_chip_us(sample + rebind + gen + transmit),
        "us/chip",
    );
    out.host(
        "fig5.traced_chip_us",
        replica_s * 1e6 / chips as f64,
        "us/chip",
    );
    out.host("fig5.untraced_chip_us", 1e6 / untraced_rate, "us/chip");
    let decode_ns = crate::histogram_sum_delta(&before, &after, "link.decode_ns");
    out.host(
        "link.decode_share",
        stats::ratio(decode_ns as f64, transmit as f64),
        "ratio",
    );
    let fired = crate::counter_delta(&before, &after, "link.sources_fired");
    let draws = crate::counter_delta(&before, &after, "link.source_draws");
    out.sim(
        "link.sources_fired_ratio",
        stats::ratio(fired as f64, draws as f64),
        "ratio",
    );
    out.host(
        format!("bench.trace_overhead.{}", Workload::Fig5Paper.name()),
        replica_s * untraced_rate / chips as f64,
        "ratio",
    );

    // Oracle replica: the body of `run_design`'s chip loop.
    let oracle_exp = experiment(cfg, oracle_chips);
    let [mut new_link, mut msg, mut messages] = [0u64; 3];
    let mut mismatched = 0;
    for (design, curve) in p.designs.iter().zip(oracle) {
        for (chip_index, &expected) in curve.errors_per_chip.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(oracle_exp.seed.wrapping_add(chip_index as u64));
            let chip = oracle_exp
                .ppv
                .sample_chip(design.netlist(), &p.library, &mut rng);
            let mark = Instant::now();
            let link = CryoLink::new(design, chip.faults, oracle_exp.channel);
            new_link += ns_since(mark);
            let mut errors = 0;
            for _ in 0..oracle_exp.messages_per_chip {
                let message = random_message(design.k(), &mut rng);
                let mark = Instant::now();
                let outcome = link.transmit(&message, &mut rng).outcome;
                msg += ns_since(mark);
                messages += 1;
                errors += usize::from(outcome == LinkOutcome::SilentError);
            }
            mismatched += u64::from(errors != expected);
        }
    }
    let oracle_total = (p.designs.len() * oracle_chips) as u64;
    out.checks.record(
        "traced oracle replica reproduces run_design's per-chip counts",
        oracle_total,
        mismatched,
    );
    out.host(
        "link.oracle_new_us",
        new_link as f64 / oracle_total as f64 / 1e3,
        "us/chip",
    );
    out.host(
        "sim.oracle_msg_us",
        stats::ratio(msg as f64, messages as f64) / 1e3,
        "us/msg",
    );

    // The parallel layout: one more batched run on `cfg.threads` workers,
    // which must reproduce the single-thread counts.
    let parallel = Fig5Experiment {
        threads: cfg.threads,
        ..exp
    };
    let (curves, _) = batched_rep(p, &parallel);
    out.checks.record(
        "batched engine is thread-count invariant",
        chips,
        mismatches(&curves, batched),
    );
    let utilization = curves
        .iter()
        .flat_map(|c| c.parallelism.utilization())
        .fold(1.0, f64::min);
    out.host("fig5.min_worker_utilization", utilization, "ratio");
}
