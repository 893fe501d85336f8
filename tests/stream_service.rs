//! End-to-end tests of the online scrubbing service: the latency contract
//! at nominal load, graceful degradation under overload, fault robustness,
//! and bit-identical determinism across worker-thread counts.

use sfq_ecc::stream::{Fault, FaultScript, ScrubService, ServiceMode, StreamConfig};

/// The nominal operating point shrunk to debug-build-friendly size (tier-1
/// `cargo test` runs unoptimized). The *rates* — arrivals vs. capacity,
/// cost model, ladder thresholds, cycle budget — are untouched; only the
/// batch size and run length shrink.
fn test_config() -> StreamConfig {
    StreamConfig {
        batch_messages: 512,
        total_cycles: 1 << 14,
        drain_limit: 1 << 15,
        ..StreamConfig::nominal()
    }
}

#[test]
fn nominal_load_meets_the_latency_contract() {
    let config = test_config();
    let report = ScrubService::run(&config, &FaultScript::quiet());
    report.validate().expect("run invariants hold");
    assert_eq!(report.deadline_misses, 0, "nominal load must never miss");
    assert_eq!(report.shed_batches, 0, "nothing shed at nominal load");
    assert_eq!(report.transitions, vec![], "ladder never leaves rung 0");
    assert!(report.latency.p99 <= config.cycle_budget);
    assert_eq!(
        report.arrivals,
        config.arrivals_per_1024 * config.total_cycles / 1024,
        "rational arrival process delivers the exact rate"
    );
    assert!(
        report.silent_wrong <= report.messages_decoded / 100_000,
        "sparse single flips are essentially all corrected: {} of {}",
        report.silent_wrong,
        report.messages_decoded
    );
}

/// The stream report is one of the emitted artifacts (`BENCH_stream.json`
/// embeds it), so it must pass the same JSON validator as the others.
#[test]
fn report_json_passes_the_artifact_validator() {
    let report = ScrubService::run(&test_config(), &FaultScript::quiet());
    let json = report.to_json();
    if let Err(e) = sfq_ecc::telemetry::json::validate(&json) {
        panic!("stream report JSON is malformed: {e}\n{json}");
    }
}

/// The acceptance throughput bar only means anything on an optimized
/// build; tier-1 debug runs check the contract, the release leg checks the
/// rate.
#[cfg(not(debug_assertions))]
#[test]
fn nominal_load_sustains_ten_million_messages_per_second() {
    let report = ScrubService::run(&StreamConfig::nominal(), &FaultScript::quiet());
    report.validate().expect("run invariants hold");
    assert_eq!(report.deadline_misses, 0);
    assert!(
        report.throughput_msgs_per_sec >= 1e7,
        "sustained {} msg/s, need 1e7",
        report.throughput_msgs_per_sec
    );
}

#[test]
fn severe_overload_walks_the_ladder_and_recovers() {
    let config = test_config();
    // A 4x arrival spike: far beyond even detection-only-widened capacity
    // margins over a dwell, so the ladder must climb all the way to
    // shedding, then walk back down once the spike passes.
    let script = FaultScript::quiet().with(
        2048,
        Fault::RateSpike {
            factor_milli: 4000,
            duration: 4096,
        },
    );
    let report = ScrubService::run(&config, &script);
    report
        .validate()
        .expect("degraded gracefully, recovered, lost nothing");

    let modes: Vec<ServiceMode> = report.transitions.iter().map(|t| t.to).collect();
    assert!(
        modes.contains(&ServiceMode::ShedAndRescrub),
        "4x overload must reach the shedding rung: {modes:?}"
    );
    assert!(report.shed_batches > 0, "the shedding rung actually shed");
    // Conservation (validate above) already proved every shed batch is
    // accounted for — shed work is flagged for rescrub, never silently lost.

    // The ladder steps one rung at a time, in both directions.
    let mut rung = 0usize;
    for t in &report.transitions {
        assert_eq!(
            t.from.rung(),
            rung,
            "transitions chain: {:?}",
            report.transitions
        );
        assert_eq!(
            t.to.rung().abs_diff(t.from.rung()),
            1,
            "one rung per transition"
        );
        rung = t.to.rung();
    }
    assert_eq!(rung, 0, "recovered to full correction");
    assert_eq!(report.final_mode, ServiceMode::FullCorrection);

    // Backlog stayed bounded. The spike delivers ~830 batches; unmitigated,
    // ~600 of them would pile up. The dwell-limited climb to the shedding
    // rung tops out around 160 — well under half the unmitigated pile.
    assert!(
        report.max_backlog < 256,
        "backlog {} must stay bounded",
        report.max_backlog
    );
}

#[test]
fn moderate_overload_degrades_without_shedding() {
    let config = test_config();
    // The ISSUE's 1.5x overload: the widened/detection rungs absorb it; the
    // shedding rung must never engage and nothing may be lost.
    let script = FaultScript::quiet().with(
        2048,
        Fault::RateSpike {
            factor_milli: 1500,
            duration: 8192,
        },
    );
    let report = ScrubService::run(&config, &script);
    report.validate().expect("absorbed 1.5x without loss");
    assert!(
        !report.transitions.is_empty(),
        "1.5x must push the ladder off rung 0"
    );
    assert_eq!(report.shed_batches, 0, "1.5x is absorbed without shedding");
    assert!(
        report.max_backlog < config.ladder.shed_engage,
        "backlog {} stays below the shed threshold",
        report.max_backlog
    );
    assert_eq!(report.final_mode, ServiceMode::FullCorrection);
}

#[test]
fn outcome_counts_are_identical_across_worker_counts() {
    // The full fault mix, decoded by 1, 2, and 4 real worker threads: the
    // deterministic report section must match bit for bit. (This is the
    // test that proves latency accounting and decode outcomes are pure
    // functions of the scenario, not of thread scheduling.)
    let base = test_config();
    let script = FaultScript::soak_mix(base.total_cycles, base.shards, 2).with(
        2048,
        Fault::RateSpike {
            factor_milli: 2000,
            duration: 2048,
        },
    );
    let digests: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let config = StreamConfig {
                threads,
                ..base.clone()
            };
            let report = ScrubService::run(&config, &script);
            report.validate().expect("invariants hold at every width");
            assert_eq!(report.threads, threads);
            report.deterministic_digest()
        })
        .collect();
    assert_eq!(digests[0], digests[1], "1 vs 2 workers");
    assert_eq!(digests[0], digests[2], "1 vs 4 workers");
}

#[test]
fn fault_soak_holds_the_contract_with_no_silent_loss() {
    let config = test_config();
    // Width-2 clock-tree bursts produce double errors per struck message —
    // exactly what SEC-DED guarantees to *detect*. The only way a message
    // goes silently wrong is a burst coinciding with a sparse flip in the
    // same word (a triple error), which is rare: silent corruption must
    // stay under one message in ten thousand.
    let script = FaultScript::soak_mix(config.total_cycles, config.shards, 2);
    let report = ScrubService::run(&config, &script);
    report.validate().expect("soak invariants hold");
    assert_eq!(report.deadline_misses, 0, "soak stays inside the contract");
    assert!(
        report.silent_wrong < report.messages_decoded / 10_000,
        "beyond-SEC-DED coincidences must be rare: {} of {}",
        report.silent_wrong,
        report.messages_decoded
    );
    assert!(
        report.poisoned_rejected > 0,
        "poisoned batches were rejected"
    );
    assert!(report.flagged_rescrub > 0, "burst casualties were flagged");
    assert!(report.corrected > 0, "single flips were corrected");
}
