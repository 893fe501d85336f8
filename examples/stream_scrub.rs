//! Online scrubbing service demo: the latency contract at nominal load,
//! graceful degradation under a 1.5× overload window, and a faulted run
//! with stalls, clock-tree bursts, and poisoned batches. After each
//! scenario it prints how many decode jobs the worker threads ran and how
//! many the scheduler ran itself because a worker's queue was full.
//!
//! Run with `cargo run --release --example stream_scrub`.

use sfq_ecc::stream::{Fault, FaultScript, ScrubService, StreamConfig};

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints the `stream.jobs.*` counters of the run just finished, then
/// zeroes the registry for the next scenario.
fn print_job_split() {
    let registry = sfq_ecc::telemetry::global();
    let snapshot = registry.snapshot();
    let jobs = |name| snapshot.counter(name).unwrap_or(0);
    println!(
        "decode jobs run by worker threads: {}, by the scheduler (worker queue full): {}",
        jobs("stream.jobs.worker"),
        jobs("stream.jobs.scheduler")
    );
    registry.reset();
}

fn main() {
    let nominal = StreamConfig::nominal();
    println!(
        "scrub service: SEC-DED(m={}), {} messages/batch, {} shards, {} workers, \
         {} batches/1024 cycles against a capacity of {}, budget {} cycles",
        nominal.secded_m,
        nominal.batch_messages,
        nominal.shards,
        nominal.threads,
        nominal.arrivals_per_1024,
        nominal.capacity_per_1024(),
        nominal.cycle_budget
    );

    banner("nominal load, no faults");
    let report = ScrubService::run(&nominal, &FaultScript::quiet());
    report.validate().expect("contract held");
    print!("{}", report.to_json());
    print_job_split();

    banner("1.5x overload window (cycles 8192..40960)");
    let overload = FaultScript::quiet().with(
        8192,
        Fault::RateSpike {
            factor_milli: 1500,
            duration: 32768,
        },
    );
    let report = ScrubService::run(&nominal, &overload);
    report
        .validate()
        .expect("degraded gracefully and recovered");
    for t in &report.transitions {
        println!("cycle {:>6}: {} -> {}", t.cycle, t.from.name(), t.to.name());
    }
    print!("{}", report.to_json());
    print_job_split();

    banner("fault soak: stalls + bursts + poisoned batches");
    let soak = FaultScript::soak_mix(nominal.total_cycles, nominal.shards, 3);
    let report = ScrubService::run(&nominal, &soak);
    report.validate().expect("faults absorbed");
    print!("{}", report.to_json());
    print_job_split();
}
