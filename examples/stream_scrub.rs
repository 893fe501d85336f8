//! Online scrubbing service demo: the latency contract at nominal load,
//! graceful degradation under a 1.5× overload window, and a faulted run
//! with stalls, clock-tree bursts, and poisoned batches.
//!
//! Run with `cargo run --release --example stream_scrub`.

use sfq_ecc::stream::{Fault, FaultScript, ScrubService, StreamConfig};

fn banner(title: &str) {
    println!("\n=== {title} ===");
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

    banner("fault soak: stalls + bursts + poisoned batches");
    let soak = FaultScript::soak_mix(nominal.total_cycles, nominal.shards, 3);
    let report = ScrubService::run(&nominal, &soak);
    report.validate().expect("faults absorbed");
    print!("{}", report.to_json());
}
