//! Ablation studies around the paper's operating point.
//!
//! These sweeps are not in the paper; they probe the design choices its
//! discussion raises: how sensitive each encoder is to the spread magnitude
//! (the ±20–30 % design guideline), how much of the Hamming(8,4) advantage
//! comes from its error flag, and how the encoders compare when the channel —
//! not PPV — is the dominant error source.
//!
//! Run with `cargo run --release --example ablations` (250 chips × 100
//! messages per point, about a minute).

use sfq_ecc::cells::CellLibrary;
use sfq_ecc::encoders::EncoderKind;
use sfq_ecc::link::ablation::{
    channel_noise_sweep, counting_comparison, spread_sweep, OperatingPoint,
};
use sfq_ecc::link::Fig5Experiment;

/// Prints one operating point: its label padded to `width`, then the
/// zero-error probability of every paper design.
fn print_point(point: &OperatingPoint, width: usize) {
    print!("{:<width$}", point.label);
    for kind in EncoderKind::ALL {
        print!(
            "  {:?}={:>5.1}%",
            kind,
            point.probability(kind).unwrap_or(f64::NAN) * 100.0
        );
    }
    println!();
}

fn main() {
    let library = CellLibrary::coldflux();
    let base = Fig5Experiment {
        chips: 250,
        messages_per_chip: 100,
        threads: 4,
        ..Fig5Experiment::paper_setup()
    };

    println!("=== Ablation A: zero-error probability vs. parameter spread ===");
    for point in spread_sweep(&base, &[0.10, 0.20, 0.30], &library) {
        print_point(&point, 14);
    }
    println!();

    println!("=== Ablation B: does the error flag matter? (counting policy) ===");
    for point in counting_comparison(&base, &library) {
        print_point(&point, 32);
    }
    println!();

    println!("=== Ablation C: fault-free encoders on a noisy receiver channel ===");
    for point in channel_noise_sweep(&base, &[14.0, 11.0, 9.0], &library) {
        print_point(&point, 14);
    }
}
