//! Design explorer: regenerates Table I (code capabilities) and Table II
//! (circuit-level costs) and prints the per-output structure of each encoder.
//!
//! Run with `cargo run --example design_explorer`.

use sfq_ecc::cells::CellLibrary;
use sfq_ecc::ecc::analysis::{paper_table1, table1_row};
use sfq_ecc::ecc::{ColumnCode, Rm13};
use sfq_ecc::encoders::{paper_table2, table2_rows, EncoderDesign, EncoderKind};

fn main() {
    println!("=== Table I: number of detected and corrected errors ===");
    println!(
        "{:<14} {:>4} | {:>13} {:>13} | {:>12} {:>12} | {:>10}",
        "code", "dmin", "worst detect", "worst correct", "best detect", "best correct", "w3 caught"
    );
    let computed = vec![
        table1_row(&ColumnCode::hamming74()),
        table1_row(&ColumnCode::hamming84()),
        table1_row(&Rm13::new()),
    ];
    for row in &computed {
        println!(
            "{:<14} {:>4} | {:>13} {:>13} | {:>12} {:>12} | {:>9.0}%",
            row.code,
            row.dmin,
            row.worst_detected,
            row.worst_corrected,
            row.best_detected,
            row.best_corrected,
            row.weight3_detection_rate * 100.0
        );
    }
    println!();
    println!("paper's Table I values for comparison:");
    for row in paper_table1() {
        println!(
            "{:<14} {:>4} | {:>13} {:>13} | {:>12} {:>12}",
            row.code,
            row.dmin,
            row.worst_detected,
            row.worst_corrected,
            row.best_detected,
            row.best_corrected
        );
    }

    println!();
    println!("=== Table II: circuit-level comparison ===");
    let library = CellLibrary::coldflux();
    for (ours, paper) in table2_rows(&library).iter().zip(paper_table2()) {
        println!("computed: {}", ours.format());
        println!("paper:    {}", paper.format());
    }

    println!();
    println!("=== Encoder structure ===");
    for kind in [
        EncoderKind::Hamming84,
        EncoderKind::Hamming74,
        EncoderKind::Rm13,
    ] {
        let design = EncoderDesign::build(kind);
        let stats = design.stats(&library);
        println!(
            "{:<22} logic depth {} | {} | bias current {:.1} mA",
            design.name(),
            stats.logic_depth,
            stats.histogram,
            stats.cost.bias_current_ma
        );
    }
}
