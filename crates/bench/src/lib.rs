//! Benchmark harness support.
//!
//! The actual table/figure regeneration lives in the Criterion benches under
//! `benches/`: each bench first *prints* the reproduced table or figure
//! series (so that `cargo bench` regenerates the paper's data) and then
//! measures the runtime of the computational kernel behind it.

pub use sfq_telemetry::Fingerprint;

/// Prints a banner separating the regenerated data from Criterion's timing
/// output.
pub fn banner(title: &str) {
    println!();
    println!("================================================================");
    println!("  {title}");
    println!("================================================================");
}

/// Like [`banner`], but also prints the run's configuration fingerprint
/// (code, workload size, seed, thread count, git SHA) so every BENCH
/// artifact is attributable to the configuration that produced it. The
/// same fingerprint is embedded in the JSON the bench writes.
pub fn banner_with_fingerprint(title: &str, fingerprint: &Fingerprint) {
    println!();
    println!("================================================================");
    println!("  {title}");
    println!("  {}", fingerprint.line());
    println!("================================================================");
}

/// Writes a `BENCH_*.json` artifact to the workspace root. The document is
/// checked with [`sfq_telemetry::json::validate`] first, so a malformed
/// artifact panics instead of reaching disk.
pub fn write_artifact(file_name: &str, json: &str) {
    if let Err(e) = sfq_telemetry::json::validate(json) {
        panic!("{file_name} is not valid JSON: {e}");
    }
    let out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(file_name);
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
    println!("wrote {} ({} bytes)", out.display(), json.len());
}
