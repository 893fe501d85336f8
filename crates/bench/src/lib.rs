//! CI throughput gates.
//!
//! The two benches under `benches/` are plain `fn main` binaries
//! (`harness = false`) that CI runs as gates: `batch_decode` checks the
//! batch-decode and telemetry-overhead floors and writes `BENCH_batch.json`,
//! and `stream` checks the scrub service's latency contract and writes
//! `BENCH_stream.json`. Both write their artifact through
//! [`sfq_telemetry::json::write_artifact`]. The paper's tables and figures
//! are regenerated by the workspace examples, not here.

use sfq_telemetry::Fingerprint;

/// Prints a banner with the run's configuration fingerprint (code, workload
/// size, seed, thread count, git SHA) so every BENCH artifact is
/// attributable to the configuration that produced it. The same fingerprint
/// is embedded in the JSON the bench writes.
pub fn banner_with_fingerprint(title: &str, fingerprint: &Fingerprint) {
    println!();
    println!("================================================================");
    println!("  {title}");
    println!("  {}", fingerprint.line());
    println!("================================================================");
}
