//! Synthesis cost report: regenerates the naive-vs-optimized circuit costs
//! of every coded catalog member and writes `BENCH_synth.json` at the
//! workspace root (per-code XOR/DFF/SPL/JJ/depth before and after the
//! passes, the chosen schedule, the Paar-factoring middle point, the
//! per-pass deltas, and the `depth_slack` latency/area Pareto sweep) so CI
//! and the roadmap can track cost regressions numerically.
//!
//! Run with `cargo run --release --example synth_report`.

use sfq_ecc::cells::{CellKind, CellLibrary};
use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
use sfq_ecc::netlist::pass::Schedule;
use sfq_ecc::netlist::NetlistStats;
use sfq_telemetry::json::{self, JsonWriter};

/// Slack range of the emitted Pareto sweep (matches the golden fingerprint
/// file `tests/golden/pareto_front.txt`).
const PARETO_MAX_SLACK: usize = 2;

/// Writes one netlist's cell counts, JJ count and logic depth as an object.
fn write_cost(w: &mut JsonWriter, stats: &NetlistStats, depth: usize) {
    w.begin_object();
    for (key, kind) in [
        ("xor", CellKind::Xor),
        ("dff", CellKind::Dff),
        ("spl", CellKind::Splitter),
        ("sfqdc", CellKind::SfqToDc),
    ] {
        w.key(key);
        w.uint(stats.histogram.count(kind));
    }
    w.key("jj");
    w.uint(stats.cost.jj_count);
    w.key("depth");
    w.uint(depth as u64);
    w.end_object();
}

/// Writes `key: [before, after]`.
fn write_pair(w: &mut JsonWriter, key: &str, before: u64, after: u64) {
    w.key(key);
    w.begin_array();
    w.uint(before);
    w.uint(after);
    w.end_array();
}

/// Writes one coded design's report object.
fn write_design(w: &mut JsonWriter, design: &EncoderDesign, library: &CellLibrary) {
    let optimized = design.stats(library);
    let naive_netlist = design.naive_netlist().expect("coded design");
    let naive = NetlistStats::compute(&naive_netlist, library);
    let plan = design
        .schedule_plan()
        .expect("coded design carries a schedule plan");
    let paar = plan
        .candidates
        .iter()
        .find(|c| c.schedule == Schedule::default())
        .expect("the Paar schedule is always a candidate")
        .planned;

    w.begin_object();
    w.key("name");
    w.string(design.name());
    w.key("n");
    w.uint(design.n() as u64);
    w.key("k");
    w.uint(design.k() as u64);
    w.key("schedule");
    w.string(&plan.chosen.label());
    w.key("naive");
    write_cost(w, &naive, naive_netlist.logic_depth());
    w.key("paar");
    w.begin_object();
    w.key("xor");
    w.uint(paar.xor);
    w.key("jj");
    w.uint(paar.jj(library));
    w.end_object();
    w.key("optimized");
    write_cost(w, &optimized, design.netlist().logic_depth());
    w.key("jj_saving_pct");
    w.float(
        100.0 * (naive.cost.jj_count as f64 - optimized.cost.jj_count as f64)
            / naive.cost.jj_count as f64,
    );

    w.key("passes");
    w.begin_array();
    for report in &design.synthesis_report().expect("pipeline report").passes {
        w.begin_object();
        w.key("pass");
        w.string(&report.pass);
        write_pair(w, "xor", report.before.xor, report.after.xor);
        write_pair(w, "dff", report.before.dff, report.after.dff);
        write_pair(w, "spl", report.before.splitter, report.after.splitter);
        write_pair(
            w,
            "depth",
            report.before.depth as u64,
            report.after.depth as u64,
        );
        w.end_object();
    }
    w.end_array();

    w.key("pareto");
    w.begin_array();
    for point in design.pareto_sweep(library, PARETO_MAX_SLACK) {
        w.begin_object();
        w.key("slack");
        w.uint(point.depth_slack as u64);
        w.key("schedule");
        w.string(&point.schedule.label());
        w.key("depth");
        w.uint(point.planned.depth as u64);
        w.key("xor");
        w.uint(point.planned.xor);
        w.key("dff");
        w.uint(point.planned.dff);
        w.key("spl");
        w.uint(point.planned.splitter);
        w.key("jj");
        w.uint(point.jj);
        w.key("front");
        w.bool(point.on_front);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

fn main() {
    let library = CellLibrary::coldflux();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("designs");
    w.begin_array();
    for design in EncoderDesign::build_catalog() {
        if design.kind() == EncoderKind::None {
            continue;
        }
        write_design(&mut w, &design, &library);
    }
    w.end_array();
    w.end_object();
    let report = w.finish();

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_synth.json");
    json::write_artifact(&out, &report).unwrap_or_else(|e| panic!("{e}"));
    println!("wrote {} ({} bytes)", out.display(), report.len());
}
