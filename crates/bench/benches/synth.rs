//! Synthesis-pipeline benchmark: regenerates the naive-vs-optimized circuit
//! costs of every coded catalog member, times the pipeline, and emits
//! `BENCH_synth.json` at the workspace root (per-code XOR/DFF/SPL/JJ/depth
//! before and after the passes, the chosen schedule, the Paar-factoring
//! middle point, the per-pass deltas, and the `depth_slack` latency/area
//! Pareto sweep) so CI and the roadmap can track cost regressions
//! numerically.

use bench::write_artifact;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecc::BlockCode;
use encoders::{EncoderDesign, EncoderKind};
use sfq_cells::CellLibrary;
use sfq_netlist::pass::Schedule;
use sfq_netlist::NetlistStats;
use std::fmt::Write as _;

/// Slack range of the emitted Pareto sweep (matches the golden fingerprint
/// file `tests/golden/pareto_front.txt`).
const PARETO_MAX_SLACK: usize = 2;

fn json_cost(stats: &NetlistStats, depth: usize) -> String {
    use sfq_cells::CellKind;
    format!(
        "{{\"xor\": {}, \"dff\": {}, \"spl\": {}, \"sfqdc\": {}, \"jj\": {}, \"depth\": {}}}",
        stats.histogram.count(CellKind::Xor),
        stats.histogram.count(CellKind::Dff),
        stats.histogram.count(CellKind::Splitter),
        stats.histogram.count(CellKind::SfqToDc),
        stats.cost.jj_count,
        depth
    )
}

/// Builds the report and returns it as a JSON string.
fn synth_report_json() -> String {
    let library = CellLibrary::coldflux();
    let mut designs = Vec::new();
    for kind in EncoderKind::catalog() {
        if kind == EncoderKind::None {
            continue;
        }
        let design = EncoderDesign::build(kind);
        let optimized = design.stats(&library);
        let naive_netlist = design.naive_netlist().expect("coded design");
        let naive = NetlistStats::compute(&naive_netlist, &library);
        let saving = 100.0 * (naive.cost.jj_count as f64 - optimized.cost.jj_count as f64)
            / naive.cost.jj_count as f64;
        let mut passes = String::new();
        for report in &design.synthesis_report().expect("pipeline report").passes {
            let _ = write!(
                passes,
                "{}{{\"pass\": \"{}\", \"xor\": [{}, {}], \"dff\": [{}, {}], \
                 \"spl\": [{}, {}], \"depth\": [{}, {}]}}",
                if passes.is_empty() { "" } else { ", " },
                report.pass,
                report.before.xor,
                report.after.xor,
                report.before.dff,
                report.after.dff,
                report.before.splitter,
                report.after.splitter,
                report.before.depth,
                report.after.depth,
            );
        }
        let paar = design
            .schedule_plan()
            .expect("coded design carries a schedule plan")
            .candidates
            .iter()
            .find(|c| c.schedule == Schedule::default())
            .expect("the Paar schedule is always a candidate")
            .planned;
        let mut pareto = String::new();
        for point in design.pareto_sweep(&library, PARETO_MAX_SLACK) {
            let _ = write!(
                pareto,
                "{}{{\"slack\": {}, \"schedule\": \"{}\", \"depth\": {}, \"xor\": {}, \
                 \"dff\": {}, \"spl\": {}, \"jj\": {}, \"front\": {}}}",
                if pareto.is_empty() { "" } else { ", " },
                point.depth_slack,
                point.schedule.label(),
                point.planned.depth,
                point.planned.xor,
                point.planned.dff,
                point.planned.splitter,
                point.jj,
                point.on_front,
            );
        }
        let schedule = design
            .schedule_plan()
            .expect("coded design carries a schedule plan")
            .chosen
            .label();
        designs.push(format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"k\": {}, \"schedule\": \"{}\", \
             \"naive\": {}, \"paar\": {{\"xor\": {}, \"jj\": {}}}, \"optimized\": {}, \
             \"jj_saving_pct\": {:.2}, \"passes\": [{}], \"pareto\": [{}]}}",
            design.name(),
            design.n(),
            design.k(),
            schedule,
            json_cost(&naive, naive_netlist.logic_depth()),
            paar.xor,
            paar.jj(&library),
            json_cost(&optimized, design.netlist().logic_depth()),
            saving,
            passes,
            pareto
        ));
    }
    format!("{{\n  \"designs\": [\n{}\n  ]\n}}\n", designs.join(",\n"))
}

fn bench_synth(c: &mut Criterion) {
    write_artifact("BENCH_synth.json", &synth_report_json());

    let code = ecc::SecDed::new(6);
    c.bench_function("synth/pipeline_secded_72_64", |b| {
        b.iter(|| {
            black_box(sfq_netlist::synth::synthesize_encoder(
                "secded_72_64_encoder",
                code.generator(),
                sfq_netlist::pass::PipelineOptions::default(),
            ))
        })
    });
    c.bench_function("synth/naive_secded_72_64", |b| {
        b.iter(|| {
            black_box(sfq_netlist::synth::synthesize_linear_encoder(
                "secded_72_64_naive",
                code.generator(),
                sfq_netlist::synth::SynthesisOptions::default(),
            ))
        })
    });
    c.bench_function("synth/build_full_catalog", |b| {
        b.iter(|| black_box(EncoderDesign::build_catalog()))
    });
}

criterion_group!(benches, bench_synth);
criterion_main!(benches);
