//! The metric catalog in `docs/OBSERVABILITY.md` names exactly the metrics
//! a layer registers, in both directions: a renamed or deleted metric fails
//! here until the catalog follows, and so does a catalog row nothing
//! records. Covered: the `batch.*` rows (`sfq-batch`); the `synth.*` and
//! `encoders.*` rows (`sfq-netlist`, `encoders`) after a catalog build; the
//! `stream.*` rows (`sfq-stream`) after a scrub-service run; and the
//! `link.*` and `fig5.*` rows (`cryolink`) after a batched Fig. 5 run.

use sfq_ecc::batch::BatchCodec;
use sfq_ecc::cells::CellLibrary;
use sfq_ecc::ecc::{BatchDecode, BatchEncode};
use sfq_ecc::encoders::{EncoderDesign, EncoderKind};
use sfq_ecc::gf2::BitSlice64;
use sfq_ecc::link::Fig5Experiment;
use sfq_ecc::stream::{FaultScript, ScrubService, StreamConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Backticked tokens of a table cell.
fn ticked(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

/// The `<placeholder>` of a catalog name, if it has one.
fn placeholder(name: &str) -> Option<&str> {
    let open = name.find('<')?;
    let close = open + name[open..].find('>')?;
    Some(&name[open..=close])
}

/// A catalog name with every `{a,b}` alternation expanded.
fn expand_braces(name: &str) -> Vec<String> {
    match (name.find('{'), name.find('}')) {
        (Some(open), Some(close)) if open < close => name[open + 1..close]
            .split(',')
            .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &name[..open], &name[close + 1..])))
            .collect(),
        _ => vec![name.to_owned()],
    }
}

/// The catalog's names under `prefixes`: every backticked name of a row's
/// name cell, with `{a,b}` expanded and each `<placeholder>` expanded over
/// the plain names (letters, digits, `-`) that the meanings of that
/// placeholder's rows list in backticks.
fn catalog_names(prefixes: &[&str]) -> BTreeSet<String> {
    let rows: Vec<(Vec<&str>, &str)> = include_str!("../docs/OBSERVABILITY.md")
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').collect();
            let names: Vec<&str> = ticked(cells.get(1)?)
                .filter(|name| prefixes.iter().any(|p| name.starts_with(p)))
                .collect();
            (!names.is_empty()).then(|| (names, cells.get(4).copied().unwrap_or_default()))
        })
        .collect();
    let mut values: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (names, meaning) in &rows {
        for placeholder in names.iter().filter_map(|name| placeholder(name)) {
            values.entry(placeholder).or_default().extend(
                ticked(meaning)
                    .filter(|t| t.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')),
            );
        }
    }
    let mut expanded = BTreeSet::new();
    for name in rows.iter().flat_map(|(names, _)| names) {
        for name in expand_braces(name) {
            match placeholder(&name) {
                Some(p) => expanded.extend(values[p].iter().map(|v| name.replace(p, v))),
                None => {
                    expanded.insert(name);
                }
            }
        }
    }
    expanded
}

/// Every metric name registered so far under `prefixes`.
fn registered_names(prefixes: &[&str]) -> BTreeSet<String> {
    let snapshot = sfq_ecc::telemetry::global().snapshot();
    (snapshot.counters.iter().map(|c| &c.name))
        .chain(snapshot.gauges.iter().map(|g| &g.name))
        .chain(snapshot.histograms.iter().map(|h| &h.name))
        .filter(|name| prefixes.iter().any(|p| name.starts_with(p)))
        .cloned()
        .collect()
}

fn assert_catalog_matches(prefixes: &[&str]) {
    let registered = registered_names(prefixes);
    let catalog = catalog_names(prefixes);
    assert!(
        registered == catalog,
        "docs/OBSERVABILITY.md drifted from the {prefixes:?} metrics: registered but not in \
         the catalog {:?}; in the catalog but never registered {:?}",
        registered.difference(&catalog).collect::<Vec<_>>(),
        catalog.difference(&registered).collect::<Vec<_>>()
    );
}

#[test]
fn batch_metric_names_match_the_observability_catalog() {
    // Every catalog member's shipping codec.
    for kind in EncoderKind::catalog() {
        let codec = BatchCodec::new(&*kind.reference_code());
        let mut received = BitSlice64::zeros(codec.n(), 130);
        for lane in (0..130).step_by(3) {
            received.set(lane, lane % codec.n(), true);
        }
        let _ = codec.decode_batch(&received);
        let _ = codec.detect_batch(&received);
    }
    assert_catalog_matches(&["batch."]);
}

#[test]
fn synthesis_metric_names_match_the_observability_catalog() {
    // Planning prices every factoring kind, and every coded design is
    // lowered and verified through the planner.
    let _ = EncoderDesign::build_catalog();
    assert_catalog_matches(&["synth.", "encoders."]);
}

#[test]
fn stream_metric_names_match_the_observability_catalog() {
    // The service registers its whole `stream.*` family at start-up, so a
    // short quiet run covers every row.
    let config = StreamConfig {
        batch_messages: 256,
        total_cycles: 1 << 12,
        ..StreamConfig::nominal()
    };
    let _ = ScrubService::run(&config, &FaultScript::quiet());
    assert_catalog_matches(&["stream."]);
}

#[test]
fn link_and_fig5_metric_names_match_the_observability_catalog() {
    let design = EncoderDesign::build(EncoderKind::Hamming74);
    let _ = Fig5Experiment {
        chips: 4,
        messages_per_chip: 20,
        threads: 2,
        ..Fig5Experiment::paper_setup()
    }
    .run_design_batched(&design, &CellLibrary::coldflux());
    assert_catalog_matches(&["link.", "fig5."]);
}
