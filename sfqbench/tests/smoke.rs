//! Tiny-size smoke runs of every workload (untraced and traced, on two
//! seeds), and a check that `BENCHMARK.json` declares exactly the metrics
//! the result line prints.

use sfqbench::{per_layer_metrics, run, RunConfig, Scale, Workload, END_TO_END};

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        threads: 2,
        scale: Scale::Tiny,
    }
}

#[test]
fn every_workload_passes_its_checks_on_two_seeds() {
    for workload in Workload::ALL {
        let mut digests = Vec::new();
        for seed in [workload.default_seed(), 7] {
            let (setup_s, out) = run(&tiny(workload, seed, false));
            let name = workload.name();
            assert!(
                out.checks.passed(),
                "{name} seed {seed}: {:?}",
                out.checks.failures
            );
            assert!(out.checks.attempted > 0, "{name} checked nothing");
            assert!(setup_s > 0.0);
            assert!(out.get("items_per_s").is_some_and(|v| v > 0.0), "{name}");
            assert!(!out.digests.is_empty(), "{name} printed no digest");
            digests.push(out.digests);
        }
        assert_ne!(
            digests[0],
            digests[1],
            "{}: another seed must give other inputs",
            workload.name()
        );
    }
}

#[test]
fn traced_runs_reproduce_the_untraced_digests() {
    for workload in Workload::ALL {
        let name = workload.name();
        let (_, plain) = run(&tiny(workload, 11, false));
        let (_, traced) = run(&tiny(workload, 11, true));
        assert!(
            traced.checks.passed(),
            "{name} traced: {:?}",
            traced.checks.failures
        );
        assert_eq!(plain.digests, traced.digests, "{name}");
        let overhead = traced
            .get(&format!("bench.trace_overhead.{name}"))
            .expect("traced run reports its overhead");
        assert!(overhead > 0.0);
    }
}

/// The `"name"` / `"unit"` pairs of one `BENCHMARK.json` section.
fn section(text: &str, key: &str, next: &str) -> Vec<(String, String)> {
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let end = text[start..]
        .find(&format!("\"{next}\""))
        .map_or(text.len(), |e| start + e);
    let field = |entry: &str, name: &str| -> String {
        let from = entry.find(&format!("\"{name}\": \"")).expect("field") + name.len() + 5;
        entry[from..from + entry[from..].find('"').expect("closing quote")].to_string()
    };
    text[start..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    sfq_telemetry::json::validate(&text).expect("valid JSON");
    let as_owned = |pairs: Vec<(String, &str)>| -> Vec<(String, String)> {
        pairs.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(
        section(&text, "end_to_end", "per_layer"),
        as_owned(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        )
    );
    assert_eq!(
        section(&text, "per_layer", "run_seconds"),
        as_owned(per_layer_metrics())
    );
    for workload in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", workload.name())),
            "{} missing from BENCHMARK.json",
            workload.name()
        );
    }
}
