//! The two documents a run prints, both written through
//! `sfq_telemetry::json::JsonWriter` and checked with `json::validate`:
//!
//! * the **detailed report** — fingerprint, `nproc`, set-up samples, the
//!   auto-selected kernels, digests of the simulated outputs, every
//!   measured metric with unit and time base (repeated host metrics also
//!   with sample count, median, and spread), and the output checks;
//! * the **result line** — the last line of standard output, one JSON
//!   object with exactly `correct`, `attempted`, `failed` and `metrics`.

use crate::{per_layer_metrics, stats, Outcome, RunConfig, END_TO_END};
use sfq_telemetry::json::{self, JsonWriter};
use sfq_telemetry::Fingerprint;

/// The detailed report (multi-line, validated): the run's configuration,
/// who produced it, `nproc`, and the set-up times of every fresh process,
/// beside the outcome.
///
/// # Errors
/// Returns the validator's message if the document is not valid JSON.
pub fn detailed(
    cfg: &RunConfig,
    fingerprint: &Fingerprint,
    nproc: usize,
    setup_samples: &[f64],
    outcome: &Outcome,
) -> Result<String, String> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("workload");
    w.string(cfg.workload.name());
    w.key("seed");
    w.uint(cfg.seed);
    w.key("seconds");
    w.float(cfg.seconds);
    w.key("trace");
    w.bool(cfg.trace);
    w.key("fingerprint");
    fingerprint.write_json(&mut w);
    w.key("nproc");
    w.uint(nproc as u64);
    w.key("setup_s");
    w.begin_object();
    w.key("unit");
    w.string("s");
    w.key("median");
    w.float(stats::median(setup_samples));
    w.key("samples");
    w.begin_array();
    for &s in setup_samples {
        w.float(s);
    }
    w.end_array();
    w.end_object();
    for (key, pairs) in [("notes", &outcome.notes), ("digests", &outcome.digests)] {
        w.key(key);
        w.begin_object();
        for (k, v) in pairs {
            w.key(k);
            w.string(v);
        }
        w.end_object();
    }
    w.key("metrics");
    w.begin_object();
    for m in outcome.metrics() {
        w.key(&m.name);
        w.begin_object();
        w.key("value");
        w.float(m.value);
        w.key("unit");
        w.string(m.unit);
        w.key("base");
        w.string(m.base.name());
        if let Some(r) = m.repeats {
            w.key("samples");
            w.uint(r.samples as u64);
            w.key("median");
            w.float(r.median);
            w.key("spread");
            w.float(r.spread);
        }
        w.end_object();
    }
    w.end_object();
    w.key("checks");
    w.begin_object();
    w.key("attempted");
    w.uint(outcome.checks.attempted);
    w.key("failed");
    w.uint(outcome.checks.failed);
    w.key("failures");
    w.begin_array();
    for f in &outcome.checks.failures {
        w.string(f);
    }
    w.end_array();
    w.end_object();
    w.end_object();
    let doc = w.finish();
    json::validate(&doc)?;
    Ok(doc)
}

/// The result line: the end-to-end metrics (untraced) or every per-layer
/// metric (traced; 0 where the workload does not exercise the layer).
///
/// # Errors
/// Returns an error if an end-to-end metric is missing or the line is not
/// valid JSON.
pub fn result_line(cfg: &RunConfig, setup_s: f64, outcome: &Outcome) -> Result<String, String> {
    let metrics: Vec<(String, &str, f64)> = if cfg.trace {
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.get(&name).unwrap_or(0.0);
                (name, unit, value)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "setup_s" {
                    Some(setup_s)
                } else {
                    outcome.get(name)
                };
                value
                    .map(|v| (name.to_string(), unit, v))
                    .ok_or_else(|| format!("end-to-end metric {name} was not measured"))
            })
            .collect::<Result<_, _>>()?
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.bool(outcome.checks.passed());
    w.key("attempted");
    w.uint(outcome.checks.attempted);
    w.key("failed");
    w.uint(outcome.checks.failed);
    w.key("metrics");
    w.begin_object();
    for (name, unit, value) in &metrics {
        w.key(name);
        w.begin_object();
        w.key("value");
        w.float(*value);
        w.key("unit");
        w.string(unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    let line = compact(&w.finish());
    json::validate(&line)?;
    Ok(line)
}

/// Joins a `JsonWriter` document onto one line. The writer escapes every
/// newline inside strings, so each raw newline is layout and the
/// indentation after it can go.
fn compact(doc: &str) -> String {
    doc.lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, Workload};

    fn cfg(trace: bool) -> RunConfig {
        RunConfig {
            workload: Workload::ScrubNominal,
            seed: 1,
            seconds: 1.0,
            trace,
            threads: 1,
            scale: Scale::Tiny,
        }
    }

    #[test]
    fn result_line_is_one_valid_line_with_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.host("items_per_s", 123.5, "1/s");
        outcome.checks.record("x", 4, 0);
        let line = result_line(&cfg(false), 0.25, &outcome).expect("valid");
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true,\"attempted\": 4,\"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25,\"unit\": \"s\"}"));
        assert!(line.contains("\"items_per_s\": {\"value\": 123.5,\"unit\": \"1/s\"}"));
    }

    #[test]
    fn result_line_refuses_a_missing_end_to_end_metric() {
        let err = result_line(&cfg(false), 0.25, &Outcome::default()).unwrap_err();
        assert!(err.contains("items_per_s"), "{err}");
    }

    #[test]
    fn traced_line_lists_every_per_layer_metric() {
        let mut outcome = Outcome::default();
        outcome.host("stream.gen_ns", 2.5, "ns/msg");
        outcome.checks.record("x", 1, 1);
        let line = result_line(&cfg(true), 0.25, &outcome).expect("valid");
        assert!(line.starts_with("{\"correct\": false,"));
        assert!(line.contains("\"stream.gen_ns\": {\"value\": 2.5,\"unit\": \"ns/msg\"}"));
        for (name, _) in per_layer_metrics() {
            assert!(line.contains(&format!("\"{name}\": ")), "{name} missing");
        }
        assert!(!line.contains("setup_s"));
    }

    #[test]
    fn compact_keeps_strings_with_escaped_newlines() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("k");
        w.string("a\n  b");
        w.end_object();
        let line = compact(&w.finish());
        assert_eq!(line, "{\"k\": \"a\\n  b\"}");
        json::validate(&line).expect("valid");
    }
}
