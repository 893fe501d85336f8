//! Documentation drift: every `--example NAME` and `--bench NAME` that
//! README, `docs/*.md` or the CI workflow mentions must name an existing
//! target, and every `crates/…`, `shims/…`, `examples/…` or `tests/…` path
//! they mention must exist. A deleted or renamed target or file then fails
//! here instead of leaving a dead command in the docs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Path prefixes whose mentions must resolve to a file or directory.
const CHECKED_PREFIXES: [&str; 4] = ["crates/", "shims/", "examples/", "tests/"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// File stems of the `*.rs` files directly inside `dir`.
fn rust_file_stems(dir: &Path) -> BTreeSet<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return BTreeSet::new();
    };
    entries
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

/// The checked documents as `(name relative to the root, text)`.
fn documents() -> Vec<(String, String)> {
    let root = root();
    let mut names = vec![
        "README.md".to_string(),
        ".github/workflows/ci.yml".to_string(),
    ];
    let mut pages: Vec<String> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("readable directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".md"))
        .map(|name| format!("docs/{name}"))
        .collect();
    pages.sort();
    names.extend(pages);
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(root.join(&name))
                .unwrap_or_else(|e| panic!("read {name}: {e}"));
            (name, text)
        })
        .collect()
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '/')
}

/// Every `--example`/`--bench` name and every checked path in `text` that
/// does not resolve, one message each.
fn dead_references(
    text: &str,
    examples: &BTreeSet<String>,
    benches: &BTreeSet<String>,
    path_exists: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut dead = Vec::new();

    let tokens: Vec<&str> = text
        .split_whitespace()
        .map(|t| t.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-')))
        .collect();
    for pair in tokens.windows(2) {
        let (flag, name) = (pair[0], pair[1]);
        let targets = match flag {
            "--example" => examples,
            "--bench" => benches,
            _ => continue,
        };
        if !targets.contains(name) {
            dead.push(format!("`{flag} {name}` names no such target"));
        }
    }

    for prefix in CHECKED_PREFIXES {
        for (at, _) in text.match_indices(prefix) {
            if text[..at].chars().next_back().is_some_and(is_path_char) {
                continue; // inside a longer path, e.g. `sfqbench/tests/`
            }
            let rest = &text[at..];
            let run = &rest[..rest.find(|c| !is_path_char(c)).unwrap_or(rest.len())];
            // A glob (`tests/golden/*.txt`) checks the directory before it.
            let path = if rest[run.len()..].starts_with(['*', '{']) {
                &run[..=run.rfind('/').expect("run starts with a prefix")]
            } else {
                run.trim_end_matches('.')
            };
            if !path_exists(path) {
                dead.push(format!("path `{path}` does not exist"));
            }
        }
    }
    dead
}

#[test]
fn documented_commands_and_paths_exist() {
    let root = root();
    let examples = rust_file_stems(&root.join("examples"));
    let mut benches = BTreeSet::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        benches.extend(rust_file_stems(
            &entry.expect("crate dir").path().join("benches"),
        ));
    }
    assert!(!examples.is_empty() && !benches.is_empty());

    let mut failures = Vec::new();
    for (name, text) in documents() {
        for dead in dead_references(&text, &examples, &benches, |p| root.join(p).exists()) {
            failures.push(format!("{name}: {dead}"));
        }
    }
    assert!(
        failures.is_empty(),
        "documentation drift:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn drift_checker_reports_dead_commands_and_paths() {
    let examples = BTreeSet::from(["quickstart".to_string()]);
    let benches = BTreeSet::from(["stream".to_string()]);
    let doc = "Run `cargo bench -p bench --bench table1`, `cargo bench --bench stream`\n\
               or `cargo run --release\n--example quickstart`; see `crates/gone/src/lib.rs`,\n\
               `tests/golden/*.txt` and `sfqbench/tests/suite.rs`.";
    let dead = dead_references(doc, &examples, &benches, |p| p == "tests/golden/");
    assert_eq!(
        dead,
        [
            "`--bench table1` names no such target",
            "path `crates/gone/src/lib.rs` does not exist",
        ]
    );
}
