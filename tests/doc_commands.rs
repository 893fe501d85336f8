//! Documentation drift: every `--example NAME` and `--bench NAME` that
//! README, `docs/*.md` or the CI workflow mentions must name an existing
//! target, every `crates/…`, `shims/…`, `examples/…` or `tests/…` path
//! they mention must exist, and every `crate::Item` or `crate::Item::member`
//! Rust path into a workspace crate must name something that crate still
//! declares. A deleted or renamed target, file or item then fails here
//! instead of leaving a dead command in the docs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Path prefixes whose mentions must resolve to a file or directory.
const CHECKED_PREFIXES: [&str; 4] = ["crates/", "shims/", "examples/", "tests/"];

/// The crates under `crates/` whose Rust paths are not checked: the facade
/// re-exports the others (so `sfq_ecc::ecc::X` is checked as `ecc::X`).
const UNCHECKED_CRATES: [&str; 1] = ["sfq_ecc"];

/// The keywords after which `pub` declares a named item.
const ITEM_KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// What a crate's source text declares, for resolving documented paths:
/// `items` are the names it declares `pub` or re-exports with `pub use`,
/// and `members` the names any `fn`, `const` or enum-variant line declares.
#[derive(Debug, Default)]
struct PublicNames {
    items: BTreeSet<String>,
    members: BTreeSet<String>,
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier at the start of `text`, if any.
fn leading_ident(text: &str) -> &str {
    &text[..text.find(|c| !is_ident_char(c)).unwrap_or(text.len())]
}

impl PublicNames {
    /// Scans one source file line by line. Good enough for rustfmt'd code:
    /// declarations start their line, and a `pub use` runs to its `;`.
    fn scan(&mut self, source: &str) {
        let mut pending_use: Option<String> = None;
        for line in source.lines().map(str::trim_start) {
            if let Some(statement) = pending_use.as_mut() {
                statement.push_str(line);
            } else if let Some(rest) = line.strip_prefix("pub use ") {
                pending_use = Some(rest.to_string());
            }
            if let Some(statement) = pending_use.take_if(|s| s.contains(';')) {
                self.scan_use(&statement[..statement.find(';').unwrap()]);
            }
            if pending_use.is_some() || line.starts_with("pub use ") {
                continue;
            }
            let words: Vec<&str> = line
                .split(|c: char| !is_ident_char(c))
                .filter(|w| !w.is_empty())
                .collect();
            if line.starts_with("pub ") {
                // Skip qualifiers (`pub unsafe fn`, `pub const fn`); a `pub`
                // field names no item.
                let decl: Vec<&str> = (words[1..].iter().copied())
                    .filter(|w| !matches!(*w, "unsafe" | "async" | "extern"))
                    .collect();
                let decl = match decl[..] {
                    ["const", "fn", ..] => &decl[1..],
                    _ => &decl[..],
                };
                if let [kind, name, ..] = decl {
                    if ITEM_KINDS.contains(kind) {
                        self.items.insert(name.to_string());
                    }
                }
            }
            for pair in words.windows(2) {
                if matches!(pair[0], "fn" | "const") {
                    self.members.insert(pair[1].to_string());
                }
            }
            let variant = leading_ident(line);
            let after = line[variant.len()..].trim_start();
            if variant.starts_with(|c: char| c.is_ascii_uppercase())
                && (after.is_empty() || after.starts_with([',', '(', '{', '=']))
            {
                self.members.insert(variant.to_string());
            }
        }
    }

    /// The names one `pub use` statement (without `pub use` and `;`)
    /// brings in: each path's alias or last segment.
    fn scan_use(&mut self, statement: &str) {
        for part in statement.replace(['{', '}'], ",").split(',') {
            let name = match part.split_once(" as ") {
                Some((_, alias)) => alias,
                None => part.rsplit("::").next().unwrap_or_default(),
            };
            if !matches!(name.trim(), "" | "self" | "*") {
                self.items.insert(name.trim().to_string());
            }
        }
    }
}

/// [`PublicNames`] of every checked crate, keyed by its Rust name.
fn workspace_names() -> BTreeMap<String, PublicNames> {
    fn scan_dir(dir: &Path, names: &mut PublicNames) {
        for entry in std::fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                scan_dir(&path, names);
            } else if path.extension().is_some_and(|x| x == "rs") {
                names.scan(&std::fs::read_to_string(&path).expect("readable source file"));
            }
        }
    }
    let mut crates = BTreeMap::new();
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/ exists") {
        let dir = entry.expect("crate dir").path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        let package = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .expect("package name")
            .trim_end_matches('"')
            .replace('-', "_");
        if !UNCHECKED_CRATES.contains(&package.as_str()) {
            let mut names = PublicNames::default();
            scan_dir(&dir.join("src"), &mut names);
            crates.insert(package, names);
        }
    }
    crates
}

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

/// Every `--example`/`--bench` name, every checked path and every checked
/// Rust path in `text` that does not resolve, one message each.
fn dead_references(
    text: &str,
    examples: &BTreeSet<String>,
    benches: &BTreeSet<String>,
    path_exists: impl Fn(&str) -> bool,
    crates: &BTreeMap<String, PublicNames>,
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

    for (krate, names) in crates {
        let prefix = format!("{krate}::");
        for (at, _) in text.match_indices(&prefix) {
            if text[..at].chars().next_back().is_some_and(is_ident_char) {
                continue; // inside a longer name, e.g. `sfq_ecc::`
            }
            let rest = &text[at + prefix.len()..];
            let item = leading_ident(rest);
            if item.is_empty() {
                continue; // a `use` list, not a path
            }
            let member = rest[item.len()..].strip_prefix("::").map(leading_ident);
            let resolves = names.items.contains(item)
                && member.is_none_or(|m| {
                    m.is_empty() || names.members.contains(m) || names.items.contains(m)
                });
            if !resolves {
                let path = match member {
                    Some(m) if !m.is_empty() => format!("{krate}::{item}::{m}"),
                    _ => format!("{krate}::{item}"),
                };
                dead.push(format!(
                    "Rust path `{path}` names nothing `{krate}` declares"
                ));
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
    assert!(!examples.is_empty());
    let crates = workspace_names();

    let mut failures = Vec::new();
    for (name, text) in documents() {
        let exists = |p: &str| root.join(p).exists();
        for dead in dead_references(&text, &examples, &benches, exists, &crates) {
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
    let mut ecc = PublicNames::default();
    ecc.scan(
        "pub use codes::{column::ColumnCode, bch::Bch as Bose};\n\
         pub(crate) fn hidden() {}\n\
         pub struct Outcome {\n    pub flag: bool,\n}\n\
         impl ColumnCode {\n    pub const fn sec_ded(m: usize) -> Self {}\n}\n\
         pub enum Class {\n    ColumnFlip,\n    Detected(u8),\n}",
    );
    let crates = BTreeMap::from([("ecc".to_string(), ecc)]);
    let doc = "Run `cargo bench -p bench --bench table1`, `cargo bench --bench stream`\n\
               or `cargo run --release\n--example quickstart`; see `crates/gone/src/lib.rs`,\n\
               `tests/golden/*.txt` and `sfqbench/tests/suite.rs`. Build an\n\
               `ecc::ColumnCode::sec_ded(m)`, an `ecc::Bose`, an `ecc::Class::Detected`\n\
               or an `ecc::SecDed::new(m)` (not `ecc::hidden`, `ecc::flag` or\n\
               `ecc::Outcome::Gone`) with `use sfq_ecc::{ecc::{BlockCode}}`.";
    let dead = dead_references(doc, &examples, &benches, |p| p == "tests/golden/", &crates);
    assert_eq!(
        dead,
        [
            "`--bench table1` names no such target",
            "path `crates/gone/src/lib.rs` does not exist",
            "Rust path `ecc::SecDed::new` names nothing `ecc` declares",
            "Rust path `ecc::hidden` names nothing `ecc` declares",
            "Rust path `ecc::flag` names nothing `ecc` declares",
            "Rust path `ecc::Outcome::Gone` names nothing `ecc` declares",
        ]
    );
}
