//! Run-configuration fingerprints. `sfqbench`'s detailed report and every
//! `RUN_REPORT.json` carry one so an artifact is attributable to the exact
//! configuration (code, workload size, seed, thread count, git revision)
//! that produced it.

use crate::json::JsonWriter;

/// Identifies the configuration that produced a benchmark or run report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Code under test, e.g. `"secded(72,64)"`.
    pub code: String,
    /// Number of simulated chips.
    pub chips: usize,
    /// Messages per chip (or total messages for a bench loop).
    pub messages: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Resolved worker-thread count.
    pub threads: usize,
    /// Git revision of the working tree, when detectable.
    pub git_sha: Option<String>,
}

impl Fingerprint {
    /// A fingerprint for the given configuration, with the git SHA
    /// auto-detected (see [`detect_git_sha`]).
    #[must_use]
    pub fn new(code: &str, chips: usize, messages: usize, seed: u64, threads: usize) -> Self {
        Fingerprint {
            code: code.to_string(),
            chips,
            messages,
            seed,
            threads,
            git_sha: detect_git_sha(),
        }
    }

    /// Writes the fingerprint as a JSON object through the given writer.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("code");
        w.string(&self.code);
        w.key("chips");
        w.uint(self.chips as u64);
        w.key("messages");
        w.uint(self.messages as u64);
        w.key("seed");
        w.uint(self.seed);
        w.key("threads");
        w.uint(self.threads as u64);
        w.key("git_sha");
        match &self.git_sha {
            Some(sha) => w.string(sha),
            None => w.null(),
        }
        w.end_object();
    }

    /// The fingerprint as a standalone JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Best-effort git revision of the current checkout: `GITHUB_SHA` or
/// `GIT_SHA` from the environment (truncated to 12 hex chars), else
/// `git rev-parse --short=12 HEAD`. Returns `None` when neither works,
/// which the JSON renders as `null`.
#[must_use]
pub fn detect_git_sha() -> Option<String> {
    for var in ["GITHUB_SHA", "GIT_SHA"] {
        if let Ok(sha) = std::env::var(var) {
            let sha = sha.trim().to_string();
            if sha.len() >= 7 && sha.chars().all(|c| c.is_ascii_hexdigit()) {
                return Some(sha.chars().take(12).collect());
            }
        }
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (sha.len() >= 7 && sha.chars().all(|c| c.is_ascii_hexdigit())).then_some(sha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_all_fields() {
        let fp = Fingerprint {
            code: "secded(72,64)".to_string(),
            chips: 1000,
            messages: 4096,
            seed: 7,
            threads: 8,
            git_sha: Some("ab12cd34ef56".to_string()),
        };
        let json = fp.to_json();
        crate::json::validate(&json).expect("fingerprint JSON parses");
        for field in [
            "\"code\": \"secded(72,64)\"",
            "\"chips\": 1000",
            "\"messages\": 4096",
            "\"seed\": 7",
            "\"threads\": 8",
            "\"git_sha\": \"ab12cd34ef56\"",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }

    #[test]
    fn missing_sha_renders_as_null() {
        let fp = Fingerprint {
            code: "c".to_string(),
            chips: 1,
            messages: 1,
            seed: 0,
            threads: 1,
            git_sha: None,
        };
        assert!(fp.to_json().contains("\"git_sha\": null"));
    }
}
