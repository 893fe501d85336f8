//! Hand-rolled JSON emission and validation. The workspace's serde shim is
//! a no-op marker, so every JSON artifact (BENCH files, `RUN_REPORT.json`)
//! is built with [`JsonWriter`], which keeps escaping and comma placement
//! correct, and reaches disk through [`write_artifact`], which checks it
//! with [`validate`] first — all without a JSON dependency.

use std::path::Path;

/// Escapes a string for inclusion inside a JSON string literal (without the
/// surrounding quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental JSON writer with automatic comma placement and two-space
/// indentation. Call [`JsonWriter::finish`] to take the document.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    // One entry per open container: `true` once it has at least one element
    // (so the next element is preceded by a comma).
    stack: Vec<bool>,
    // A key was just written; the next value continues its line.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
            self.newline_indent();
        }
    }

    /// Opens a `{`.
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost `{`.
    pub fn end_object(&mut self) {
        let had_elems = self.stack.pop().unwrap_or(false);
        if had_elems {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Opens a `[`.
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost `[`.
    pub fn end_array(&mut self) {
        let had_elems = self.stack.pop().unwrap_or(false);
        if had_elems {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, name: &str) {
        self.before_value();
        self.out.push('"');
        self.out.push_str(&escape(name));
        self.out.push_str("\": ");
        self.after_key = true;
    }

    /// Writes a string value.
    pub fn string(&mut self, value: &str) {
        self.before_value();
        self.out.push('"');
        self.out.push_str(&escape(value));
        self.out.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, value: u64) {
        self.before_value();
        self.out.push_str(&value.to_string());
    }

    /// Writes a signed integer value.
    pub fn int(&mut self, value: i64) {
        self.before_value();
        self.out.push_str(&value.to_string());
    }

    /// Writes a finite float value (non-finite values become `null`, which
    /// keeps the document valid JSON).
    pub fn float(&mut self, value: f64) {
        self.before_value();
        if value.is_finite() {
            // `{:?}` round-trips f64 and always includes a decimal point or
            // exponent, so the value re-parses as a float.
            self.out.push_str(&format!("{value:?}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, value: bool) {
        self.before_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes a `null` value.
    pub fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// Returns the finished document (with a trailing newline).
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// Validates that `input` is exactly one well-formed JSON value (plus
/// whitespace). Returns a byte offset and message on error. This is a
/// structural check — no value is materialized — sized for CI gates, not a
/// general-purpose parser.
pub fn validate(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

/// Writes a JSON artifact to `path` after checking it with [`validate`], so
/// a malformed document never reaches disk.
///
/// # Errors
/// Returns a message naming `path` if `json` is not valid JSON (nothing is
/// written) or if the write fails.
pub fn write_artifact(path: impl AsRef<Path>, json: &str) -> Result<(), String> {
    let path = path.as_ref();
    validate(json).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}", pos = *pos)),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening '"'
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match bytes.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = bytes
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| format!("truncated \\u escape at byte {pos}", pos = *pos))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
            },
            c if c < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected digits at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("expected fraction digits at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("expected exponent digits at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn writer_produces_valid_nested_documents() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string("secded(72,64)");
        w.key("values");
        w.begin_array();
        w.uint(1);
        w.int(-2);
        w.float(0.5);
        w.bool(true);
        w.null();
        w.end_array();
        w.key("empty");
        w.begin_object();
        w.end_object();
        w.key("nested");
        w.begin_object();
        w.key("x");
        w.uint(7);
        w.end_object();
        w.end_object();
        let doc = w.finish();
        validate(&doc).expect("writer output parses");
        assert!(doc.contains("\"name\": \"secded(72,64)\""));
        assert!(doc.contains("\"empty\": {}"));
    }

    #[test]
    fn writer_nan_becomes_null() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("x");
        w.float(f64::NAN);
        w.end_object();
        let doc = w.finish();
        validate(&doc).expect("null keeps the doc valid");
        assert!(doc.contains("\"x\": null"));
    }

    #[test]
    fn validate_accepts_well_formed_inputs() {
        for ok in [
            "{}",
            "[]",
            "0",
            "-1.5e-3",
            "\"s\"",
            "true",
            "null",
            "{\"a\": [1, {\"b\": \"c\\n\"}], \"d\": false}",
            "  { \"u\": \"\\u00e9\" } ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    /// A per-test path in the system temp directory, removed up front so a
    /// leftover from an earlier run cannot satisfy an assertion.
    fn temp_artifact(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("sfq-telemetry-{}-{name}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn write_artifact_refuses_an_invalid_document_and_writes_nothing() {
        let path = temp_artifact("invalid");
        let err = write_artifact(&path, "{\"a\": 1,}").unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        assert!(!path.exists(), "an invalid document must not reach disk");
    }

    #[test]
    fn write_artifact_writes_a_valid_document_byte_for_byte() {
        let path = temp_artifact("valid");
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("escaped");
        w.string("a\"b\u{e9}");
        w.key("x");
        w.float(0.1);
        w.end_object();
        let doc = w.finish();
        write_artifact(&path, &doc).expect("valid document is written");
        let written = std::fs::read(&path).expect("artifact exists");
        let _ = std::fs::remove_file(&path);
        assert_eq!(written, doc.as_bytes());
    }

    #[test]
    fn validate_rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\": 1,}",
            "[1, 2",
            "[1 2]",
            "\"unterminated",
            "tru",
            "01x",
            "1.",
            "1e",
            "{} extra",
            "{\"a\" 1}",
            "{1: 2}",
            "\"bad \\q escape\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
