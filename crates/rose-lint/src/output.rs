//! Diagnostic rendering: `text` (human), `json` (machines), `github`
//! (GitHub Actions workflow commands, so findings annotate PR diffs).
//!
//! The JSON emitter is hand-rolled like everything else in this crate —
//! the shape is pinned by a round-trip test against `rose_trace::json`
//! (a dev-dependency only; the linter itself stays dependency-free):
//!
//! ```json
//! {
//!   "count": 2,
//!   "findings": [
//!     {"file": "crates/socsim/src/soc.rs", "line": 41, "rule": "DET003",
//!      "message": "..."}
//!   ]
//! }
//! ```

use crate::Diagnostic;
use std::fmt::Write as _;

/// An output format for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// `file:line: RULE message` — one diagnostic per line.
    #[default]
    Text,
    /// One JSON document with `count` and `findings`.
    Json,
    /// GitHub Actions `::error` workflow commands.
    Github,
}

impl Format {
    /// Parses a `--format` argument value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "github" => Some(Format::Github),
            _ => None,
        }
    }
}

/// Renders diagnostics in `format`. Always ends with a newline unless the
/// rendering is empty (text/github with no findings).
pub fn render(diagnostics: &[Diagnostic], format: Format) -> String {
    match format {
        Format::Text => {
            let mut out = String::new();
            for d in diagnostics {
                let _ = writeln!(out, "{d}");
            }
            out
        }
        Format::Json => {
            let mut out = String::from("{\n");
            let _ = writeln!(out, "  \"count\": {},", diagnostics.len());
            out.push_str("  \"findings\": [");
            for (i, d) in diagnostics.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(
                    out,
                    "{sep}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                    json_string(&d.file),
                    d.finding.line,
                    json_string(d.finding.rule),
                    json_string(&d.finding.message),
                );
            }
            if !diagnostics.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("]\n}\n");
            out
        }
        Format::Github => {
            let mut out = String::new();
            for d in diagnostics {
                let _ = writeln!(
                    out,
                    "::error file={file},line={line},title=rose-lint {rule}::{message}",
                    file = gh_property(&d.file),
                    line = d.finding.line,
                    rule = gh_property(d.finding.rule),
                    message = gh_data(&d.finding.message),
                );
            }
            out
        }
    }
}

/// Encodes a JSON string literal (RFC 8259 escapes; UTF-8 passthrough).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escapes a workflow-command *property* value (`file=`, `title=`):
/// `%`, newlines, and the property delimiters `,`/`:` must be encoded.
fn gh_property(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(',', "%2C")
        .replace(':', "%3A")
}

/// Escapes workflow-command *data* (the message after `::`): only `%`
/// and newlines are special there.
fn gh_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                file: "crates/socsim/src/soc.rs".into(),
                finding: Finding {
                    rule: "DET003",
                    line: 41,
                    message: "call chain: Soc::step → helper → Instant::now(); \
                              quoted \"text\" survives"
                        .into(),
                },
            },
            Diagnostic {
                file: "crates/rose-bridge/src/packet.rs".into(),
                finding: Finding {
                    rule: "PANIC001",
                    line: 7,
                    message: ".unwrap() on the fault path".into(),
                },
            },
        ]
    }

    #[test]
    fn json_round_trips_through_a_real_parser() {
        let diagnostics = sample();
        let text = render(&diagnostics, Format::Json);
        let doc = rose_trace::json::parse(&text).expect("emitted JSON must parse");
        assert_eq!(doc.get("count").and_then(|c| c.as_f64()), Some(2.0));
        let findings = doc
            .get("findings")
            .and_then(|f| f.as_array())
            .expect("findings array");
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("file").and_then(|f| f.as_str()),
            Some("crates/socsim/src/soc.rs")
        );
        assert_eq!(findings[0].get("line").and_then(|l| l.as_f64()), Some(41.0));
        assert_eq!(
            findings[0].get("rule").and_then(|r| r.as_str()),
            Some("DET003")
        );
        // The Unicode arrows and embedded quotes survive the round trip.
        let msg = findings[0].get("message").and_then(|m| m.as_str()).unwrap();
        assert!(msg.contains("Soc::step → helper"));
        assert!(msg.contains("quoted \"text\" survives"));
        assert_eq!(
            findings[1].get("rule").and_then(|r| r.as_str()),
            Some("PANIC001")
        );
    }

    #[test]
    fn json_empty_set_is_valid_and_zero_count() {
        let text = render(&[], Format::Json);
        let doc = rose_trace::json::parse(&text).expect("empty JSON must parse");
        assert_eq!(doc.get("count").and_then(|c| c.as_f64()), Some(0.0));
        assert_eq!(
            doc.get("findings")
                .and_then(|f| f.as_array())
                .map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn github_format_emits_error_commands() {
        let lines = render(&sample(), Format::Github);
        let first = lines.lines().next().unwrap();
        assert!(first.starts_with("::error file=crates/socsim/src/soc.rs,line=41,"));
        assert!(first.contains("title=rose-lint DET003::"));
        // The `::` in the message body must not be property-escaped, but a
        // colon inside a *property* must be.
        let weird = vec![Diagnostic {
            file: "a,b:c.rs".into(),
            finding: Finding {
                rule: "DET001",
                line: 1,
                message: "50% done\nnext line".into(),
            },
        }];
        let line = render(&weird, Format::Github);
        assert!(line.starts_with("::error file=a%2Cb%3Ac.rs,line=1,"));
        assert!(line.contains("50%25 done%0Anext line"));
    }

    #[test]
    fn text_format_matches_display() {
        let diagnostics = sample();
        let text = render(&diagnostics, Format::Text);
        assert_eq!(text, format!("{}\n{}\n", diagnostics[0], diagnostics[1]));
        assert_eq!(render(&[], Format::Text), "");
    }

    #[test]
    fn format_parses_cli_values() {
        assert_eq!(Format::parse("text"), Some(Format::Text));
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("github"), Some(Format::Github));
        assert_eq!(Format::parse("yaml"), None);
    }
}
