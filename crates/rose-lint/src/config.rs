//! The `rose-lint.toml` configuration.
//!
//! A deliberately tiny TOML subset with one section:
//!
//! ```toml
//! [allow]
//! DET001 = ["crates/trace/src/profiler.rs", "crates/bench/src"]
//! ```
//!
//! `[allow]` maps rule identifiers to arrays of workspace-relative path
//! prefixes: a file matching a prefix is exempt from that rule wholesale
//! (for whole-file exemptions like the profiler, the one sanctioned
//! wall-clock reader). Single-line exemptions use `// rose-lint: allow(RULE, reason)`
//! annotations instead, handled in [`crate::lint_files`]. Any other
//! section is an error, so a stale config fails loudly.
//!
//! Every `[allow]` entry records its source line so the stale-allow rule
//! (ANN002) can point at a `rose-lint.toml` entry that no longer
//! suppresses anything.

use crate::rules::path_in;
use std::path::Path;

/// One `[allow]` entry: a rule exempted for one path prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The exempted rule identifier.
    pub rule: String,
    /// The workspace-relative path prefix.
    pub prefix: String,
    /// 1-based `rose-lint.toml` line the entry came from.
    pub line: usize,
}

/// Parsed configuration.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Every `[allow]` entry, in file order (one per rule × prefix).
    entries: Vec<AllowEntry>,
}

/// A configuration parse failure, with the offending 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rose-lint.toml:{}: {}", self.line, self.message)
    }
}

impl Config {
    /// Parses the configuration text.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on an unknown section, a malformed entry, or an
    /// entry outside `[allow]`.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut in_allow = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: format!("unterminated section header {raw:?}"),
                })?;
                if name.trim() != "allow" {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown section [{}]", name.trim()),
                    });
                }
                in_allow = true;
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected KEY = [..], got {line:?}"),
            })?;
            let values = parse_string_array(value.trim()).ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected a [\"..\", ..] array, got {:?}", value.trim()),
            })?;
            if !in_allow {
                return Err(ConfigError {
                    line: lineno,
                    message: "entry outside any section".into(),
                });
            }
            for prefix in values {
                config.entries.push(AllowEntry {
                    rule: key.trim().to_string(),
                    prefix,
                    line: lineno,
                });
            }
        }
        Ok(config)
    }

    /// Loads `rose-lint.toml` from `path`; a missing file is an empty
    /// (allow-nothing) configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the file exists but does not parse.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Config::parse(&text),
            Err(_) => Ok(Config::default()),
        }
    }

    /// The first `[allow]` entry exempting `rel_path` from `rule`, as an
    /// index into [`allow_entries`](Config::allow_entries).
    pub fn match_allow(&self, rule: &str, rel_path: &str) -> Option<usize> {
        // Normalize Windows-style separators so prefixes always compare
        // against forward slashes.
        let normalized = rel_path.replace('\\', "/");
        self.entries
            .iter()
            .position(|e| e.rule == rule && path_in(&normalized, &[&e.prefix]))
    }

    /// True when `rel_path` is exempt from `rule` by prefix match.
    pub fn is_allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.match_allow(rule, rel_path).is_some()
    }

    /// Every `[allow]` entry, in file order.
    pub fn allow_entries(&self) -> &[AllowEntry] {
        &self.entries
    }
}

/// Parses `["a", "b"]` into its strings; `None` on malformed input.
fn parse_string_array(text: &str) -> Option<Vec<String>> {
    let inner = text.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        let s = part.strip_prefix('"')?.strip_suffix('"')?;
        out.push(s.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_allow_table() {
        let config = Config::parse(
            "# comment\n[allow]\nDET001 = [\"crates/rose-bridge/src/sync.rs\", \"crates/bench/src\"]\n",
        )
        .unwrap();
        assert!(config.is_allowed("DET001", "crates/rose-bridge/src/sync.rs"));
        assert!(config.is_allowed("DET001", "crates/bench/src/lib.rs"));
        assert!(!config.is_allowed("DET001", "crates/bench/srcfoo.rs"));
        assert!(!config.is_allowed("DET002", "crates/bench/src/lib.rs"));
        // A trailing `/` on a prefix is tolerated.
        let slash = Config::parse("[allow]\nDET002 = [\"crates/bench/src/\"]\n").unwrap();
        assert!(slash.is_allowed("DET002", "crates/bench/src/lib.rs"));
        assert!(slash.is_allowed("DET002", "crates/bench/src"));
        assert!(!slash.is_allowed("DET002", "crates/bench/srcfoo.rs"));
    }

    #[test]
    fn records_entry_lines_for_staleness_checks() {
        let config =
            Config::parse("[allow]\nDET001 = [\"a.rs\", \"b.rs\"]\nDET002 = [\"c.rs\"]\n").unwrap();
        let entries = config.allow_entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].line, 2);
        assert_eq!(entries[1].line, 2);
        assert_eq!(entries[2].line, 3);
        assert_eq!(config.match_allow("DET002", "c.rs"), Some(2));
    }

    #[test]
    fn rejects_rule_sections_naming_their_line() {
        // `[allow]` is the only section: a `[rule.X]` tuning table is an
        // error at its header line, not a silently ignored table.
        let err = Config::parse(
            "[allow]\nDET001 = [\"a.rs\"]\n\n[rule.DET003]\nentry_points = [\"Soc::run_*\"]\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.message, "unknown section [rule.DET003]");
        assert_eq!(
            err.to_string(),
            "rose-lint.toml:4: unknown section [rule.DET003]"
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Config::parse("[allow\n").is_err());
        assert!(Config::parse("[unknown]\n").is_err());
        assert!(Config::parse("DET001 = []\n").is_err()); // outside a section
        assert!(Config::parse("[allow]\nDET001 = nope\n").is_err());
    }

    #[test]
    fn empty_and_missing_are_allow_nothing() {
        let config = Config::parse("").unwrap();
        assert!(!config.is_allowed("DET001", "crates/rose-bridge/src/sync.rs"));
        let missing = Config::load(Path::new("/nonexistent/rose-lint.toml")).unwrap();
        assert!(!missing.is_allowed("DET001", "anything.rs"));
    }
}
