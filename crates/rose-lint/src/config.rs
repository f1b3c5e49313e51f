//! The `rose-lint.toml` configuration.
//!
//! A deliberately tiny TOML subset with two kinds of section:
//!
//! ```toml
//! [allow]
//! DET001 = ["crates/trace/src/profiler.rs", "crates/bench/src"]
//!
//! [rule.DET003]
//! entry_points = ["Soc::run_*", "Synchronizer::step_*"]
//! sinks = ["my_entropy_helper"]
//!
//! [rule.PANIC002]
//! roots = ["crates/rose-bridge/src"]
//! ```
//!
//! `[allow]` maps rule identifiers to arrays of workspace-relative path
//! prefixes: a file matching a prefix is exempt from that rule wholesale
//! (for whole-file exemptions like the profiler, the one sanctioned
//! wall-clock reader). Single-line exemptions use `// rose-lint: allow(RULE, reason)`
//! annotations instead, handled in [`crate::lint_files`].
//!
//! `[rule.RULE]` sections tune tier W's workspace analysis per rule:
//! `entry_points` (DET003's sim-side roots, `Type::fn` with a trailing-`*`
//! glob), `sinks` (extra entropy-sink identifiers), and `roots`
//! (PANIC002's fault-path file prefixes). Omitted keys fall back to the
//! built-in defaults; a present key replaces the default list.
//!
//! Every `[allow]` entry records its source line so the stale-allow rule
//! (ANN002) can point at a `rose-lint.toml` entry that no longer
//! suppresses anything.

use std::collections::BTreeMap;
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

/// Per-rule list keys accepted inside `[rule.X]` sections.
const RULE_LIST_KEYS: &[&str] = &["entry_points", "sinks", "roots"];

/// Parsed configuration.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Every `[allow]` entry, in file order (one per rule × prefix).
    entries: Vec<AllowEntry>,
    /// `[rule.X]` sections: rule → key → values.
    rule_lists: BTreeMap<String, BTreeMap<String, Vec<String>>>,
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

enum Section {
    None,
    Allow,
    Rule(String),
}

impl Config {
    /// Parses the configuration text.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on an unknown section, a malformed entry, an entry
    /// outside any section, or an unknown `[rule.X]` key.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section = Section::None;
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
                section = match name.trim() {
                    "allow" => Section::Allow,
                    other => match other.strip_prefix("rule.") {
                        Some(rule) if !rule.trim().is_empty() => {
                            Section::Rule(rule.trim().to_string())
                        }
                        _ => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown section [{other}]"),
                            })
                        }
                    },
                };
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
            match &section {
                Section::None => {
                    return Err(ConfigError {
                        line: lineno,
                        message: "entry outside any section".into(),
                    })
                }
                Section::Allow => {
                    for prefix in values {
                        config.entries.push(AllowEntry {
                            rule: key.trim().to_string(),
                            prefix,
                            line: lineno,
                        });
                    }
                }
                Section::Rule(rule) => {
                    let key = key.trim();
                    if !RULE_LIST_KEYS.contains(&key) {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!(
                                "unknown [rule.{rule}] key {key:?}; expected one of {RULE_LIST_KEYS:?}"
                            ),
                        });
                    }
                    config
                        .rule_lists
                        .entry(rule.clone())
                        .or_default()
                        .entry(key.to_string())
                        .or_default()
                        .extend(values);
                }
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
            .position(|e| e.rule == rule && matches_prefix(&normalized, &e.prefix))
    }

    /// True when `rel_path` is exempt from `rule` by prefix match.
    pub fn is_allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.match_allow(rule, rel_path).is_some()
    }

    /// Every `[allow]` entry, in file order.
    pub fn allow_entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// The `[rule.X] key = [...]` list, if configured.
    pub fn rule_list(&self, rule: &str, key: &str) -> Option<&[String]> {
        self.rule_lists
            .get(rule)
            .and_then(|keys| keys.get(key))
            .map(Vec::as_slice)
    }
}

/// Prefix matching with a path-component boundary: `crates/bench/src`
/// matches `crates/bench/src/lib.rs` but not `crates/bench/srcfoo.rs`.
fn matches_prefix(path: &str, prefix: &str) -> bool {
    let p = prefix.trim_end_matches('/');
    path == p
        || path
            .strip_prefix(p)
            .is_some_and(|rest| rest.starts_with('/'))
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
    }

    #[test]
    fn records_entry_lines_for_staleness_checks() {
        let config = Config::parse(
            "[allow]\nDET001 = [\"a.rs\", \"b.rs\"]\nPROF001 = [\"c.rs\"]\n",
        )
        .unwrap();
        let entries = config.allow_entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].line, 2);
        assert_eq!(entries[1].line, 2);
        assert_eq!(entries[2].line, 3);
        assert_eq!(config.match_allow("PROF001", "c.rs"), Some(2));
    }

    #[test]
    fn parses_rule_sections() {
        let config = Config::parse(
            "[rule.DET003]\nentry_points = [\"Soc::run_*\"]\nsinks = [\"leaky\"]\n\
             [rule.PANIC002]\nroots = [\"crates/rose-bridge/src\"]\n",
        )
        .unwrap();
        assert_eq!(
            config.rule_list("DET003", "entry_points").unwrap(),
            &["Soc::run_*".to_string()]
        );
        assert_eq!(config.rule_list("DET003", "sinks").unwrap(), &["leaky".to_string()]);
        assert_eq!(
            config.rule_list("PANIC002", "roots").unwrap(),
            &["crates/rose-bridge/src".to_string()]
        );
        assert!(config.rule_list("DET003", "roots").is_none());
        assert!(config.rule_list("SNAP002", "entry_points").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Config::parse("[allow\n").is_err());
        assert!(Config::parse("[unknown]\n").is_err());
        assert!(Config::parse("DET001 = []\n").is_err()); // outside a section
        assert!(Config::parse("[allow]\nDET001 = nope\n").is_err());
        assert!(Config::parse("[rule.]\n").is_err());
        assert!(Config::parse("[rule.DET003]\nbogus_key = [\"x\"]\n").is_err());
    }

    #[test]
    fn empty_and_missing_are_allow_nothing() {
        let config = Config::parse("").unwrap();
        assert!(!config.is_allowed("DET001", "crates/rose-bridge/src/sync.rs"));
        let missing = Config::load(Path::new("/nonexistent/rose-lint.toml")).unwrap();
        assert!(!missing.is_allowed("DET001", "anything.rs"));
    }
}
