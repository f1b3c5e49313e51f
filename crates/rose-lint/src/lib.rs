//! rose-lint: the workspace determinism & fault-safety contract, enforced.
//!
//! The RoSÉ reproduction promises bit-identical missions for identical
//! configs (see `rose::audit`). That promise is easy to break one line at
//! a time — a `HashMap` drain here, an `Instant::now()` there — so this
//! crate scans the workspace source with a hand-rolled Rust lexer
//! ([`lexer`]) and a two-tier analysis. Each file is lexed, test-masked
//! and parsed into a lightweight item AST once ([`ast::SourceFile`]);
//! every rule reads that one parse. **Tier L** ([`rules`]) checks each
//! file on its own. **Tier W**
//! ([`workspace`], [`wrules`]) builds a workspace symbol table plus a
//! conservative call graph over the parsed files and reasons
//! interprocedurally. `rose-lint --list-rules` prints every rule with its
//! tier and a one-line summary, from the one table [`ALL_RULES`].
//!
//! Suppression is always explicit: file-level via `rose-lint.toml`
//! ([`config`]), or line-level via `// rose-lint: allow(RULE, reason)` —
//! the reason is mandatory, and an annotation without one is itself a
//! finding (ANN001). An allow that no longer suppresses anything is also
//! a finding (ANN002), so exemptions cannot outlive the violation they
//! excused.
//!
//! No dependencies, no `proc-macro`, no `syn`: the linter runs in an
//! offline container before anything else builds.

pub mod ast;
pub mod config;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod workspace;
pub mod wrules;

pub use config::{Config, ConfigError};
pub use output::Format;
pub use rules::{Finding, ALL_RULES};

use ast::SourceFile;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use workspace::Workspace;

/// One reported violation, with its file attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// The underlying finding.
    pub finding: Finding,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.finding.line, self.finding.rule, self.finding.message
        )
    }
}

/// A parsed `// rose-lint: allow(RULE, reason)` annotation.
#[derive(Debug)]
struct Allow {
    line: usize,
    rule: String,
    has_reason: bool,
}

/// Extracts allow annotations from a file's comments. A comment that
/// starts with `rose-lint:` but does not parse as `allow(RULE, reason)`
/// yields an ANN001 finding, as does one with an empty reason.
fn parse_allows(comments: &[(usize, String)]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (line, text) in comments {
        let Some(rest) = text.strip_prefix("rose-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|inner| inner.strip_suffix(')'));
        let Some(inner) = parsed else {
            findings.push(Finding {
                rule: "ANN001",
                line: *line,
                message: format!(
                    "malformed annotation {text:?}; expected \
                     // rose-lint: allow(RULE, reason)"
                ),
            });
            continue;
        };
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        let has_reason = !reason.is_empty();
        if !has_reason {
            findings.push(Finding {
                rule: "ANN001",
                line: *line,
                message: format!(
                    "allow({rule}) without a reason; the reason is mandatory — \
                     state the invariant that makes the violation safe"
                ),
            });
        }
        allows.push(Allow {
            line: *line,
            rule: rule.to_string(),
            has_reason,
        });
    }
    (allows, findings)
}

/// Per-file state carried through the two-tier pipeline.
struct FileCtx {
    allows: Vec<Allow>,
    /// ANN001 findings from annotation parsing (never suppressible).
    ann: Vec<Finding>,
    /// Raw tier L + tier W findings, pre-suppression.
    raw: Vec<Finding>,
}

/// Lints a set of files as one workspace: tier L per file, tier W over
/// the combined call graph, then suppression (toml allowlist first, line
/// annotations second) and the ANN002 stale-annotation check. Each file
/// is parsed once; every stage reads that [`SourceFile`].
///
/// `all_rules` forces every rule in scope regardless of path (self-test).
/// Stale `rose-lint.toml` entries are only checked by [`lint_workspace`],
/// which sees the whole tree — a partial file set proves nothing about an
/// entry being dead.
pub fn lint_files(files: &[(String, String)], config: &Config, all_rules: bool) -> Vec<Diagnostic> {
    lint_files_inner(files, config, all_rules, false)
}

fn lint_files_inner(
    files: &[(String, String)],
    config: &Config,
    all_rules: bool,
    check_config_staleness: bool,
) -> Vec<Diagnostic> {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(rel, source)| SourceFile::parse(rel, source))
        .collect();
    let mut ctxs: Vec<FileCtx> = parsed
        .iter()
        .map(|file| {
            let (allows, ann) = parse_allows(&file.lexed.comments);
            FileCtx {
                allows,
                ann,
                raw: rules::run_rules(file, all_rules),
            }
        })
        .collect();

    // Tier W: one call graph over every in-scope file.
    let graph: Vec<usize> = (0..parsed.len())
        .filter(|&i| all_rules || wrules::in_graph_scope(&parsed[i].rel))
        .collect();
    let ws = Workspace::build(&graph.iter().map(|&i| &parsed[i]).collect::<Vec<_>>());
    for (ws_file, finding) in wrules::run_workspace_rules(&ws, all_rules) {
        ctxs[graph[ws_file]].raw.push(finding);
    }

    // Suppression + emission, tracking which allows earned their keep.
    let mut used_entries: BTreeSet<usize> = BTreeSet::new();
    let mut out: Vec<Diagnostic> = Vec::new();
    for (file, ctx) in parsed.iter().zip(&mut ctxs) {
        ctx.raw.sort_by_key(|f| (f.line, f.rule));
        for finding in ctx.ann.drain(..) {
            out.push(Diagnostic {
                file: file.rel.clone(),
                finding,
            });
        }
        let mut used_allows = vec![false; ctx.allows.len()];
        for finding in &ctx.raw {
            if let Some(entry) = config.match_allow(finding.rule, &file.rel) {
                used_entries.insert(entry);
                continue;
            }
            let suppressor = ctx.allows.iter().position(|a| {
                a.has_reason
                    && a.rule == finding.rule
                    && (finding.line == a.line || finding.line == a.line + 1)
            });
            if let Some(i) = suppressor {
                used_allows[i] = true;
                continue;
            }
            out.push(Diagnostic {
                file: file.rel.clone(),
                finding: finding.clone(),
            });
        }
        // ANN002 — a reasoned annotation that suppressed nothing is stale:
        // either the violation was fixed (delete the annotation) or the
        // annotation never matched (wrong rule / wrong line — fix it).
        // Annotations in test code guard code the rules never visit, so
        // they are exempt.
        if !config.is_allowed("ANN002", &file.rel) {
            for (i, a) in ctx.allows.iter().enumerate() {
                if a.has_reason
                    && !used_allows[i]
                    && !file.is_test_line(a.line)
                    && !file.is_test_line(a.line + 1)
                {
                    out.push(Diagnostic {
                        file: file.rel.clone(),
                        finding: Finding {
                            rule: "ANN002",
                            line: a.line,
                            message: format!(
                                "stale allow({rule}): no {rule} finding on this line \
                                 or the next — the violation is gone, so delete the \
                                 annotation",
                                rule = a.rule
                            ),
                        },
                    });
                }
            }
        }
    }

    // ANN002 for rose-lint.toml [allow] entries nothing matched.
    if check_config_staleness {
        for (idx, entry) in config.allow_entries().iter().enumerate() {
            if !used_entries.contains(&idx) {
                out.push(Diagnostic {
                    file: "rose-lint.toml".into(),
                    finding: Finding {
                        rule: "ANN002",
                        line: entry.line,
                        message: format!(
                            "stale [allow] entry {rule} = \"{prefix}\": no {rule} \
                             finding under that path — delete the entry",
                            rule = entry.rule,
                            prefix = entry.prefix
                        ),
                    },
                });
            }
        }
    }

    out.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.rule).cmp(&(&b.file, b.finding.line, b.finding.rule))
    });
    out
}

/// Lints one file's source text (single-file convenience over
/// [`lint_files`]; tier W sees only this file's call graph).
///
/// `rel_path` selects which rules are in scope (see
/// [`rules::applies_to`]); `all_rules` forces every rule in scope (used by
/// the self-test fixture). An annotation suppresses findings of its rule
/// on the annotation's own line and the line directly below it — and only
/// if it carries a reason.
pub fn lint_source(rel_path: &str, source: &str, config: &Config, all_rules: bool) -> Vec<Finding> {
    lint_files(
        &[(rel_path.to_string(), source.to_string())],
        config,
        all_rules,
    )
    .into_iter()
    .map(|d| d.finding)
    .collect()
}

/// The directories below the workspace root that are linted: the root
/// package's `src/` and every crate's `src/`. `target/`, `shims/` (stub
/// code for absent registry deps), tests, benches, and the lint fixtures
/// are all outside these roots by construction.
fn lint_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    roots
}

/// Recursively collects `.rs` files under `dir` into `out` (sorted set:
/// the lint's own output order must be deterministic, of course).
fn collect_rs(dir: &Path, out: &mut BTreeSet<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.insert(path);
        }
    }
}

/// Lints every source file in the workspace rooted at `root`, including
/// the ANN002 staleness check over `rose-lint.toml` `[allow]` entries.
///
/// # Errors
///
/// An unreadable source file is reported as an error string; findings are
/// never errors (they are the *output*).
pub fn lint_workspace(root: &Path, config: &Config) -> Result<Vec<Diagnostic>, String> {
    let mut paths = BTreeSet::new();
    for lint_root in lint_roots(root) {
        collect_rs(&lint_root, &mut paths);
    }
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        files.push((rel, source));
    }
    Ok(lint_files_inner(&files, config, false, true))
}

/// The seeded-violation fixture used by `--self-test` (and CI) to prove
/// the linter still detects every rule it claims to.
pub const SELF_TEST_FIXTURE: &str = include_str!("../fixtures/seeded.rs");

/// The companion fixture linted under a virtual `crates/rose-bridge/src/`
/// path, so the path-scoped interprocedural rules (PANIC002 roots) fire
/// in the self-test without touching the real bridge crate.
pub const SELF_TEST_BRIDGE_FIXTURE: &str = include_str!("../fixtures/seeded_bridge.rs");

/// Lints the embedded fixtures with every rule in scope and no allowlist.
/// The two files form one virtual workspace: `seeded_bridge.rs` sits on
/// the fault path and calls helpers defined in `seeded.rs`, which is how
/// the interprocedural rules get cross-file chains to flag.
pub fn lint_self_test_fixture() -> Vec<Diagnostic> {
    lint_files(
        &[
            (
                "crates/rose-lint/fixtures/seeded.rs".to_string(),
                SELF_TEST_FIXTURE.to_string(),
            ),
            (
                "crates/rose-bridge/src/seeded_bridge.rs".to_string(),
                SELF_TEST_BRIDGE_FIXTURE.to_string(),
            ),
        ],
        &Config::default(),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_with_reason_suppresses_own_and_next_line() {
        let src = "\
// rose-lint: allow(PANIC001, the tag was validated two lines up)
let v = x.unwrap();
let w = y.unwrap();
";
        let found = lint_source(
            "crates/rose-bridge/src/x.rs",
            src,
            &Config::default(),
            false,
        );
        // Line 2 suppressed; line 3 still fires.
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
        assert_eq!(found[0].rule, "PANIC001");
    }

    #[test]
    fn annotation_without_reason_does_not_suppress_and_is_flagged() {
        let src = "// rose-lint: allow(PANIC001)\nlet v = x.unwrap();\n";
        let found = lint_source(
            "crates/rose-bridge/src/x.rs",
            src,
            &Config::default(),
            false,
        );
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["ANN001", "PANIC001"]);
    }

    #[test]
    fn annotation_for_the_wrong_rule_does_not_suppress_and_goes_stale() {
        let src = "// rose-lint: allow(DET001, not the right rule)\nlet v = x.unwrap();\n";
        let found = lint_source(
            "crates/rose-bridge/src/x.rs",
            src,
            &Config::default(),
            false,
        );
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        // The unwrap fires (wrong rule), and the DET001 allow — suppressing
        // nothing — is itself stale.
        assert_eq!(rules, vec!["ANN002", "PANIC001"]);
    }

    #[test]
    fn malformed_annotation_is_flagged() {
        let src = "// rose-lint: alow(PANIC001, typo)\nlet a = 1;\n";
        let found = lint_source(
            "crates/rose-bridge/src/x.rs",
            src,
            &Config::default(),
            false,
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "ANN001");
    }

    #[test]
    fn config_allowlist_exempts_whole_files() {
        let config =
            Config::parse("[allow]\nDET001 = [\"crates/rose-bridge/src/sync.rs\"]\n").unwrap();
        let src = "let t = Instant::now();\n";
        assert!(lint_source("crates/rose-bridge/src/sync.rs", src, &config, false).is_empty());
        // Elsewhere the same read is one DET001 finding.
        let elsewhere = lint_source("crates/rose-bridge/src/other.rs", src, &config, false);
        let rules: Vec<&str> = elsewhere.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["DET001"]);
    }

    #[test]
    fn ann002_flags_a_used_up_annotation() {
        // The unwrap was fixed, the annotation lingers: stale.
        let src = "// rose-lint: allow(PANIC001, tag validated above)\nlet v = x;\n";
        let found = lint_source(
            "crates/rose-bridge/src/x.rs",
            src,
            &Config::default(),
            false,
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "ANN002");
        assert!(found[0].message.contains("PANIC001"));
    }

    #[test]
    fn ann002_spares_annotations_in_test_code() {
        // Rules never fire inside #[cfg(test)], so an annotation there is
        // documentation, not a stale suppression.
        let src = "#[cfg(test)]\nmod tests {\n // rose-lint: allow(PANIC001, test helper)\n fn t() { x.unwrap(); }\n}\n";
        let found = lint_source(
            "crates/rose-bridge/src/x.rs",
            src,
            &Config::default(),
            false,
        );
        assert!(found.is_empty(), "unexpected: {found:?}");
    }

    #[test]
    fn stale_toml_entries_are_flagged_in_workspace_mode() {
        let dir = std::env::temp_dir().join(format!(
            "rose-lint-stale-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let src_dir = dir.join("src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(src_dir.join("lib.rs"), "pub fn clean() -> u8 { 0 }\n").unwrap();
        let config = Config::parse("[allow]\nDET001 = [\"src/lib.rs\"]\n").unwrap();
        let found = lint_workspace(&dir, &config).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].file, "rose-lint.toml");
        assert_eq!(found[0].finding.rule, "ANN002");
        assert!(found[0].finding.message.contains("src/lib.rs"));
    }

    #[test]
    fn used_toml_entries_are_not_stale() {
        let dir = std::env::temp_dir().join(format!(
            "rose-lint-used-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let src_dir = dir.join("src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "pub fn t() -> Instant { Instant::now() }\n",
        )
        .unwrap();
        let config = Config::parse("[allow]\nDET001 = [\"src\"]\n").unwrap();
        let found = lint_workspace(&dir, &config).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(found.is_empty(), "unexpected: {found:?}");
    }

    #[test]
    fn self_test_fixture_findings_are_pinned() {
        // The exact (file, line, rule) rows, sorted: a rule that starts
        // firing twice on one line, or moves, shows up here.
        let found: Vec<(String, usize, &str)> = lint_self_test_fixture()
            .into_iter()
            .map(|d| (d.file, d.finding.line, d.finding.rule))
            .collect();
        let bridge = "crates/rose-bridge/src/seeded_bridge.rs";
        let seeded = "crates/rose-lint/fixtures/seeded.rs";
        let want: Vec<(String, usize, &str)> = [
            (bridge, 19, "FAULT001"),
            (bridge, 20, "FAULT001"),
            (seeded, 9, "DET002"),
            (seeded, 10, "DET001"),
            (seeded, 13, "DET001"),
            (seeded, 13, "DET003"),
            (seeded, 14, "CAST001"),
            (seeded, 20, "DET001"),
            (seeded, 24, "PANIC001"),
            (seeded, 27, "PANIC001"),
            (seeded, 32, "TRACE001"),
            (seeded, 39, "ANN001"),
            (seeded, 41, "PANIC001"),
            (seeded, 47, "SNAP001"),
            (seeded, 69, "PANIC001"),
            (seeded, 69, "PANIC002"),
            (seeded, 76, "SNAP002"),
            (seeded, 92, "ANN002"),
        ]
        .into_iter()
        .map(|(file, line, rule)| (file.to_string(), line, rule))
        .collect();
        assert_eq!(found, want);
    }

    #[test]
    fn self_test_fixture_trips_every_rule() {
        let findings = lint_self_test_fixture();
        for (rule, _, _) in ALL_RULES {
            assert!(
                findings.iter().any(|d| d.finding.rule == *rule),
                "fixture must contain a seeded {rule} violation; found {findings:?}"
            );
        }
        // And the fixture's negative half must NOT fire: the annotated
        // expect and the balanced span function are clean.
        assert!(
            !findings
                .iter()
                .any(|d| d.finding.rule == "PANIC001" && d.finding.message.contains("expect")),
            "the annotated expect() in the fixture must be suppressed"
        );
        // DET003 diagnostics carry the full entry-to-sink call chain.
        let det3 = findings
            .iter()
            .find(|d| d.finding.rule == "DET003")
            .expect("DET003 seeded");
        assert!(
            det3.finding.message.contains("Soc::step → "),
            "DET003 must print the call chain: {}",
            det3.finding.message
        );
        // PANIC002 lands at the out-of-root helper, with the chain from
        // the bridge fixture.
        let p2 = findings
            .iter()
            .find(|d| d.finding.rule == "PANIC002")
            .expect("PANIC002 seeded");
        assert_eq!(p2.file, "crates/rose-lint/fixtures/seeded.rs");
        assert!(p2.finding.message.contains("seeded_transport_recv"));
    }
}
