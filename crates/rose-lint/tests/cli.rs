//! Pins the rose-lint exit-code contract end to end, through the real
//! binary:
//!
//! | code | meaning                                         |
//! |------|-------------------------------------------------|
//! | 0    | clean                                           |
//! | 1    | findings                                        |
//! | 2    | usage / IO / config error, or broken self-test  |
//!
//! CI relies on 1 vs 2 to tell "the lint found a bug" apart from "the
//! lint could not run".

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rose-lint")
}

fn run(args: &[&str], cwd: &Path) -> Output {
    Command::new(bin())
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn rose-lint")
}

/// A scratch workspace root with one source file; removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn with_source(tag: &str, source: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!(
            "rose-lint-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), source).unwrap();
        Scratch { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        std::fs::write(self.root.join(rel), contents).unwrap();
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

#[test]
fn exit_0_on_a_clean_tree() {
    let ws = Scratch::with_source("clean", "pub fn tidy() -> u8 { 0 }\n");
    let out = run(&["--root", "."], &ws.root);
    assert_eq!(out.status.code(), Some(0), "stderr: {:?}", out.stderr);
}

#[test]
fn exit_1_on_findings() {
    let ws = Scratch::with_source("dirty", "pub fn t() -> Instant { Instant::now() }\n");
    let out = run(&["--root", "."], &ws.root);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DET001"), "stdout: {stdout}");
}

#[test]
fn exit_2_on_bad_usage() {
    let ws = Scratch::with_source("usage", "pub fn tidy() {}\n");
    assert_eq!(run(&["--bogus-flag"], &ws.root).status.code(), Some(2));
    assert_eq!(
        run(&["--format", "yaml"], &ws.root).status.code(),
        Some(2),
        "unknown format is a usage error"
    );
    assert_eq!(
        run(&["--format"], &ws.root).status.code(),
        Some(2),
        "missing format value is a usage error"
    );
}

#[test]
fn exit_2_on_a_malformed_config() {
    let ws = Scratch::with_source("badconfig", "pub fn tidy() {}\n");
    ws.write("rose-lint.toml", "[allow\nDET001 = nope\n");
    let out = run(&["--root", "."], &ws.root);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rose-lint.toml"), "stderr: {stderr}");
}

#[test]
fn exit_2_on_a_rule_tuning_section() {
    // `[allow]` is the only section: a `[rule.X]` tuning table stops the
    // lint and names its line.
    let ws = Scratch::with_source("rulesection", "pub fn tidy() {}\n");
    ws.write(
        "rose-lint.toml",
        "[allow]\n\n[rule.DET003]\nentry_points = [\"Soc::step\"]\n",
    );
    let out = run(&["--root", "."], &ws.root);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rose-lint.toml:3: unknown section [rule.DET003]"),
        "stderr: {stderr}"
    );
}

#[test]
fn list_rules_prints_the_rule_table() {
    let ws = Scratch::with_source("listrules", "pub fn tidy() {}\n");
    let out = run(&["--list-rules"], &ws.root);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (rule, _, summary) in rose_lint::ALL_RULES {
        assert!(
            stdout.contains(rule) && stdout.contains(summary),
            "{rule}: {stdout}"
        );
    }
}

#[test]
fn self_test_exits_1_with_every_rule_firing() {
    let ws = Scratch::with_source("selftest", "pub fn tidy() {}\n");
    let out = run(&["--self-test"], &ws.root);
    // 1, not 2: every registered rule fired on the seeded fixtures (a 2
    // would mean the linter itself is broken).
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (rule, _, _) in rose_lint::ALL_RULES {
        assert!(
            stderr.contains(&format!("self-test: {rule} fired")),
            "{rule} missing from self-test report: {stderr}"
        );
    }
}

#[test]
fn json_format_emits_parseable_output_with_findings() {
    let ws = Scratch::with_source("json", "pub fn t() -> Instant { Instant::now() }\n");
    let out = run(&["--root", ".", "--format", "json"], &ws.root);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = rose_trace::json::parse(&stdout).expect("stdout must be one JSON document");
    let count = doc.get("count").and_then(|c| c.as_f64()).unwrap() as usize;
    let findings = doc.get("findings").and_then(|f| f.as_array()).unwrap();
    assert_eq!(findings.len(), count);
    assert!(count >= 1);

    // Clean tree: still valid JSON, count 0, exit 0.
    let clean = Scratch::with_source("jsonclean", "pub fn tidy() {}\n");
    let out = run(&["--root", ".", "--format", "json"], &clean.root);
    assert_eq!(out.status.code(), Some(0));
    let doc = rose_trace::json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("count").and_then(|c| c.as_f64()), Some(0.0));
}

#[test]
fn github_format_emits_error_annotations() {
    let ws = Scratch::with_source("github", "pub fn t() -> Instant { Instant::now() }\n");
    let out = run(&["--root", ".", "--format", "github"], &ws.root);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().all(|l| l.starts_with("::error file=")),
        "every finding line is a workflow command: {stdout}"
    );
    assert!(stdout.contains("file=src/lib.rs,line=1,title=rose-lint DET001::"));
}
