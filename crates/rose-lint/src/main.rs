//! The rose-lint command line.
//!
//! ```text
//! rose-lint [--root DIR] [--config FILE] [--format text|json|github]
//!           [--self-test] [--list-rules]
//! ```
//!
//! * default: lint the workspace at `--root` (default `.`, which is the
//!   workspace root under `cargo run -p rose-lint`), honoring the
//!   `rose-lint.toml` allowlist.
//! * `--format`: `text` (default, `file:line: RULE message`), `json` (one
//!   document with `count` + `findings`), or `github` (GitHub Actions
//!   `::error` commands, so CI findings annotate the PR diff).
//! * `--self-test`: lint the embedded seeded-violation fixtures with every
//!   rule in scope. Exits 1 when every registered rule fired (the expected
//!   outcome, which CI asserts as a non-zero exit), 2 if any rule failed
//!   to fire (the linter itself is broken).
//! * `--list-rules`: print every rule's id, tier and summary (the
//!   [`ALL_RULES`] table) and exit 0.
//!
//! # Exit-code contract
//!
//! | code | meaning                                                     |
//! |------|-------------------------------------------------------------|
//! | 0    | clean: the lint ran and found nothing                       |
//! | 1    | findings: the lint ran and reported at least one violation  |
//! | 2    | broken: bad usage, unreadable file/config, or a self-test   |
//! |      | in which a registered rule failed to fire                   |
//!
//! CI distinguishes "the lint found a bug" (1) from "the lint could not
//! do its job" (2); conflating them would let an IO error masquerade as a
//! finding. The contract is pinned by `tests/cli.rs`.

use rose_lint::{lint_self_test_fixture, lint_workspace, output, Config, Format, ALL_RULES};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: rose-lint [--root DIR] [--config FILE] [--format text|json|github] \
         [--self-test] [--list-rules]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut self_test = false;
    let mut list_rules = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().unwrap_or_else(|| usage()).into(),
            "--config" => config_path = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--format" => {
                let value = it.next().unwrap_or_else(|| usage());
                format = Format::parse(&value).unwrap_or_else(|| usage());
            }
            "--self-test" => self_test = true,
            "--list-rules" => list_rules = true,
            _ => usage(),
        }
    }

    if list_rules {
        println!("tiers: L per file, W workspace call graph, A allow annotations");
        for (id, tier, summary) in ALL_RULES {
            println!("  {id:<8} {tier}  {summary}");
        }
        return ExitCode::SUCCESS;
    }

    if self_test {
        let diagnostics = lint_self_test_fixture();
        print!("{}", output::render(&diagnostics, format));
        let mut broken = false;
        for (rule, _, _) in ALL_RULES {
            let hits = diagnostics
                .iter()
                .filter(|d| d.finding.rule == *rule)
                .count();
            if hits == 0 {
                eprintln!("self-test BROKEN: rule {rule} did not fire on the seeded fixture");
                broken = true;
            } else {
                eprintln!("self-test: {rule} fired {hits}x");
            }
        }
        if broken {
            return ExitCode::from(2);
        }
        eprintln!(
            "self-test: all {} rules detected their seeded violations \
             (exiting non-zero, as a lint of this fixture must)",
            ALL_RULES.len()
        );
        return ExitCode::FAILURE;
    }

    let config_path = config_path.unwrap_or_else(|| root.join("rose-lint.toml"));
    let config = match Config::load(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match lint_workspace(&root, &config) {
        Ok(diagnostics) if diagnostics.is_empty() => {
            if format == Format::Json {
                print!("{}", output::render(&diagnostics, format));
            } else {
                eprintln!("rose-lint: workspace clean");
            }
            ExitCode::SUCCESS
        }
        Ok(diagnostics) => {
            print!("{}", output::render(&diagnostics, format));
            eprintln!("rose-lint: {} violation(s)", diagnostics.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
