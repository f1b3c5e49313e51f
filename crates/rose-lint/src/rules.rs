//! The determinism & fault-safety rules.
//!
//! Each rule is a pure function over a lexed token stream plus a test-code
//! mask; rules know their own file scope (`applies_to`). The full contract
//! with rationale lives in `DESIGN.md` § "Determinism contract".

use crate::lexer::{Lexed, Tok, Token};

/// One lint finding, before allow-annotation filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`DET001`, ...).
    pub rule: &'static str,
    /// 1-based line of the violation.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Crates whose `src/` trees model simulated state — any data-dependent
/// iteration there must be deterministically ordered (DET002 scope).
pub const SIM_CRATES: &[&str] = &[
    "crates/sim-core/src",
    "crates/envsim/src",
    "crates/socsim/src",
    "crates/dnn/src",
    "crates/flightctl/src",
    "crates/rose/src",
    "crates/rose-bridge/src",
];

/// Files doing cycle/frame arithmetic, where a truncating `as` cast can
/// silently corrupt simulated time (CAST001 scope).
const CYCLE_ARITH_FILES: &[&str] = &[
    "crates/sim-core/src/cycles.rs",
    "crates/trace/src/clock.rs",
    "crates/rose-bridge/src/sync.rs",
    "crates/rose-bridge/src/packet.rs",
    "crates/rose-bridge/src/faults.rs",
    // The closed-form timing fast paths: all-cycle arithmetic with no
    // instruction stream to cross-check against, so a truncating cast
    // corrupts simulated time invisibly.
    "crates/socsim/src/gemmini.rs",
    "crates/socsim/src/kernel.rs",
    "crates/socsim/src/timing_cache.rs",
];

/// Paths where a panic is a protocol hole, not a programming aid: the
/// transport/bridge/synchronizer hot paths must latch faults instead
/// (PANIC001 scope).
pub const FAULT_PATH_PREFIXES: &[&str] =
    &["crates/rose-bridge/src", "crates/socsim/src/bridge.rs"];

/// Integer types an `as` cast can truncate or wrap into. `u128`/`i128`
/// (the sanctioned exact path) and float targets are exempt.
const TRUNCATING_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// All rule identifiers, in report order. Tier L rules run per file over
/// the token stream; tier W rules ([`crate::wrules`]) run over the
/// workspace call graph; ANN001/ANN002 run in the [`crate::lint_files`]
/// pipeline itself.
pub const ALL_RULES: &[&str] = &[
    "DET001", "DET002", "DET003", "PANIC001", "PANIC002", "FAULT001", "TRACE001", "CAST001",
    "SNAP001", "SNAP002", "ANN001", "ANN002", "PROF001",
];

/// The one module allowed to read host clocks directly: everything else
/// funnels wall time through its `Stopwatch`/`Profiler` API (PROF001).
const PROFILER_MODULE: &str = "crates/trace/src/profiler.rs";

/// True when `rel_path` equals a prefix or sits below it (path-component
/// boundary: `crates/rose/src` does not match `crates/rose/srcfoo.rs`).
pub fn path_in(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| {
        rel_path == *p
            || rel_path
                .strip_prefix(p)
                .is_some_and(|rest| rest.starts_with('/'))
    })
}

/// True when `rule` applies to `rel_path` at all (before config
/// allowlisting). `all_rules` forces every rule in scope (self-test).
pub fn applies_to(rule: &str, rel_path: &str, all_rules: bool) -> bool {
    if all_rules {
        return true;
    }
    match rule {
        "DET001" | "TRACE001" | "ANN001" => true,
        "PROF001" => rel_path != PROFILER_MODULE,
        "DET002" => path_in(rel_path, SIM_CRATES),
        "PANIC001" | "FAULT001" => path_in(rel_path, FAULT_PATH_PREFIXES),
        "CAST001" => CYCLE_ARITH_FILES.contains(&rel_path),
        "SNAP001" => path_in(rel_path, SIM_CRATES) || path_in(rel_path, &["crates/trace/src"]),
        _ => false,
    }
}

/// Computes, per token index, whether the token sits inside test-only
/// code: a `#[cfg(test)]` module body or a `#[test]` function body.
/// The determinism contract governs simulation logic; tests may use
/// wall-clock timeouts and `unwrap()` freely.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = match_test_attr(tokens, i) {
            // Find the body's opening brace (skipping the item header),
            // then mark the whole brace-balanced region.
            let mut j = attr_end;
            while j < tokens.len() && tokens[j].tok != Tok::Punct("{") {
                j += 1;
            }
            if j < tokens.len() {
                let mut depth = 0usize;
                let start = i;
                while j < tokens.len() {
                    match &tokens[j].tok {
                        Tok::Punct("{") => depth += 1,
                        Tok::Punct("}") => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                for m in mask.iter_mut().take(j.min(tokens.len() - 1) + 1).skip(start) {
                    *m = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Matches `#[cfg(test)]` or `#[test]` starting at `i`; returns the index
/// just past the closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.tok != Tok::Punct("#") || tokens.get(i + 1)?.tok != Tok::Punct("[") {
        return None;
    }
    match &tokens.get(i + 2)?.tok {
        Tok::Ident(s) if s == "test" => {
            (tokens.get(i + 3)?.tok == Tok::Punct("]")).then_some(i + 4)
        }
        Tok::Ident(s) if s == "cfg" => {
            let seq = [
                Tok::Punct("("),
                Tok::Ident("test".into()),
                Tok::Punct(")"),
                Tok::Punct("]"),
            ];
            for (k, want) in seq.iter().enumerate() {
                if &tokens.get(i + 3 + k)?.tok != want {
                    return None;
                }
            }
            Some(i + 7)
        }
        _ => None,
    }
}

fn ident(tok: &Token) -> Option<&str> {
    match &tok.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Runs every in-scope rule over one lexed file.
pub fn run_rules(rel_path: &str, lexed: &Lexed, all_rules: bool) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let mask = test_mask(tokens);
    let mut findings = Vec::new();

    let live = |i: usize| !mask[i];

    if applies_to("DET001", rel_path, all_rules) {
        findings.extend(det001(tokens, &live));
    }
    if applies_to("DET002", rel_path, all_rules) {
        findings.extend(det002(tokens, &live));
    }
    if applies_to("PANIC001", rel_path, all_rules) {
        findings.extend(panic001(tokens, &live));
    }
    if applies_to("FAULT001", rel_path, all_rules) {
        findings.extend(fault001(tokens, &live));
    }
    if applies_to("TRACE001", rel_path, all_rules) {
        findings.extend(trace001(tokens, &live));
    }
    if applies_to("CAST001", rel_path, all_rules) {
        findings.extend(cast001(tokens, &live));
    }
    if applies_to("SNAP001", rel_path, all_rules) {
        findings.extend(snap001(tokens, &live));
    }
    if applies_to("PROF001", rel_path, all_rules) {
        findings.extend(prof001(tokens, &live));
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// DET001 — no wall-clock reads in simulation logic. `Instant::now()` and
/// any use of `SystemTime` make behavior depend on host scheduling; the
/// whitelist (rose-lint.toml) covers the profiler's `Stopwatch`, whose
/// readings measure the *host*, by design.
fn det001(tokens: &[Token], live: &dyn Fn(usize) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !live(i) {
            continue;
        }
        if ident(&tokens[i]) == Some("Instant")
            && tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("::"))
            && tokens.get(i + 2).and_then(ident) == Some("now")
        {
            out.push(Finding {
                rule: "DET001",
                line: tokens[i].line,
                message: "wall-clock read (Instant::now) in simulation logic; \
                          derive time from cycles/frames, or whitelist the file \
                          in rose-lint.toml if it measures the host on purpose"
                    .into(),
            });
        }
        if ident(&tokens[i]) == Some("SystemTime") {
            out.push(Finding {
                rule: "DET001",
                line: tokens[i].line,
                message: "SystemTime in simulation logic; wall time is \
                          nondeterministic across runs"
                    .into(),
            });
        }
    }
    out
}

/// PROF001 — wall-clock reads funnel through the profiler. A direct
/// `Instant::now()` / `SystemTime::now()` call anywhere but
/// `crates/trace/src/profiler.rs` bypasses the one sanctioned wall-time
/// API (`rose_trace::Stopwatch` / `Profiler::time`) whose readings are
/// digest-excluded by construction (DESIGN.md §4f). Where DET001 guards
/// *determinism* of simulated state, PROF001 guards *attribution*: ad-hoc
/// timing never shows up in `--profile` and can leak into reports.
fn prof001(tokens: &[Token], live: &dyn Fn(usize) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !live(i) {
            continue;
        }
        if let Some(clock @ ("Instant" | "SystemTime")) = ident(&tokens[i]) {
            if tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("::"))
                && tokens.get(i + 2).and_then(ident) == Some("now")
            {
                out.push(Finding {
                    rule: "PROF001",
                    line: tokens[i].line,
                    message: format!(
                        "direct {clock}::now() outside the profiler module; route \
                         host timing through rose_trace::Stopwatch / Profiler::time \
                         so it stays digest-excluded, or whitelist the file in \
                         rose-lint.toml"
                    ),
                });
            }
        }
    }
    out
}

/// DET002 — no unordered maps in simulation state. `HashMap`/`HashSet`
/// iteration order varies with hasher seeding and insertion history;
/// draining one into stats, traces, or packets perturbs downstream bits.
/// `BTreeMap`/`BTreeSet` give the same ordering on every run.
fn det002(tokens: &[Token], live: &dyn Fn(usize) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if !live(i) {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = ident(token) {
            let replacement = if name == "HashMap" { "BTreeMap" } else { "BTreeSet" };
            out.push(Finding {
                rule: "DET002",
                line: token.line,
                message: format!(
                    "{name} in a simulation crate: iteration order is \
                     nondeterministic; use {replacement}"
                ),
            });
        }
    }
    out
}

/// PANIC001 — no panics on the transport/bridge/synchronizer hot paths.
/// A panic mid-quantum poisons the lockstep (the peer blocks forever on a
/// reply that never comes); faults must latch via `TransportError` /
/// `RtlSide::take_fault` so the mission winds down and reports.
fn panic001(tokens: &[Token], live: &dyn Fn(usize) -> bool) -> Vec<Finding> {
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !live(i) {
            continue;
        }
        // `.unwrap()` / `.expect(` method calls.
        if tokens[i].tok == Tok::Punct(".")
            && matches!(tokens.get(i + 1).and_then(ident), Some("unwrap") | Some("expect"))
            && tokens.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct("("))
        {
            let which = ident(&tokens[i + 1]).unwrap_or("unwrap");
            out.push(Finding {
                rule: "PANIC001",
                line: tokens[i + 1].line,
                message: format!(
                    ".{which}() on the fault path: a panic here deadlocks the \
                     lockstep peer; latch a TransportError instead, or annotate \
                     with // rose-lint: allow(PANIC001, reason)"
                ),
            });
        }
        // `panic!(` and friends.
        if let Some(name) = ident(&tokens[i]) {
            if MACROS.contains(&name)
                && tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("!"))
            {
                out.push(Finding {
                    rule: "PANIC001",
                    line: tokens[i].line,
                    message: format!(
                        "{name}! on the fault path: latch a TransportError \
                         instead, or annotate with // rose-lint: allow(PANIC001, reason)"
                    ),
                });
            }
        }
    }
    out
}

/// TRACE001 — paired spans stay paired. Within each function body the
/// number of `span_begin*` calls must equal the number of `span_end*`
/// calls; an unmatched begin corrupts the trace's span nesting for every
/// event that follows (and `TraceLog::unpaired_spans` will flag the run).
fn trace001(tokens: &[Token], live: &dyn Fn(usize) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ident(&tokens[i]) != Some("fn") {
            i += 1;
            continue;
        }
        let fn_line = tokens[i].line;
        let fn_name = tokens.get(i + 1).and_then(ident).unwrap_or("?").to_string();
        // Scan the signature for the body `{` or a bodiless `;`, tracking
        // bracket depth so `[u8; 4]` defaults don't end the signature.
        let mut j = i + 1;
        let mut depth = 0i32;
        let body_start = loop {
            match tokens.get(j).map(|t| &t.tok) {
                None => break None,
                Some(Tok::Punct("(")) | Some(Tok::Punct("[")) => depth += 1,
                Some(Tok::Punct(")")) | Some(Tok::Punct("]")) => depth -= 1,
                Some(Tok::Punct(";")) if depth == 0 => break None,
                Some(Tok::Punct("{")) if depth == 0 => break Some(j),
                _ => {}
            }
            j += 1;
        };
        let Some(body_start) = body_start else {
            i = j + 1;
            continue;
        };
        // Walk the brace-balanced body, counting span call sites.
        let mut begins = 0usize;
        let mut ends = 0usize;
        let mut brace = 0i32;
        let mut k = body_start;
        while k < tokens.len() {
            match &tokens[k].tok {
                Tok::Punct("{") => brace += 1,
                Tok::Punct("}") => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                Tok::Ident(name)
                    if live(k)
                        && tokens.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct("("))
                        && ident(&tokens[k - 1]) != Some("fn") =>
                {
                    if name.starts_with("span_begin") {
                        begins += 1;
                    } else if name.starts_with("span_end") {
                        ends += 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if begins != ends && live(i) {
            out.push(Finding {
                rule: "TRACE001",
                line: fn_line,
                message: format!(
                    "fn {fn_name} opens {begins} trace span(s) but closes {ends}; \
                     every span_begin* needs a matching span_end* on every path"
                ),
            });
        }
        i = k + 1;
    }
    out
}

/// CAST001 — no truncating `as` casts in cycle arithmetic. Simulated time
/// is u64 cycles; products like `frames * hz` overflow u64 at plausible
/// configs, so the sanctioned pattern widens through u128 and only
/// narrows after a bounds-checked divide (see `Clocks::cycles_for_frames`).
/// Casts to u128/i128 or floats are exempt; anything else needs an
/// annotation naming the invariant that makes it lossless.
fn cast001(tokens: &[Token], live: &dyn Fn(usize) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !live(i) {
            continue;
        }
        if ident(&tokens[i]) == Some("as") {
            if let Some(target) = tokens.get(i + 1).and_then(ident) {
                if TRUNCATING_TARGETS.contains(&target) {
                    out.push(Finding {
                        rule: "CAST001",
                        line: tokens[i].line,
                        message: format!(
                            "`as {target}` in cycle arithmetic can truncate; widen \
                             through u128 (see Clocks::cycles_for_frames) or annotate \
                             with // rose-lint: allow(CAST001, reason)"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// SNAP001 — no `..` rest patterns inside `save_state`/`restore_state`
/// bodies. The snapshot codec's "no hidden state" contract (DESIGN.md
/// §4e) requires every such function to destructure its struct
/// exhaustively, so that adding a field breaks the build until the author
/// decides whether it is dynamic state (serialize it) or structural
/// configuration (bind it to `_`). A `..` rest pattern — in a
/// destructuring `let Self { a, .. } = self;` or a functional update
/// `Config { a, ..Default::default() }` — silently swallows new fields,
/// which is exactly the bug class snapshots exist to prevent.
///
/// The lexer emits `..` as two adjacent `.` puncts; a pair preceded by
/// `{` or `,` is a rest pattern / functional update, while ranges
/// (`0..n`) follow a literal or identifier and are fine.
fn snap001(tokens: &[Token], live: &dyn Fn(usize) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ident(&tokens[i]) != Some("fn") {
            i += 1;
            continue;
        }
        let fn_name = tokens.get(i + 1).and_then(ident).unwrap_or("?").to_string();
        if fn_name != "save_state" && fn_name != "restore_state" {
            i += 1;
            continue;
        }
        // Find the body `{` (or a bodiless `;`), tracking bracket depth.
        let mut j = i + 1;
        let mut depth = 0i32;
        let body_start = loop {
            match tokens.get(j).map(|t| &t.tok) {
                None => break None,
                Some(Tok::Punct("(")) | Some(Tok::Punct("[")) => depth += 1,
                Some(Tok::Punct(")")) | Some(Tok::Punct("]")) => depth -= 1,
                Some(Tok::Punct(";")) if depth == 0 => break None,
                Some(Tok::Punct("{")) if depth == 0 => break Some(j),
                _ => {}
            }
            j += 1;
        };
        let Some(body_start) = body_start else {
            i = j + 1;
            continue;
        };
        // Walk the brace-balanced body flagging rest-pattern `..` pairs.
        let mut brace = 0i32;
        let mut k = body_start;
        while k < tokens.len() {
            match &tokens[k].tok {
                Tok::Punct("{") => brace += 1,
                Tok::Punct("}") => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                Tok::Punct(".")
                    if live(k)
                        && tokens.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct("."))
                        && matches!(
                            tokens.get(k - 1).map(|t| &t.tok),
                            Some(Tok::Punct("{")) | Some(Tok::Punct(","))
                        ) =>
                {
                    out.push(Finding {
                        rule: "SNAP001",
                        line: tokens[k].line,
                        message: format!(
                            "`..` rest pattern in fn {fn_name}: snapshot code must \
                             destructure exhaustively so new fields break the build \
                             (bind structural fields to `_`), or annotate with \
                             // rose-lint: allow(SNAP001, reason)"
                        ),
                    });
                    k += 2;
                    continue;
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
    out
}

/// FAULT001 — no discarded `send` results on the fault path. Since the
/// fault-injection engine landed, every `Transport::send` can legitimately
/// fail mid-mission; a call whose `Result` is dropped (a bare statement or
/// a `let _ =` binding) silently swallows the very error the recovery
/// machinery exists to absorb. Propagate with `?`, match on the error, or
/// annotate the deliberate fire-and-forget with a reasoned allow.
fn fault001(tokens: &[Token], live: &dyn Fn(usize) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !live(i) {
            continue;
        }
        // A method *call*: `.send(` — definitions (`fn send(`) and free
        // functions have no receiver dot and never match.
        if tokens[i].tok != Tok::Punct(".")
            || tokens.get(i + 1).and_then(ident) != Some("send")
            || tokens.get(i + 2).map(|t| &t.tok) != Some(&Tok::Punct("("))
        {
            continue;
        }
        // Walk to the call's matching close paren.
        let mut depth = 0usize;
        let mut j = i + 2;
        let close = loop {
            match tokens.get(j).map(|t| &t.tok) {
                None => break None,
                Some(Tok::Punct("(")) => depth += 1,
                Some(Tok::Punct(")")) => {
                    depth -= 1;
                    if depth == 0 {
                        break Some(j);
                    }
                }
                _ => {}
            }
            j += 1;
        };
        let Some(close) = close else { continue };
        // Anything but a statement-terminating `;` consumes the Result:
        // `?` propagates, `.` chains, a match/if scrutinee or tail
        // expression hands it to the caller, `,` makes it an arm value.
        if tokens.get(close + 1).map(|t| &t.tok) != Some(&Tok::Punct(";")) {
            continue;
        }
        // Walk back to the statement start and inspect the binding. A
        // `return`/`break` statement forwards the value; `let name =`
        // keeps it alive; `let _ =` and a bare expression statement drop
        // it on the floor.
        let mut s = i;
        while s > 0
            && !matches!(
                &tokens[s - 1].tok,
                Tok::Punct(";") | Tok::Punct("{") | Tok::Punct("}")
            )
        {
            s -= 1;
        }
        let discarded = match ident(&tokens[s]) {
            Some("let") => tokens.get(s + 1).and_then(ident) == Some("_"),
            Some("return") | Some("break") => false,
            _ => true,
        };
        if discarded {
            out.push(Finding {
                rule: "FAULT001",
                line: tokens[i + 1].line,
                message: "discarded Transport::send result on the fault path: a \
                          dropped error here bypasses retry/resync and latching; \
                          propagate with `?`, handle the Err, or annotate with \
                          // rose-lint: allow(FAULT001, reason)"
                    .to_owned(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(rule: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        run_rules("fixture.rs", &lexed, true)
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect()
    }

    // DET001 ---------------------------------------------------------------

    #[test]
    fn det001_flags_wall_clock() {
        assert_eq!(findings("DET001", "let t = Instant::now();").len(), 1);
        assert_eq!(
            findings("DET001", "let t = std::time::Instant::now();").len(),
            1
        );
        assert_eq!(findings("DET001", "use std::time::SystemTime;").len(), 1);
    }

    #[test]
    fn det001_ignores_the_event_kind_and_tests() {
        // `EventKind::Instant` is an enum variant, not a clock read.
        assert!(findings("DET001", "let k = EventKind::Instant;").is_empty());
        assert!(findings("DET001", "started: Instant,").is_empty());
        assert!(findings(
            "DET001",
            "#[cfg(test)]\nmod tests {\n fn t() { let x = Instant::now(); }\n}"
        )
        .is_empty());
    }

    // PROF001 --------------------------------------------------------------

    #[test]
    fn prof001_flags_direct_clock_reads() {
        assert_eq!(findings("PROF001", "let t = Instant::now();").len(), 1);
        assert_eq!(
            findings("PROF001", "let t = std::time::Instant::now();").len(),
            1
        );
        assert_eq!(findings("PROF001", "let t = SystemTime::now();").len(), 1);
    }

    #[test]
    fn prof001_ignores_types_annotations_and_tests() {
        // Naming the type (fields, signatures, imports) is fine; only the
        // clock *read* must go through the profiler.
        assert!(findings("PROF001", "started: Instant,").is_empty());
        assert!(findings("PROF001", "use std::time::SystemTime;").is_empty());
        assert!(findings("PROF001", "fn at(&self) -> Instant { self.0 }").is_empty());
        assert!(findings(
            "PROF001",
            "#[cfg(test)]\nmod tests {\n fn t() { let x = Instant::now(); }\n}"
        )
        .is_empty());
    }

    // DET002 ---------------------------------------------------------------

    #[test]
    fn det002_flags_unordered_maps() {
        assert_eq!(
            findings("DET002", "use std::collections::HashMap;").len(),
            1
        );
        assert_eq!(findings("DET002", "let s: HashSet<u32> = x;").len(), 1);
    }

    #[test]
    fn det002_accepts_btree_and_comments() {
        assert!(findings("DET002", "use std::collections::BTreeMap;").is_empty());
        assert!(findings("DET002", "// a HashMap here would be wrong").is_empty());
        assert!(findings("DET002", r#"let s = "HashMap";"#).is_empty());
    }

    // PANIC001 -------------------------------------------------------------

    #[test]
    fn panic001_flags_panic_family() {
        assert_eq!(findings("PANIC001", "let v = rx.recv().unwrap();").len(), 1);
        assert_eq!(findings("PANIC001", "let v = x.expect(\"boom\");").len(), 1);
        assert_eq!(findings("PANIC001", "panic!(\"bad packet\");").len(), 1);
        assert_eq!(findings("PANIC001", "_ => unreachable!(),").len(), 1);
        assert_eq!(findings("PANIC001", "todo!()").len(), 1);
    }

    #[test]
    fn panic001_ignores_tests_and_lookalikes() {
        assert!(findings(
            "PANIC001",
            "#[test]\nfn roundtrip() { decode(&b).unwrap(); }"
        )
        .is_empty());
        // `unwrap_or_else` is a different method; a lexer knows that, a
        // substring grep would not.
        assert!(findings("PANIC001", "worker.join().unwrap_or_else(|c| c);").is_empty());
        assert!(findings("PANIC001", "let unwrap = 3; f(unwrap);").is_empty());
    }

    // FAULT001 -------------------------------------------------------------

    #[test]
    fn fault001_flags_discarded_send_results() {
        // A bare statement drops the Result on the floor...
        let found = findings("FAULT001", "fn f(t: &mut T) {\n t.send(&p);\n}");
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("discarded"));
        // ...and `let _ =` is the same discard with extra ceremony.
        assert_eq!(
            findings("FAULT001", "let _ = self.transport.send(&packet);").len(),
            1
        );
        // Nested call arguments don't confuse the paren walk.
        assert_eq!(
            findings("FAULT001", "self.inner.send(&frame(seq, payload.clone()));").len(),
            1
        );
    }

    #[test]
    fn fault001_accepts_consumed_results() {
        // `?` propagates, which is the sanctioned pattern.
        assert!(findings("FAULT001", "self.transport.send(&packet)?;").is_empty());
        // Binding keeps the Result alive for later handling.
        assert!(findings("FAULT001", "let r = t.send(&p);\nr?;").is_empty());
        // Matching on it is handling it.
        assert!(findings(
            "FAULT001",
            "match t.send(&p) {\n Ok(()) => {}\n Err(e) => latch(e),\n}"
        )
        .is_empty());
        // Tail position hands the Result to the caller.
        assert!(findings(
            "FAULT001",
            "fn shutdown(mut self) -> Result<(), E> {\n self.transport.send(&Packet::Shutdown)\n}"
        )
        .is_empty());
        assert!(findings("FAULT001", "return t.send(&p);").is_empty());
        // Chaining consumes it (whatever the chain then does is visible).
        assert!(findings("FAULT001", "t.send(&p).unwrap();").is_empty());
        // A channel send in a test is out of scope via the test mask.
        assert!(findings(
            "FAULT001",
            "#[cfg(test)]\nmod tests {\n fn t() { tx.send(&p); }\n}"
        )
        .is_empty());
        // `send` as a field or definition, not a method call.
        assert!(findings("FAULT001", "fn send(&mut self, p: &Packet) {}").is_empty());
    }

    // TRACE001 -------------------------------------------------------------

    #[test]
    fn trace001_flags_unbalanced_spans() {
        let found = findings(
            "TRACE001",
            "fn run(&mut self) {\n tracer.span_begin_cycles(t, \"x\", c, vec![]);\n work();\n}",
        );
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("opens 1"));
    }

    #[test]
    fn trace001_accepts_balanced_spans_and_definitions() {
        assert!(findings(
            "TRACE001",
            "fn run(&mut self) {\n t.span_begin_cycles(a, b, c, vec![]);\n work();\n t.span_end_cycles(a, b, c);\n}"
        )
        .is_empty());
        // The tracer's own method definitions are signatures, not calls.
        assert!(findings(
            "TRACE001",
            "impl Tracer {\n pub fn span_begin_cycles(&mut self, t: Track) { self.push(t); }\n}"
        )
        .is_empty());
    }

    // CAST001 --------------------------------------------------------------

    #[test]
    fn cast001_flags_truncating_casts() {
        assert_eq!(findings("CAST001", "let c = (f * hz) as u64;").len(), 1);
        assert_eq!(findings("CAST001", "let n = big as u32;").len(), 1);
        assert_eq!(findings("CAST001", "let n = big as usize;").len(), 1);
    }

    #[test]
    fn cast001_exempts_widening_to_u128_and_floats() {
        assert!(findings("CAST001", "let w = n as u128 * hz as u128;").is_empty());
        assert!(findings("CAST001", "let r = cycles as f64;").is_empty());
        // `as` in a use-rename is not a cast target in the truncating set.
        assert!(findings("CAST001", "use foo::Bar as Baz;").is_empty());
    }

    // SNAP001 --------------------------------------------------------------

    #[test]
    fn snap001_flags_rest_patterns_in_snapshot_fns() {
        let rest = "pub fn save_state(&self, w: &mut SnapWriter) {\n let Self { a, .. } = self;\n w.u64(*a);\n}";
        let found = findings("SNAP001", rest);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("save_state"));

        let update = "fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {\n self.stats = Stats { syncs: r.u64()?, ..Stats::default() };\n Ok(())\n}";
        assert_eq!(findings("SNAP001", update).len(), 1);
    }

    #[test]
    fn snap001_accepts_ranges_and_exhaustive_destructuring() {
        // Range loops are the codec's bread and butter, not rest patterns.
        let ranges = "fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {\n for _ in 0..r.usize()? {\n  self.q.push(r.bytes()?);\n }\n Ok(())\n}";
        assert!(findings("SNAP001", ranges).is_empty());

        let exhaustive = "fn save_state(&self, w: &mut SnapWriter) {\n let Self { a, b, config: _ } = self;\n w.u64(*a);\n w.bool(*b);\n}";
        assert!(findings("SNAP001", exhaustive).is_empty());

        // `..` anywhere outside save_state/restore_state is out of scope.
        let elsewhere = "fn rebuild(&self) -> Config {\n Config { name: x, ..Config::default() }\n}";
        assert!(findings("SNAP001", elsewhere).is_empty());
    }

    // Scope ----------------------------------------------------------------

    #[test]
    fn rules_respect_file_scope() {
        assert!(applies_to("DET001", "crates/envsim/src/world.rs", false));
        assert!(applies_to("DET002", "crates/socsim/src/soc.rs", false));
        assert!(!applies_to("DET002", "crates/bench/src/lib.rs", false));
        assert!(applies_to("PANIC001", "crates/rose-bridge/src/sync.rs", false));
        assert!(applies_to("PANIC001", "crates/socsim/src/bridge.rs", false));
        assert!(!applies_to("PANIC001", "crates/socsim/src/soc.rs", false));
        assert!(applies_to("FAULT001", "crates/rose-bridge/src/faults.rs", false));
        assert!(applies_to("FAULT001", "crates/socsim/src/bridge.rs", false));
        assert!(!applies_to("FAULT001", "crates/rose/src/mission.rs", false));
        assert!(applies_to("CAST001", "crates/sim-core/src/cycles.rs", false));
        assert!(!applies_to("CAST001", "crates/sim-core/src/rng.rs", false));
        assert!(applies_to("CAST001", "crates/sim-core/src/rng.rs", true));
        assert!(applies_to("SNAP001", "crates/socsim/src/soc.rs", false));
        assert!(applies_to("SNAP001", "crates/trace/src/tracer.rs", false));
        assert!(!applies_to("SNAP001", "crates/bench/src/lib.rs", false));
        assert!(applies_to("PROF001", "crates/rose-bridge/src/sync.rs", false));
        assert!(applies_to("PROF001", "crates/bench/src/lib.rs", false));
        assert!(!applies_to("PROF001", "crates/trace/src/profiler.rs", false));
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let lexed = lex("fn live() {}\n#[cfg(test)]\nmod tests {\n fn a() { x.unwrap(); }\n}\nfn also_live() {}");
        let mask = test_mask(&lexed.tokens);
        let live_idents: Vec<&str> = lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| !mask[*i] && matches!(t.tok, Tok::Ident(_)))
            .map(|(_, t)| match &t.tok {
                Tok::Ident(s) => s.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(live_idents, vec!["fn", "live", "fn", "also_live"]);
    }
}
