//! The tier L rules: one file at a time.
//!
//! Each rule is a pure function over one [`SourceFile`] — its token
//! stream, test-code mask and parsed items; rules know their own file
//! scope (`applies_to`). The full contract with rationale lives in
//! `DESIGN.md` § "Determinism contract".

use crate::ast::SourceFile;
use crate::lexer::{Tok, Token};

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
/// (PANIC001 scope, and PANIC002's roots).
pub const FAULT_PATH_PREFIXES: &[&str] = &["crates/rose-bridge/src", "crates/socsim/src/bridge.rs"];

/// Panicking macros (PANIC001's and PANIC002's `name!` sites).
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Integer types an `as` cast can truncate or wrap into. `u128`/`i128`
/// (the sanctioned exact path) and float targets are exempt.
const TRUNCATING_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// Every rule as `(id, tier, summary)`, in report order. Tier L rules run
/// per file ([`run_rules`]); tier W rules ([`crate::wrules`]) run over the
/// workspace call graph; tier A (annotation) rules run in the
/// [`crate::lint_files`] pipeline itself. `--list-rules` prints this
/// table and `--self-test` demands a finding for every row.
#[rustfmt::skip]
pub const ALL_RULES: &[(&str, char, &str)] = &[
    ("DET001", 'L', "wall-clock read (`Instant::now`, `SystemTime`) outside the profiler's Stopwatch"),
    ("DET002", 'L', "`HashMap`/`HashSet` in a simulation crate (use `BTreeMap`/`BTreeSet`)"),
    ("DET003", 'W', "wall clock, entropy RNG or unordered map reachable from a sim entry point"),
    ("PANIC001", 'L', "`unwrap`/`expect`/`panic!` on the transport/bridge fault path"),
    ("PANIC002", 'W', "panic site reachable from the transport/bridge fault path"),
    ("FAULT001", 'L', "discarded `Transport::send` result on the fault path"),
    ("TRACE001", 'L', "a function whose `span_begin*` and `span_end*` call counts differ"),
    ("CAST001", 'L', "truncating `as` cast in cycle arithmetic (widen through u128)"),
    ("SNAP001", 'L', "`..` rest pattern in a `save_state`/`restore_state` body"),
    ("SNAP002", 'W', "struct field absent from both `save_state` and `restore_state`"),
    ("ANN001", 'A', "malformed or reasonless `rose-lint: allow` annotation"),
    ("ANN002", 'A', "stale allow: an annotation or rose-lint.toml entry suppressing nothing"),
];

/// True when `rel_path` equals one of `prefixes` or sits below one
/// (path-component boundary: `crates/rose/src` does not match
/// `crates/rose/srcfoo.rs`; a trailing `/` on a prefix is ignored).
pub fn path_in(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| {
        let p = p.trim_end_matches('/');
        rel_path == p
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
        "DET001" | "TRACE001" => true,
        "DET002" => path_in(rel_path, SIM_CRATES),
        "PANIC001" | "FAULT001" => path_in(rel_path, FAULT_PATH_PREFIXES),
        "CAST001" => path_in(rel_path, CYCLE_ARITH_FILES),
        "SNAP001" | "SNAP002" => {
            path_in(rel_path, SIM_CRATES) || path_in(rel_path, &["crates/trace/src"])
        }
        _ => false,
    }
}

fn ident(tok: &Token) -> Option<&str> {
    match &tok.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// One tier L rule: its id and check.
type Check = (&'static str, fn(&SourceFile) -> Vec<Finding>);

/// Runs every in-scope tier L rule over one file.
pub fn run_rules(file: &SourceFile, all_rules: bool) -> Vec<Finding> {
    const CHECKS: [Check; 7] = [
        ("DET001", det001),
        ("DET002", det002),
        ("PANIC001", panic001),
        ("FAULT001", fault001),
        ("TRACE001", trace001),
        ("CAST001", cast001),
        ("SNAP001", snap001),
    ];
    let mut findings = Vec::new();
    for (rule, check) in CHECKS {
        if applies_to(rule, &file.rel, all_rules) {
            findings.extend(check(file));
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// The indices of `file`'s tokens outside test-only code.
fn live(file: &SourceFile) -> impl Iterator<Item = usize> + '_ {
    (0..file.mask.len()).filter(|&i| !file.mask[i])
}

/// DET001 — no wall-clock reads outside the profiler. `Instant::now()`
/// and any use of `SystemTime` make behavior depend on host scheduling.
/// Host timing goes through `rose_trace::Stopwatch`, whose readings are
/// digest-excluded by construction (DESIGN.md §4f) and show up in
/// `--profile`; rose-lint.toml exempts that one module.
fn det001(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for i in live(file) {
        let what = match ident(&tokens[i]) {
            Some("Instant")
                if tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct("::"))
                    && tokens.get(i + 2).and_then(ident) == Some("now") =>
            {
                "wall-clock read (Instant::now)"
            }
            Some("SystemTime") => "SystemTime",
            _ => continue,
        };
        out.push(Finding {
            rule: "DET001",
            line: tokens[i].line,
            message: format!(
                "{what} outside the profiler: wall time is nondeterministic \
                 across runs; derive simulated time from cycles/frames, route \
                 host timing through rose_trace::Stopwatch so it stays \
                 digest-excluded, or whitelist the file in rose-lint.toml"
            ),
        });
    }
    out
}

/// DET002 — no unordered maps in simulation state. `HashMap`/`HashSet`
/// iteration order varies with hasher seeding and insertion history;
/// draining one into stats, traces, or packets perturbs downstream bits.
/// `BTreeMap`/`BTreeSet` give the same ordering on every run.
fn det002(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for i in live(file) {
        if let Some(name @ ("HashMap" | "HashSet")) = ident(&tokens[i]) {
            let replacement = if name == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(Finding {
                rule: "DET002",
                line: tokens[i].line,
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
fn panic001(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for i in live(file) {
        // `.unwrap()` / `.expect(` method calls.
        if tokens[i].tok == Tok::Punct(".")
            && matches!(
                tokens.get(i + 1).and_then(ident),
                Some("unwrap") | Some("expect")
            )
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
            if PANIC_MACROS.contains(&name)
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
fn trace001(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for f in file.ast.fns.iter().filter(|f| !f.is_test) {
        let Some((open, end)) = f.body else {
            continue;
        };
        let mut begins = 0usize;
        let mut ends = 0usize;
        for k in open..end {
            if let Tok::Ident(name) = &tokens[k].tok {
                if !file.mask[k]
                    && tokens.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct("("))
                    && ident(&tokens[k - 1]) != Some("fn")
                {
                    if name.starts_with("span_begin") {
                        begins += 1;
                    } else if name.starts_with("span_end") {
                        ends += 1;
                    }
                }
            }
        }
        if begins != ends {
            out.push(Finding {
                rule: "TRACE001",
                line: f.line,
                message: format!(
                    "fn {} opens {begins} trace span(s) but closes {ends}; \
                     every span_begin* needs a matching span_end* on every path",
                    f.name
                ),
            });
        }
    }
    out
}

/// CAST001 — no truncating `as` casts in cycle arithmetic. Simulated time
/// is u64 cycles; products like `frames * hz` overflow u64 at plausible
/// configs, so the sanctioned pattern widens through u128 and only
/// narrows after a bounds-checked divide (see `Clocks::cycles_for_frames`).
/// Casts to u128/i128 or floats are exempt; anything else needs an
/// annotation naming the invariant that makes it lossless.
fn cast001(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for i in live(file) {
        if ident(&tokens[i]) != Some("as") {
            continue;
        }
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
fn snap001(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for f in &file.ast.fns {
        let Some((open, end)) = f.body else {
            continue;
        };
        if f.name != "save_state" && f.name != "restore_state" {
            continue;
        }
        let mut k = open;
        while k < end {
            if tokens[k].tok == Tok::Punct(".")
                && !file.mask[k]
                && tokens.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct("."))
                && matches!(tokens[k - 1].tok, Tok::Punct("{") | Tok::Punct(","))
            {
                out.push(Finding {
                    rule: "SNAP001",
                    line: tokens[k].line,
                    message: format!(
                        "`..` rest pattern in fn {}: snapshot code must \
                         destructure exhaustively so new fields break the build \
                         (bind structural fields to `_`), or annotate with \
                         // rose-lint: allow(SNAP001, reason)",
                        f.name
                    ),
                });
                k += 2;
            } else {
                k += 1;
            }
        }
    }
    out
}

/// FAULT001 — no discarded `send` results on the fault path. Since the
/// fault-injection engine landed, every `Transport::send` can legitimately
/// fail mid-mission; a call whose `Result` is dropped (a bare statement or
/// a `let _ =` binding) silently swallows the very error the recovery
/// machinery exists to absorb. Propagate with `?`, match on the error, or
/// annotate the deliberate fire-and-forget with a reasoned allow.
fn fault001(file: &SourceFile) -> Vec<Finding> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for i in live(file) {
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

    fn findings(rule: &str, src: &str) -> Vec<Finding> {
        run_rules(&SourceFile::parse("fixture.rs", src), true)
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
        assert_eq!(findings("DET001", "let t = SystemTime::now();").len(), 1);
        assert_eq!(findings("DET001", "use std::time::SystemTime;").len(), 1);
        // The advice names the sanctioned wall-time API.
        let found = findings("DET001", "let t = Instant::now();");
        assert!(found[0].message.contains("rose_trace::Stopwatch"));
    }

    #[test]
    fn det001_ignores_the_event_kind_and_tests() {
        // `EventKind::Instant` is an enum variant, not a clock read, and
        // naming the `Instant` type (fields, signatures) reads no clock.
        assert!(findings("DET001", "let k = EventKind::Instant;").is_empty());
        assert!(findings("DET001", "started: Instant,").is_empty());
        assert!(findings("DET001", "fn at(&self) -> Instant { self.0 }").is_empty());
        assert!(findings(
            "DET001",
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
        let elsewhere =
            "fn rebuild(&self) -> Config {\n Config { name: x, ..Config::default() }\n}";
        assert!(findings("SNAP001", elsewhere).is_empty());
    }

    // Scope ----------------------------------------------------------------

    #[test]
    fn rules_respect_file_scope() {
        assert!(applies_to("DET001", "crates/envsim/src/world.rs", false));
        assert!(applies_to("DET002", "crates/socsim/src/soc.rs", false));
        assert!(!applies_to("DET002", "crates/bench/src/lib.rs", false));
        assert!(applies_to(
            "PANIC001",
            "crates/rose-bridge/src/sync.rs",
            false
        ));
        assert!(applies_to("PANIC001", "crates/socsim/src/bridge.rs", false));
        assert!(!applies_to("PANIC001", "crates/socsim/src/soc.rs", false));
        assert!(applies_to(
            "FAULT001",
            "crates/rose-bridge/src/faults.rs",
            false
        ));
        assert!(applies_to("FAULT001", "crates/socsim/src/bridge.rs", false));
        assert!(!applies_to("FAULT001", "crates/rose/src/mission.rs", false));
        assert!(applies_to(
            "CAST001",
            "crates/sim-core/src/cycles.rs",
            false
        ));
        assert!(!applies_to("CAST001", "crates/sim-core/src/rng.rs", false));
        assert!(applies_to("CAST001", "crates/sim-core/src/rng.rs", true));
        assert!(applies_to("SNAP001", "crates/socsim/src/soc.rs", false));
        assert!(applies_to("SNAP001", "crates/trace/src/tracer.rs", false));
        assert!(!applies_to("SNAP001", "crates/bench/src/lib.rs", false));
        assert!(applies_to("SNAP002", "crates/trace/src/tracer.rs", false));
        assert!(!applies_to("SNAP002", "crates/bench/src/lib.rs", false));
    }
}
