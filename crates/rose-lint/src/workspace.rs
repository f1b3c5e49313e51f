//! Tier W's workspace model: symbol table, sinks, and the conservative
//! call graph.
//!
//! Resolution is **name-based and over-approximating** — the linter has no
//! type inference, so it errs toward extra edges rather than missed ones:
//!
//! - `.method(...)` receiver calls resolve to *every* workspace function
//!   with that name and a `self` receiver, in any `impl` or trait. Free
//!   and associated functions (no receiver) cannot be called this way, so
//!   a std method such as `RangeInclusive::start` never reaches a
//!   workspace `fn start(config: &Config)`.
//! - `Type::method(...)` path calls resolve precisely when `Type` names a
//!   known `impl`/`trait` block (`Self::` uses the enclosing block), and
//!   fall back to every function with that name otherwise.
//! - Bare `helper(...)` calls resolve to free functions with that name.
//! - A `Type::method` path passed as an argument (`r.opt(Pending::restore_state)`)
//!   is an edge like a `Type::method(...)` call: the callee runs it.
//!
//! Known false-negative edges, accepted and documented (DESIGN.md §4g):
//! calls through function pointers and closures, trait-object dispatch to
//! impls whose method name the caller never utters (impossible — the name
//! *is* the edge key — but a `dyn` call does not narrow to one impl), and
//! associated functions imported via `use Type::method`. Test code is
//! excluded from the graph wholesale.

use crate::ast::{self, SourceFile};
use crate::lexer::{Tok, Token};
use crate::rules::PANIC_MACROS;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What a determinism sink is (DET003's taint sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// A host wall-clock read (`Instant::now`, `SystemTime::now`).
    WallClock,
    /// An entropy-seeded RNG (`thread_rng`, `from_entropy`, `OsRng`, ...).
    Entropy,
    /// `HashMap`/`HashSet` in the body: iteration order is unordered.
    UnorderedIter,
}

/// One determinism sink inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// The kind of nondeterminism.
    pub kind: SinkKind,
    /// 1-based line of the sink.
    pub line: usize,
    /// The offending spelling, for diagnostics (`Instant::now()`, ...).
    pub what: String,
}

/// One potential panic site inside a function body (PANIC002's sinks).
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line of the site.
    pub line: usize,
    /// The offending spelling (`.unwrap()`, `panic!`, ...).
    pub what: String,
}

/// A function node in the workspace graph.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The parsed definition.
    pub def: &'a ast::FnDef,
    /// Resolved callee node ids, sorted and deduplicated.
    pub callees: Vec<usize>,
    /// Determinism sinks in the body.
    pub sinks: Vec<Sink>,
    /// Panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Identifiers appearing in the body — populated only for
    /// `save_state`/`restore_state` (SNAP002's field-coverage check).
    pub body_idents: Option<BTreeSet<&'a str>>,
}

/// A struct node in the workspace symbol table.
#[derive(Debug)]
pub struct StructNode<'a> {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The parsed definition.
    pub def: &'a ast::StructDef,
}

/// Identifiers that read environmental entropy; reaching one from a sim
/// entry point makes the mission unreproducible.
pub const ENTROPY_SINKS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
];

/// The whole-workspace model tier W rules run against: an index over the
/// parsed files it was built from.
#[derive(Debug, Default)]
pub struct Workspace<'a> {
    /// The files in the graph, parallel to the `file` indices.
    pub files: Vec<&'a SourceFile>,
    /// Every non-test function definition.
    pub fns: Vec<FnNode<'a>>,
    /// Every non-test struct definition.
    pub structs: Vec<StructNode<'a>>,
    /// Function name → ids of the functions with a `self` receiver (the
    /// targets of `.name(...)` calls).
    methods_by_name: BTreeMap<&'a str, Vec<usize>>,
    /// (self type, name) → node ids.
    by_ty: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// Function name → free-fn node ids.
    free_by_name: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Workspace<'a> {
    /// Indexes every parsed file's non-test items and resolves calls.
    pub fn build(files: &[&'a SourceFile]) -> Workspace<'a> {
        let mut ws = Workspace {
            files: files.to_vec(),
            ..Workspace::default()
        };
        for (file_idx, file) in files.iter().enumerate() {
            let tokens = &file.lexed.tokens;
            for def in file.ast.fns.iter().filter(|f| !f.is_test) {
                let id = ws.fns.len();
                let (sinks, panics) = match def.body {
                    Some((start, end)) => scan_body(tokens, start, end),
                    None => (Vec::new(), Vec::new()),
                };
                let body_idents = match (def.name.as_str(), def.body) {
                    ("save_state" | "restore_state", Some((start, end))) => Some(
                        tokens[start..end]
                            .iter()
                            .filter_map(|t| match &t.tok {
                                Tok::Ident(s) => Some(s.as_str()),
                                _ => None,
                            })
                            .collect(),
                    ),
                    _ => None,
                };
                if def.has_receiver {
                    ws.methods_by_name.entry(&def.name).or_default().push(id);
                }
                match &def.self_ty {
                    Some(ty) => ws.by_ty.entry((ty, &def.name)).or_default().push(id),
                    None => ws.free_by_name.entry(&def.name).or_default().push(id),
                }
                ws.fns.push(FnNode {
                    file: file_idx,
                    def,
                    callees: Vec::new(),
                    sinks,
                    panics,
                    body_idents,
                });
            }
            for def in file.ast.structs.iter().filter(|s| !s.is_test) {
                ws.structs.push(StructNode {
                    file: file_idx,
                    def,
                });
            }
        }
        // Second pass: resolve calls now that every symbol is indexed.
        for id in 0..ws.fns.len() {
            let def = ws.fns[id].def;
            let mut callees = BTreeSet::new();
            for call in &def.calls {
                ws.resolve(call, def.self_ty.as_deref(), &mut callees);
            }
            ws.fns[id].callees = callees.into_iter().collect();
        }
        ws
    }

    /// Resolves one call to workspace node ids (see the module docs for
    /// the resolution rules).
    fn resolve(&self, call: &ast::Call, self_ty: Option<&str>, out: &mut BTreeSet<usize>) {
        let name = call.name();
        if call.method {
            if let Some(ids) = self.methods_by_name.get(name) {
                out.extend(ids.iter().copied());
            }
            return;
        }
        match call.segments.len() {
            0 => {}
            1 => {
                if let Some(ids) = self.free_by_name.get(name) {
                    out.extend(ids.iter().copied());
                }
            }
            _ => {
                let qualifier = &call.segments[call.segments.len() - 2];
                let ty = if qualifier == "Self" {
                    self_ty.unwrap_or(qualifier)
                } else {
                    qualifier
                };
                if let Some(ids) = self.by_ty.get(&(ty, name)) {
                    out.extend(ids.iter().copied());
                } else if let Some(ids) = self.free_by_name.get(name) {
                    // `module::helper(...)`: a path-qualified free fn.
                    out.extend(ids.iter().copied());
                }
            }
        }
    }

    /// Node ids of functions matching an entry-point pattern: `Type::name`,
    /// `name`, with a trailing `*` wildcard on the final segment
    /// (`Synchronizer::run_*`).
    pub fn match_entry(&self, pattern: &str) -> Vec<usize> {
        let matches_glob = |name: &str, pat: &str| {
            pat.strip_suffix('*')
                .map_or(name == pat, |prefix| name.starts_with(prefix))
        };
        let mut out = Vec::new();
        match pattern.split_once("::") {
            Some((ty, fn_pat)) => {
                for (id, f) in self.fns.iter().enumerate() {
                    if f.def.self_ty.as_deref() == Some(ty) && matches_glob(&f.def.name, fn_pat) {
                        out.push(id);
                    }
                }
            }
            None => {
                for (id, f) in self.fns.iter().enumerate() {
                    if matches_glob(&f.def.name, pattern) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    /// Multi-source BFS over the call graph. Returns `node → parent`
    /// (entries map to themselves), visiting in deterministic id order so
    /// diagnostics are stable across runs.
    pub fn reachable(&self, entries: &[usize]) -> BTreeMap<usize, usize> {
        let mut parents = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut sorted: Vec<usize> = entries.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &e in &sorted {
            parents.insert(e, e);
            queue.push_back(e);
        }
        while let Some(id) = queue.pop_front() {
            for &callee in &self.fns[id].callees {
                if let std::collections::btree_map::Entry::Vacant(v) = parents.entry(callee) {
                    v.insert(id);
                    queue.push_back(callee);
                }
            }
        }
        parents
    }

    /// The call chain from the entry point down to `id`, rendered as
    /// `Entry::fn → helper → sink_fn`.
    pub fn chain(&self, parents: &BTreeMap<usize, usize>, mut id: usize) -> String {
        let mut names = vec![self.fns[id].def.qname()];
        while let Some(&p) = parents.get(&id) {
            if p == id {
                break;
            }
            names.push(self.fns[p].def.qname());
            id = p;
        }
        names.reverse();
        names.join(" → ")
    }
}

/// Scans a function body for determinism sinks and panic sites.
fn scan_body(tokens: &[Token], start: usize, end: usize) -> (Vec<Sink>, Vec<PanicSite>) {
    let mut sinks = Vec::new();
    let mut panics = Vec::new();
    let ident = |i: usize| match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |i: usize, p: &str| matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(q)) if *q == p);
    for k in start..end.min(tokens.len()) {
        let line = tokens[k].line;
        if let Some(name @ ("Instant" | "SystemTime")) = ident(k) {
            if punct(k + 1, "::") && ident(k + 2) == Some("now") {
                sinks.push(Sink {
                    kind: SinkKind::WallClock,
                    line,
                    what: format!("{name}::now()"),
                });
            }
        }
        if let Some(name @ ("HashMap" | "HashSet")) = ident(k) {
            sinks.push(Sink {
                kind: SinkKind::UnorderedIter,
                line,
                what: format!("{name} (unordered iteration)"),
            });
        }
        if let Some(name) = ident(k) {
            if ENTROPY_SINKS.contains(&name) {
                sinks.push(Sink {
                    kind: SinkKind::Entropy,
                    line,
                    what: format!("{name} (entropy-seeded RNG)"),
                });
            }
            if PANIC_MACROS.contains(&name) && punct(k + 1, "!") {
                panics.push(PanicSite {
                    line,
                    what: format!("{name}!"),
                });
            }
        }
        if punct(k, ".")
            && matches!(ident(k + 1), Some("unwrap") | Some("expect"))
            && punct(k + 2, "(")
        {
            panics.push(PanicSite {
                line: tokens[k + 1].line,
                what: format!(".{}()", ident(k + 1).unwrap_or("unwrap")),
            });
        }
    }
    (sinks, panics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sources: &[(&str, &str)]) -> Vec<SourceFile> {
        sources
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src))
            .collect()
    }

    fn build(files: &[SourceFile]) -> Workspace<'_> {
        Workspace::build(&files.iter().collect::<Vec<_>>())
    }

    fn id_of(ws: &Workspace, qname: &str) -> usize {
        ws.fns
            .iter()
            .position(|f| f.def.qname() == qname)
            .unwrap_or_else(|| panic!("no fn {qname}"))
    }

    #[test]
    fn cross_file_call_resolution_and_reachability() {
        let files = parse(&[
            (
                "crates/a/src/lib.rs",
                "impl Soc {\n pub fn step(&mut self) { tick_helper(); }\n}",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn tick_helper() { deep(); }\nfn deep() { let t = Instant::now(); }",
            ),
        ]);
        let ws = build(&files);
        let entries = ws.match_entry("Soc::step");
        assert_eq!(entries.len(), 1);
        let parents = ws.reachable(&entries);
        let deep = id_of(&ws, "deep");
        assert!(parents.contains_key(&deep));
        assert_eq!(ws.chain(&parents, deep), "Soc::step → tick_helper → deep");
        assert_eq!(ws.fns[deep].sinks.len(), 1);
        assert_eq!(ws.fns[deep].sinks[0].kind, SinkKind::WallClock);
    }

    #[test]
    fn method_calls_resolve_by_name_conservatively() {
        let files = parse(&[(
            "crates/a/src/lib.rs",
            "impl A {\n fn run(&self, x: &B) { x.helper(); }\n}\n\
             impl B {\n fn helper(&self) {}\n}\n\
             impl C {\n fn helper(&self) { panic!(\"boom\"); }\n}",
        )]);
        let ws = build(&files);
        let run = id_of(&ws, "A::run");
        // Both same-named methods are edges: no type inference.
        assert_eq!(ws.fns[run].callees.len(), 2);
    }

    #[test]
    fn method_calls_reach_only_functions_with_a_receiver() {
        let files = parse(&[(
            "crates/a/src/lib.rs",
            "fn walk(r: RangeInclusive<usize>) { r.start(); }\n\
             impl Mission {\n fn start(config: &Config) { panic!(\"boom\"); }\n}\n\
             fn start() { panic!(\"boom\"); }\n\
             impl Timer {\n fn start(&self) {}\n}",
        )]);
        let ws = build(&files);
        let walk = id_of(&ws, "walk");
        assert_eq!(ws.fns[walk].callees, vec![id_of(&ws, "Timer::start")]);
    }

    #[test]
    fn self_path_calls_resolve_within_the_impl() {
        let files = parse(&[(
            "crates/a/src/lib.rs",
            "impl Soc {\n fn run(&mut self) { Self::helper(); }\n fn helper() {}\n}",
        )]);
        let ws = build(&files);
        let run = id_of(&ws, "Soc::run");
        let helper = id_of(&ws, "Soc::helper");
        assert_eq!(ws.fns[run].callees, vec![helper]);
    }

    #[test]
    fn functions_passed_by_path_are_edges() {
        let files = parse(&[(
            "crates/a/src/lib.rs",
            "impl Event {\n fn restore_state() {}\n}\nfn restore(r: R) { r.seq(Event::restore_state); r.opt(Event::restore_state, 1); }",
        )]);
        let ws = build(&files);
        let restore = id_of(&ws, "restore");
        let event = id_of(&ws, "Event::restore_state");
        assert_eq!(ws.fns[restore].callees, vec![event]);
    }

    #[test]
    fn test_fns_are_outside_the_graph() {
        let files = parse(&[(
            "crates/a/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { let x = Instant::now(); }\n}",
        )]);
        let ws = build(&files);
        assert_eq!(ws.fns.len(), 1);
        assert_eq!(ws.fns[0].def.name, "live");
    }

    #[test]
    fn entry_globs_match_prefixes() {
        let files = parse(&[(
            "crates/a/src/lib.rs",
            "impl Synchronizer {\n fn run_syncs(&mut self) {}\n fn run_until(&mut self) {}\n fn stats(&self) {}\n}",
        )]);
        let ws = build(&files);
        assert_eq!(ws.match_entry("Synchronizer::run_*").len(), 2);
        assert_eq!(ws.match_entry("Synchronizer::stats").len(), 1);
        assert!(ws.match_entry("Soc::*").is_empty());
    }

    #[test]
    fn panic_sites_and_entropy_sinks_are_collected() {
        let files = parse(&[(
            "crates/a/src/lib.rs",
            "fn f(x: Option<u8>) {\n let seed = thread_rng();\n x.unwrap();\n y.expect(\"no\");\n unreachable!();\n}",
        )]);
        let ws = build(&files);
        let f = &ws.fns[0];
        assert_eq!(f.sinks.len(), 1);
        assert_eq!(f.sinks[0].kind, SinkKind::Entropy);
        let whats: Vec<&str> = f.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec![".unwrap()", ".expect()", "unreachable!"]);
    }
}
