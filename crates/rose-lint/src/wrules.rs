//! Tier W: the interprocedural workspace rules.
//!
//! Where tier L ([`crate::rules`]) pattern-matches one file's token
//! stream, tier W runs over the [`crate::workspace::Workspace`] call
//! graph and reasons about *reachability*:
//!
//! - **DET003** — determinism taint: any function transitively reachable
//!   from a sim-side entry point (`Soc::step`, `UavSim::step_frames`,
//!   `Synchronizer::run_*`, ... — the fixed [`DET003_ENTRY_POINTS`]) that
//!   reaches a wall-clock read, an entropy-seeded RNG
//!   ([`crate::workspace::ENTROPY_SINKS`]), or `HashMap`/`HashSet`
//!   unordered iteration is flagged, with the full call chain in the
//!   diagnostic.
//! - **PANIC002** — the PANIC001 surface extended through the call graph:
//!   a helper *outside* the transport/bridge files that `unwrap()`s is
//!   caught when it is reachable from a function defined inside them.
//! - **SNAP002** — snapshot field coverage: for every type with a
//!   `save_state`/`restore_state` pair, each declared struct field must be
//!   mentioned in at least one of the two bodies; a field named in neither
//!   is hidden state the codec silently drops (the semantic complement of
//!   SNAP001's `..`-pattern ban).
//!
//! Findings land at the *sink* (the offending line in the offending
//! file), so the existing `// rose-lint: allow(RULE, reason)` annotation
//! and `rose-lint.toml` machinery suppress them like any tier L finding.

use crate::rules::{applies_to, path_in, Finding, FAULT_PATH_PREFIXES};
use crate::workspace::{StructNode, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Files tier W builds its call graph from: the sim crates, the trace
/// crate (digest-adjacent), and the root package. `crates/bench` and the
/// linter itself are host-side tooling and stay outside the graph.
pub const GRAPH_SCOPE: &[&str] = &[
    "crates/sim-core/src",
    "crates/envsim/src",
    "crates/socsim/src",
    "crates/dnn/src",
    "crates/flightctl/src",
    "crates/rose/src",
    "crates/rose-bridge/src",
    "crates/trace/src",
    "src",
];

/// DET003's sim-side entry points, `Type::fn` with a trailing-`*` glob:
/// everything the synchronizer drives on the simulated-time axis — the
/// SoC cycle loop, the environment frame loop, and the synchronizer's own
/// quantum loop. A new entry point is an edit here.
pub const DET003_ENTRY_POINTS: &[&str] = &[
    "Soc::step",
    "Soc::run_*",
    "UavSim::step_*",
    "UavSim::handle",
    "CoSimEnv::step_*",
    "Synchronizer::run_*",
    "Synchronizer::step_*",
];

/// True when `rel_path` participates in the tier W call graph.
pub fn in_graph_scope(rel_path: &str) -> bool {
    path_in(rel_path, GRAPH_SCOPE)
}

/// Runs every tier W rule; returns `(file index, finding)` pairs.
/// `all_rules` (self-test) skips the per-rule path scoping so the seeded
/// fixture can live under `crates/rose-lint/fixtures/`.
pub fn run_workspace_rules(ws: &Workspace, all_rules: bool) -> Vec<(usize, Finding)> {
    let mut findings = Vec::new();
    det003(ws, &mut findings);
    panic002(ws, &mut findings);
    snap002(ws, all_rules, &mut findings);
    findings
}

/// DET003 — determinism taint from sim entry points to nondeterminism
/// sinks, with the call chain printed.
fn det003(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    let entries: Vec<usize> = DET003_ENTRY_POINTS
        .iter()
        .flat_map(|pattern| ws.match_entry(pattern))
        .collect();
    let parents = ws.reachable(&entries);
    for &id in parents.keys() {
        let f = &ws.fns[id];
        for sink in &f.sinks {
            let chain = ws.chain(&parents, id);
            out.push((
                f.file,
                Finding {
                    rule: "DET003",
                    line: sink.line,
                    message: format!(
                        "{what} is reachable from a sim-side entry point; call chain: \
                         {chain} → {what}. Simulated state must not depend on host \
                         time, entropy, or unordered iteration — derive it from \
                         cycles/frames/SimRng, or annotate with \
                         // rose-lint: allow(DET003, reason)",
                        what = sink.what
                    ),
                },
            ));
        }
    }
}

/// PANIC002 — panic sites outside the fault-path files that are reachable
/// from functions defined inside them.
fn panic002(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    let on_fault_path = |file: usize| path_in(&ws.files[file].rel, FAULT_PATH_PREFIXES);
    let roots: Vec<usize> = (0..ws.fns.len())
        .filter(|&id| on_fault_path(ws.fns[id].file))
        .collect();
    let parents = ws.reachable(&roots);
    for &id in parents.keys() {
        let f = &ws.fns[id];
        if on_fault_path(f.file) {
            // Panic sites inside the fault-path files are PANIC001's job.
            continue;
        }
        for site in &f.panics {
            let chain = ws.chain(&parents, id);
            out.push((
                f.file,
                Finding {
                    rule: "PANIC002",
                    line: site.line,
                    message: format!(
                        "{what} is reachable from the transport/bridge path; call \
                         chain: {chain} → {what}. A panic here deadlocks the \
                         lockstep peer mid-quantum — return an error / latch a \
                         fault, or annotate with // rose-lint: allow(PANIC002, reason)",
                        what = site.what
                    ),
                },
            ));
        }
    }
}

/// SNAP002 — snapshot field coverage for every `save_state`/`restore_state`
/// pair.
fn snap002(ws: &Workspace, all_rules: bool, out: &mut Vec<(usize, Finding)>) {
    // Collect, per impl type, the save/restore bodies' identifier sets.
    let mut pairs: BTreeMap<&str, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        let Some(ty) = f.def.self_ty.as_deref() else {
            continue;
        };
        if f.body_idents.is_none() {
            continue;
        }
        let slot = pairs.entry(ty).or_default();
        match f.def.name.as_str() {
            "save_state" => slot.0.push(id),
            "restore_state" => slot.1.push(id),
            _ => {}
        }
    }
    for (ty, (saves, restores)) in pairs {
        if saves.is_empty() || restores.is_empty() {
            // Not a pair: a lone save_state (or an assoc-fn-only restore
            // codec on a remote type) has no coverage contract here.
            continue;
        }
        // Resolve the struct: same file as the save fn first, then a
        // unique workspace-wide match; ambiguity means we stay silent
        // (conservative — no false positives on name collisions).
        let save_file = ws.fns[saves[0]].file;
        let candidates: Vec<&StructNode> = ws.structs.iter().filter(|s| s.def.name == ty).collect();
        let strukt = match candidates.len() {
            0 => continue,
            1 => candidates[0],
            _ => match candidates.iter().find(|s| s.file == save_file) {
                Some(s) => *s,
                None => continue,
            },
        };
        if !applies_to("SNAP002", &ws.files[strukt.file].rel, all_rules) {
            continue;
        }
        let mut mentioned: BTreeSet<&str> = BTreeSet::new();
        for &id in saves.iter().chain(&restores) {
            if let Some(idents) = &ws.fns[id].body_idents {
                mentioned.extend(idents);
            }
        }
        for field in &strukt.def.fields {
            if !mentioned.contains(field.name.as_str()) {
                out.push((
                    strukt.file,
                    Finding {
                        rule: "SNAP002",
                        line: field.line,
                        message: format!(
                            "field `{field}` of `{ty}` appears in neither \
                             {ty}::save_state nor {ty}::restore_state — hidden \
                             state the snapshot silently drops; serialize it, bind \
                             it to `_` in an exhaustive destructuring, or annotate \
                             the field with // rose-lint: allow(SNAP002, reason) if \
                             it is deliberately host-side (DESIGN.md §4f)",
                            field = field.name
                        ),
                    },
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SourceFile;

    fn run(sources: &[(&str, &str)]) -> Vec<(String, Finding)> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::parse(p, s))
            .collect();
        let ws = Workspace::build(&files.iter().collect::<Vec<_>>());
        run_workspace_rules(&ws, true)
            .into_iter()
            .map(|(file, f)| (ws.files[file].rel.clone(), f))
            .collect()
    }

    #[test]
    fn det003_prints_the_full_call_chain() {
        let found = run(&[
            (
                "crates/socsim/src/soc.rs",
                "impl Soc {\n pub fn step(&mut self) { tick_helper(); }\n}",
            ),
            (
                "crates/socsim/src/util.rs",
                "pub fn tick_helper() { deep_clock(); }\n\
                     fn deep_clock() -> u64 { Instant::now().elapsed().as_micros() as u64 }",
            ),
        ]);
        let det: Vec<_> = found.iter().filter(|(_, f)| f.rule == "DET003").collect();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].0, "crates/socsim/src/util.rs");
        assert!(
            det[0]
                .1
                .message
                .contains("Soc::step → tick_helper → deep_clock"),
            "chain missing from: {}",
            det[0].1.message
        );
    }

    #[test]
    fn det003_ignores_unreachable_sinks() {
        let found = run(&[(
            "crates/socsim/src/soc.rs",
            "impl Soc {\n pub fn step(&mut self) {}\n}\n\
                 fn never_called() { let t = Instant::now(); }",
        )]);
        assert!(found.iter().all(|(_, f)| f.rule != "DET003"));
    }

    #[test]
    fn det003_starts_only_at_the_sim_loops() {
        let found = run(&[(
            "crates/socsim/src/fleet.rs",
            "impl Fleet {\n fn dispatch(&mut self) { let s: HashSet<u8> = x; }\n}\n\
             impl Soc {\n fn step(&mut self) { let t = Instant::now(); }\n}",
        )]);
        let det: Vec<_> = found.iter().filter(|(_, f)| f.rule == "DET003").collect();
        // `Soc::step` is an entry point; `Fleet::dispatch` is not one.
        assert_eq!(det.len(), 1);
        assert!(det[0].1.message.contains("Soc::step → Instant::now()"));
    }

    #[test]
    fn panic002_catches_helpers_reachable_from_the_bridge() {
        let found = run(&[
            (
                "crates/rose-bridge/src/transport.rs",
                "pub fn serve(&mut self) { decode_helper(&buf); }",
            ),
            (
                "crates/socsim/src/program.rs",
                "pub fn decode_helper(buf: &[u8]) -> u8 { buf.first().unwrap() }",
            ),
        ]);
        let p2: Vec<_> = found.iter().filter(|(_, f)| f.rule == "PANIC002").collect();
        assert_eq!(p2.len(), 1);
        assert_eq!(p2[0].0, "crates/socsim/src/program.rs");
        assert!(p2[0].1.message.contains("serve → decode_helper"));
    }

    #[test]
    fn panic002_leaves_root_file_panics_to_panic001() {
        let found = run(&[(
            "crates/rose-bridge/src/transport.rs",
            "pub fn serve(&mut self) { x.unwrap(); }",
        )]);
        assert!(found.iter().all(|(_, f)| f.rule != "PANIC002"));
    }

    #[test]
    fn snap002_flags_fields_absent_from_both_bodies() {
        let found = run(
            &[(
                "crates/socsim/src/rec.rs",
                "pub struct Recorder { ticks: u64, dropped: u64 }\n\
                 impl Recorder {\n\
                 pub fn save_state(&self, w: &mut SnapWriter) { w.u64(self.ticks); }\n\
                 pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> { self.ticks = r.u64()?; Ok(()) }\n\
                 }",
            )],
        );
        let s2: Vec<_> = found.iter().filter(|(_, f)| f.rule == "SNAP002").collect();
        assert_eq!(s2.len(), 1);
        assert!(s2[0].1.message.contains("`dropped`"));
        assert!(s2[0].1.message.contains("Recorder"));
    }

    #[test]
    fn snap002_accepts_underscore_bound_structural_fields() {
        let found = run(
            &[(
                "crates/socsim/src/rec.rs",
                "pub struct Recorder { ticks: u64, config: Config }\n\
                 impl Recorder {\n\
                 pub fn save_state(&self, w: &mut SnapWriter) {\n\
                   let Self { ticks, config: _ } = self;\n w.u64(*ticks);\n }\n\
                 pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> { self.ticks = r.u64()?; Ok(()) }\n\
                 }",
            )],
        );
        assert!(found.iter().all(|(_, f)| f.rule != "SNAP002"));
    }

    #[test]
    fn snap002_covers_fields_mentioned_in_only_one_body() {
        let found = run(
            &[(
                "crates/socsim/src/rec.rs",
                "pub struct Recorder { ticks: u64 }\n\
                 impl Recorder {\n\
                 pub fn save_state(&self, w: &mut SnapWriter) { w.u64(self.ticks); }\n\
                 pub fn restore_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> { Ok(()) }\n\
                 }",
            )],
        );
        // `ticks` appears in save_state: covered (asymmetric codecs are
        // legal — restore may rebuild from config).
        assert!(found.iter().all(|(_, f)| f.rule != "SNAP002"));
    }

    #[test]
    fn snap002_skips_types_without_a_pair_or_without_a_struct() {
        let found = run(
            &[(
                "crates/socsim/src/rec.rs",
                "pub struct OnlySave { ticks: u64 }\n\
                 impl OnlySave {\n pub fn save_state(&self, w: &mut SnapWriter) {}\n}\n\
                 impl NoStruct {\n\
                 pub fn save_state(&self, w: &mut SnapWriter) {}\n\
                 pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> { Ok(()) }\n\
                 }",
            )],
        );
        assert!(found.iter().all(|(_, f)| f.rule != "SNAP002"));
    }
}
