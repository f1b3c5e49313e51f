//! Chaos sweep: fly many missions over randomly fault-injected
//! transports and check the robustness invariants hold for every one.
//!
//! ```text
//! chaos_mission [--trials N] [--events N] [--seconds F] [--seed-base S]
//!               [--reproducer-out PATH] [--self-test]
//! ```
//!
//! Per trial `i`, a [`FaultPlan::random`] schedule is generated from
//! `seed_base + i` and the same mission is flown twice. The invariants
//! (DESIGN.md §4h):
//!
//! 1. **No panic.** Whatever the transport does, the stack latches faults
//!    and winds down; it never tears down the process.
//! 2. **Determinism.** Same seed ⇒ bit-identical [`MissionDigest`] run to
//!    run. Injected faults, retries, and watchdog-degraded iterations are
//!    all scheduled in sim time, so nothing the host does may show.
//!    [`run_mission_with_faults`] serves the SoC inline on the calling
//!    thread, so the sweep crosses no threads; `tests/deployment.rs`
//!    checks that inline server against the threaded one.
//! 3. **Orderly termination.** Every flight ends in one of: goal reached,
//!    sim-time budget expired, a deliberate mission abort, or a latched
//!    transport fault documented by a `transport-fault` postmortem. A
//!    latched flight never claims completion.
//!
//! On a violation the harness greedily **shrinks** the schedule — events
//! are removed one at a time while the violation persists — then prints
//! the minimal reproducer and writes its serialized form (loadable via
//! `FaultPlan::restore_state`) to `--reproducer-out`, exiting 1.
//!
//! `--self-test` exercises the shrinker against a synthetic oracle (no
//! missions flown) and proves a seeded multi-event violating schedule
//! reduces to its minimal core; CI runs this plus a small `--trials`
//! sweep.
//!
//! Exit codes: 0 = all trials clean (or self-test passed), 1 = a
//! violation survived shrinking, 2 = bad usage or a broken self-test.

use rose::audit::MissionDigest;
use rose::mission::{run_mission_with_faults, FaultedMissionReport, MissionConfig};
use rose_bridge::faults::{FaultKind, FaultPlan};
use rose_sim_core::snap::SnapWriter;
use rose_trace::json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    trials: u64,
    events: usize,
    seconds: f64,
    seed_base: u64,
    reproducer_out: PathBuf,
    self_test: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos_mission [--trials N] [--events N] [--seconds F] \
         [--seed-base S] [--reproducer-out PATH] [--self-test]"
    );
    std::process::exit(2)
}

impl Default for Args {
    fn default() -> Args {
        Args {
            trials: 200,
            events: 6,
            seconds: 6.0,
            seed_base: 0xC4A0_5000,
            reproducer_out: PathBuf::from("chaos_reproducer.roseplan"),
            self_test: false,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--trials" => args.trials = value().parse().unwrap_or_else(|_| usage()),
            "--events" => args.events = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--seed-base" => args.seed_base = value().parse().unwrap_or_else(|_| usage()),
            "--reproducer-out" => args.reproducer_out = value().into(),
            "--self-test" => args.self_test = true,
            _ => usage(),
        }
    }
    args
}

fn config(seconds: f64) -> MissionConfig {
    MissionConfig {
        max_sim_seconds: seconds,
        ..MissionConfig::default()
    }
}

/// Trial `trial`'s random fault plan. Its events fall anywhere in the
/// flown window, from the first quantum to the last the mission can
/// reach, so no trial degenerates to a fault-free flight and no stretch
/// of the flight goes untested.
fn trial_plan(args: &Args, trial: u64) -> FaultPlan {
    let window = config(args.seconds).max_syncs();
    FaultPlan::random(args.seed_base.wrapping_add(trial), window, args.events)
}

/// Runs one mission under a fault plan, catching panics (invariant 1).
fn fly(seconds: f64, plan: &FaultPlan) -> Result<FaultedMissionReport, String> {
    let plan = plan.clone();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        run_mission_with_faults(&config(seconds), plan)
    }))
    .map_err(|cause| {
        let msg = cause
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| cause.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        format!("panicked: {msg}")
    })
}

/// Checks one flight's termination taxonomy (invariant 3).
fn check_termination(outcome: &FaultedMissionReport) -> Result<(), String> {
    if outcome.latched.is_some() {
        if outcome.report.completed {
            return Err("latched a transport fault yet claims completion".into());
        }
        let named = outcome.report.postmortems.iter().any(|pm| {
            json::parse(pm)
                .ok()
                .and_then(|doc| {
                    doc.get("reason")
                        .and_then(|v| v.as_str())
                        .map(str::to_owned)
                })
                .as_deref()
                == Some("transport-fault")
        });
        if !named {
            return Err("latched fault has no transport-fault postmortem".into());
        }
    }
    if outcome.aborted && outcome.report.completed {
        return Err("aborted yet claims completion".into());
    }
    Ok(())
}

/// The sweep's violation oracle: flies `plan` twice and returns a
/// description of the first broken invariant, if any.
fn violation(seconds: f64, plan: &FaultPlan) -> Option<String> {
    let mut digests = Vec::new();
    for _ in 0..2 {
        let outcome = match fly(seconds, plan) {
            Ok(outcome) => outcome,
            Err(panic) => return Some(panic),
        };
        if let Err(broken) = check_termination(&outcome) {
            return Some(broken);
        }
        digests.push(MissionDigest::of(&outcome.report));
    }
    if digests[0] != digests[1] {
        return Some(format!(
            "runs diverged: first {:?} vs second {:?}",
            digests[0], digests[1]
        ));
    }
    None
}

/// Rebuilds `plan` without the event at `skip` (the shrink step).
fn without_event(plan: &FaultPlan, skip: usize) -> FaultPlan {
    let mut reduced = FaultPlan::new(plan.seed());
    for (i, e) in plan.events().iter().enumerate() {
        if i != skip {
            reduced.push(e.at_quantum, e.kind);
        }
    }
    reduced
}

/// Greedy shrink: repeatedly drops any single event whose removal keeps
/// the schedule violating, until the plan is 1-minimal (removing any one
/// remaining event makes the violation disappear).
fn shrink(plan: &FaultPlan, violates: &mut dyn FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut current = plan.clone();
    'progress: loop {
        for skip in 0..current.events().len() {
            let candidate = without_event(&current, skip);
            if violates(&candidate) {
                current = candidate;
                continue 'progress;
            }
        }
        return current;
    }
}

/// Renders a plan as the builder expression that reconstructs it, so a
/// reproducer pastes straight into a test.
fn render(plan: &FaultPlan) -> String {
    let mut out = format!("FaultPlan::new({:#x})", plan.seed());
    for e in plan.events() {
        out.push_str(&format!(
            "\n    .with_event({}, FaultKind::{:?})",
            e.at_quantum, e.kind
        ));
    }
    out
}

fn dump_reproducer(plan: &FaultPlan, path: &PathBuf) {
    let mut w = SnapWriter::new();
    plan.save_state(&mut w);
    if let Err(e) = std::fs::write(path, w.into_bytes()) {
        eprintln!(
            "chaos_mission: could not write reproducer {}: {e}",
            path.display()
        );
    } else {
        eprintln!("chaos_mission: reproducer written to {}", path.display());
    }
}

/// Proves the shrinker on a synthetic oracle: "violating" means the plan
/// still schedules both a `Drop` and a `Corrupt`. A seeded multi-event
/// schedule must reduce to exactly that two-event core.
fn self_test() -> ExitCode {
    let noisy = FaultPlan::random(0x5E1F, 400, 12)
        .with_event(50, FaultKind::Drop)
        .with_event(250, FaultKind::Corrupt);
    let mut oracle = |plan: &FaultPlan| {
        plan.events().iter().any(|e| e.kind == FaultKind::Drop)
            && plan.events().iter().any(|e| e.kind == FaultKind::Corrupt)
    };
    assert!(
        oracle(&noisy),
        "the seeded schedule must start out violating"
    );
    let minimal = shrink(&noisy, &mut oracle);

    let mut broken = false;
    if !oracle(&minimal) {
        eprintln!("self-test BROKEN: shrinking lost the violation");
        broken = true;
    }
    if minimal.events().len() != 2 {
        eprintln!(
            "self-test BROKEN: expected a 2-event core, got {} events:\n{}",
            minimal.events().len(),
            render(&minimal)
        );
        broken = true;
    }
    for skip in 0..minimal.events().len() {
        if oracle(&without_event(&minimal, skip)) {
            eprintln!("self-test BROKEN: the shrunk plan is not 1-minimal");
            broken = true;
        }
    }
    if broken {
        return ExitCode::from(2);
    }
    eprintln!(
        "self-test: {}-event schedule shrank to its minimal core:\n{}",
        noisy.events().len(),
        render(&minimal)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.self_test {
        return self_test();
    }

    for trial in 0..args.trials {
        let seed = args.seed_base.wrapping_add(trial);
        let plan = trial_plan(&args, trial);
        if let Some(broken) = violation(args.seconds, &plan) {
            eprintln!("chaos_mission: trial {trial} (seed {seed:#x}) VIOLATION: {broken}");
            eprintln!("chaos_mission: shrinking {} events...", plan.events().len());
            let minimal = shrink(&plan, &mut |candidate| {
                violation(args.seconds, candidate).is_some()
            });
            let last = violation(args.seconds, &minimal).unwrap_or_default();
            eprintln!(
                "chaos_mission: minimal reproducer ({} events, still: {last}):\n{}",
                minimal.events().len(),
                render(&minimal)
            );
            dump_reproducer(&minimal, &args.reproducer_out);
            return ExitCode::FAILURE;
        }
        if (trial + 1) % 25 == 0 || trial + 1 == args.trials {
            eprintln!("chaos_mission: {}/{} trials clean", trial + 1, args.trials);
        }
    }
    eprintln!(
        "chaos_mission: all {} trials held the invariants ({} faults each, {:.1} s sim)",
        args.trials, args.events, args.seconds
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI sweep's plans reach the last tenth of the flown window and
    /// never leave it.
    #[test]
    fn faults_reach_the_end_of_the_flown_window() {
        let args = Args {
            trials: 24,
            seed_base: 3_300_000_000,
            ..Args::default()
        };
        let window = config(args.seconds).max_syncs();
        let quanta: Vec<u64> = (0..args.trials)
            .flat_map(|trial| trial_plan(&args, trial).events().to_vec())
            .map(|event| event.at_quantum)
            .collect();
        assert!(quanta.iter().all(|&q| q < window), "{quanta:?}");
        assert!(
            quanta.iter().any(|&q| q >= window - window / 10),
            "no fault in the last tenth of {window} quanta: {quanta:?}"
        );
    }
}
