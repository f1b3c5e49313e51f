//! Profile one mission: run it with tracing enabled, write a Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`) and a
//! metrics CSV of every counter in the mission report.
//!
//! ```text
//! profile_mission [--trace out.json] [--metrics out.csv] [--seconds F]
//!                 [--check] [--determinism] [--profile]
//!                 [--snapshot-at F] [--snapshot-out PATH]
//!                 [--resume-from PATH]
//!                 [--deadline-budget F] [--postmortem-out PATH]
//! ```
//!
//! `--check` re-parses the emitted JSON and cross-checks the trace and
//! the metrics CSV against the mission's report — the CI smoke test —
//! exiting nonzero on any inconsistency. Every `sync-quantum` span must carry
//! numeric `env_wall_us`, `rtl_wall_us` and `quantum_wall_us` args: the
//! trace is the only per-quantum record of the host walls.
//! `--determinism` additionally runs the same config a second time and
//! compares FNV digests of the trajectory, SoC counters, and trace
//! ordering (see `rose::audit`), exiting nonzero on any divergence.
//!
//! `--snapshot-at F` pauses the mission at the first quantum boundary at
//! or after `F` simulated seconds, writes a [`rose::MissionSnapshot`]
//! checkpoint to `--snapshot-out` (default `mission.rosesnap`), verifies
//! in-process that resuming the checkpoint reproduces the straight run's
//! digest bit-exactly, and then continues to completion. It prints the
//! snapshot's encode and resume walls on their own lines; neither enters
//! the mission's profile.
//! `--resume-from PATH` warm-starts from such a checkpoint instead of
//! booting a fresh mission; the checkpoint's embedded config (including
//! its simulated-time wall) replaces the defaults, so `--seconds` is
//! ignored on this path.
//!
//! Observability (DESIGN.md §4f):
//!
//! * `--profile` prints the host wall-clock self-attribution table
//!   (env step / RTL grant / trace overhead / recovery / cost model).
//! * `--deadline-budget F` arms the per-frame control deadline at `F`
//!   simulated seconds; misses trigger flight-recorder postmortems.
//! * `--postmortem-out PATH` writes any postmortems the flight recorder
//!   dumped (a JSON array) — CI uploads this as a failure artifact.
//!
//! `--seconds` must be finite and positive, `--snapshot-at` and
//! `--deadline-budget` finite and non-negative; anything else is a usage
//! error (exit 2).
//!
//! Every mission the process flies shares one in-memory timing cache
//! (DESIGN.md §4i): the first flight expands its kernels cold, and
//! `--determinism`'s two audit runs replay them. Digests are
//! cache-invisible by contract. On exit the cache's entries, hits and
//! misses are reported on stderr.

use rose::audit::{audit_determinism, MissionDigest};
use rose::mission::{run_mission, MissionConfig, MissionReport};
use rose::snapshot::{Mission, MissionSnapshot};
use rose_trace::{json, Stopwatch, Track};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    seconds: f64,
    check: bool,
    determinism: bool,
    profile: bool,
    snapshot_at: Option<f64>,
    snapshot_out: PathBuf,
    resume_from: Option<PathBuf>,
    deadline_budget: Option<f64>,
    postmortem_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: profile_mission [--trace out.json] [--metrics out.csv] \
         [--seconds F] [--check] [--determinism] [--profile] \
         [--snapshot-at F] [--snapshot-out PATH] [--resume-from PATH] \
         [--deadline-budget F] [--postmortem-out PATH]"
    );
    std::process::exit(2)
}

/// The value after a numeric flag, or [`usage`] when it is missing,
/// unparsable, non-finite or rejected by `ok`.
fn number(value: Option<String>, ok: fn(f64) -> bool) -> f64 {
    value
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite() && ok(*v))
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args {
        trace: None,
        metrics: None,
        seconds: 2.0,
        check: false,
        determinism: false,
        profile: false,
        snapshot_at: None,
        snapshot_out: PathBuf::from("mission.rosesnap"),
        resume_from: None,
        deadline_budget: None,
        postmortem_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => args.trace = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--metrics" => args.metrics = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--seconds" => args.seconds = number(it.next(), |v| v > 0.0),
            "--check" => args.check = true,
            "--determinism" => args.determinism = true,
            "--profile" => args.profile = true,
            "--deadline-budget" => args.deadline_budget = Some(number(it.next(), |v| v >= 0.0)),
            "--postmortem-out" => {
                args.postmortem_out = Some(it.next().unwrap_or_else(|| usage()).into())
            }
            "--snapshot-at" => args.snapshot_at = Some(number(it.next(), |v| v >= 0.0)),
            "--snapshot-out" => args.snapshot_out = it.next().unwrap_or_else(|| usage()).into(),
            "--resume-from" => args.resume_from = Some(it.next().unwrap_or_else(|| usage()).into()),
            _ => usage(),
        }
    }
    if args.snapshot_at.is_some() && args.resume_from.is_some() {
        eprintln!("error: --snapshot-at and --resume-from are mutually exclusive");
        usage()
    }
    args
}

/// The host-wall args every `sync-quantum` span carries.
const QUANTUM_WALL_ARGS: [&str; 3] = ["env_wall_us", "rtl_wall_us", "quantum_wall_us"];

/// The `--check` validation: the emitted JSON must parse, name every
/// track, contain the stack's event types, carry each quantum's host
/// walls, and agree with the report; the metrics CSV must list the
/// report's fields.
fn check(report: &MissionReport) -> Result<(), String> {
    let log = report.trace.as_ref().expect("mission ran traced");
    let doc = json::parse(&log.to_chrome_json()).map_err(|e| format!("bad JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("traceEvents missing")?;

    let mut tracks = Vec::new();
    let mut names = Vec::new();
    for event in events {
        match event.get("name").and_then(|n| n.as_str()) {
            Some("thread_name") => {
                if let Some(t) = event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                {
                    tracks.push(t.to_string());
                }
            }
            Some(n) => {
                if n == "sync-quantum" {
                    let args = event.get("args");
                    for arg in QUANTUM_WALL_ARGS {
                        if args
                            .and_then(|a| a.get(arg))
                            .and_then(|v| v.as_f64())
                            .is_none()
                        {
                            return Err(format!("sync-quantum event without a numeric {arg:?}"));
                        }
                    }
                }
                names.push(n.to_string());
            }
            None => return Err("event without a name".into()),
        }
    }
    for track in Track::ALL {
        if !tracks.iter().any(|t| t == track.name()) {
            return Err(format!("track {:?} missing from metadata", track.name()));
        }
    }
    for required in ["env-frame", "sync-quantum", "bridge-packet", "gemmini-tile"] {
        if !names.iter().any(|n| n == required) {
            return Err(format!("no {required:?} events in trace"));
        }
    }

    // Event counts against the mission's own counters.
    let count = |name: &str| names.iter().filter(|n| *n == name).count() as u64;
    if count("env-frame") != report.trajectory.len() as u64 {
        return Err("env-frame count != trajectory length".into());
    }
    if count("sync-quantum") != report.sync_stats.syncs {
        return Err("sync-quantum count != sync_stats.syncs".into());
    }
    if count("bridge-packet") != report.sync_stats.data_to_env + report.sync_stats.data_to_rtl {
        return Err("bridge-packet count != data crossings".into());
    }

    // The `--metrics` CSV must list the report's own fields.
    let csv = report.metrics_csv().to_csv_string();
    let counters = [
        ("soc.l1.misses", report.soc_stats.l1.misses),
        ("soc.l2.misses", report.soc_stats.l2.misses),
        ("soc.cycles", report.soc_stats.cycles),
        ("sync.syncs", report.sync_stats.syncs),
        ("sync.sim_cycles", report.sync_stats.sim_cycles),
        ("app.inferences", report.inference_count),
    ]
    .map(|(name, value)| format!("{name},counter,{value}"));
    let energy = format!("energy.total_mj,gauge,{}", report.energy.total_mj());
    for line in counters.iter().chain([&energy]) {
        if !csv.lines().any(|l| l == line) {
            return Err(format!("metrics CSV lacks the row {line:?}"));
        }
    }
    Ok(())
}

/// The `--snapshot-at` path: run to the boundary, checkpoint, verify the
/// checkpoint resumes bit-identically, continue to completion. The encode
/// and resume walls are printed on their own lines; the returned report's
/// profile holds the mission's synchronization periods only.
fn run_with_snapshot(
    config: &MissionConfig,
    at: f64,
    out: &PathBuf,
) -> Result<MissionReport, String> {
    let boundary = ((at * config.frame_hz as f64 / config.frames_per_sync as f64).ceil() as u64)
        .min(config.max_syncs());
    let mut mission = Mission::start(config);
    mission.run_syncs(boundary);
    let sw = Stopwatch::start();
    let snap = mission.snapshot();
    let save_wall = sw.elapsed();
    std::fs::write(out, snap.bytes()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote snapshot {} ({} bytes at sync {}, encoded in {:.1} us)",
        out.display(),
        snap.bytes().len(),
        mission.syncs_executed(),
        save_wall.as_secs_f64() * 1e6,
    );
    let report = mission.run_to_completion();

    // The checkpoint is only useful if it continues bit-identically.
    let sw = Stopwatch::start();
    let resumed_mission = snap
        .resume()
        .map_err(|e| format!("snapshot failed to resume: {e}"))?;
    println!(
        "resumed snapshot in {:.1} us",
        sw.elapsed().as_secs_f64() * 1e6
    );
    let resumed = resumed_mission.run_to_completion();
    if MissionDigest::of(&resumed) != MissionDigest::of(&report) {
        return Err("resumed run diverged from the straight run".into());
    }
    println!("snapshot verified: resume is bit-identical to the straight run");
    Ok(report)
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut config = MissionConfig {
        max_sim_seconds: args.seconds,
        trace: true,
        deadline_budget_s: args.deadline_budget.unwrap_or(0.0),
        // Digest-invisible by contract. Resumed missions rebuild their
        // config from the snapshot and therefore always run cold.
        timing_cache: Some(rose_bench::shared_timing_cache().clone()),
        ..MissionConfig::default()
    };
    let report = if let Some(path) = &args.resume_from {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("error: reading {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let snap = MissionSnapshot::from_bytes(bytes);
        let mission = match snap.resume() {
            Ok(mission) => mission,
            Err(e) => {
                eprintln!("error: resuming {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        // Reporting and the determinism audit must describe the resumed
        // mission, not the default config.
        config = mission.config().clone();
        println!(
            "resumed from {} at sync {}",
            path.display(),
            mission.syncs_executed(),
        );
        mission.run_to_completion()
    } else if let Some(at) = args.snapshot_at {
        match run_with_snapshot(&config, at, &args.snapshot_out) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_mission(&config)
    };
    let log = report.trace.as_ref().expect("trace was requested");
    println!(
        "mission: {:.1} sim-s, {} syncs, {} inferences, {} trace events",
        report.sim_time_s,
        report.sync_stats.syncs,
        report.inference_count,
        log.len(),
    );

    if let Some(path) = &args.trace {
        if let Err(e) = log.write_chrome_json(path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} (load in ui.perfetto.dev)", path.display());
    }
    if let Some(path) = &args.metrics {
        if let Err(e) = report.metrics_csv().write_to(path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if args.profile {
        print!("{}", report.profile.render_table());
    }
    if !report.postmortems.is_empty() {
        println!(
            "flight recorder: {} postmortem(s) triggered",
            report.postmortems.len(),
        );
    }
    if let Some(path) = &args.postmortem_out {
        if report.postmortems.is_empty() {
            println!("no postmortems triggered; {} not written", path.display());
        } else {
            let doc = format!("[{}]\n", report.postmortems.join(","));
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
    }
    if args.check {
        match check(&report) {
            Ok(()) => println!("check: trace and metrics consistent"),
            Err(e) => {
                eprintln!("check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.determinism {
        let outcome = audit_determinism(&config);
        let digest = MissionDigest::of(&report);
        println!(
            "determinism: run1 {:#018x} run2 {:#018x} (trajectory {:#018x}, soc {:#018x}, trace {:#018x})",
            outcome.first.combined(),
            outcome.second.combined(),
            outcome.first.trajectory,
            outcome.first.soc,
            outcome.first.trace,
        );
        if !outcome.identical() || outcome.first != digest {
            let mut diverged = outcome.diverged_surfaces();
            if outcome.first != digest {
                diverged.push("vs-initial-run");
            }
            eprintln!(
                "determinism audit FAILED: diverged on {}",
                diverged.join(", ")
            );
            return ExitCode::FAILURE;
        }
        println!("determinism: bit-identical across runs");
    }
    rose_bench::report_timing_cache();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_trace::TraceLog;

    /// A short traced mission passes `--check`; the same trace with one
    /// quantum's host-wall arg dropped fails it, naming the arg.
    #[test]
    fn check_requires_every_quantum_wall_arg() {
        let mut report = run_mission(&MissionConfig {
            trace: true,
            max_sim_seconds: 0.5,
            ..MissionConfig::default()
        });
        assert_eq!(check(&report), Ok(()));

        for dropped in QUANTUM_WALL_ARGS {
            let mut events = report.trace.as_ref().unwrap().events().to_vec();
            let quantum = events
                .iter_mut()
                .rfind(|e| e.name == "sync-quantum")
                .expect("a traced quantum");
            quantum.args.retain(|(key, _)| *key != dropped);
            let intact = report.trace.replace({
                let mut log = TraceLog::new();
                log.extend(events);
                log
            });
            let err = check(&report).expect_err("a quantum lacks a wall arg");
            assert!(err.contains(dropped), "{err}");
            report.trace = intact;
        }
    }
}
