//! Profile one mission: run it with tracing enabled, write a Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`) and a
//! metrics CSV snapshot of every counter in the stack.
//!
//! ```text
//! profile_mission [--trace out.json] [--metrics out.csv] [--seconds F]
//!                 [--check] [--determinism] [--profile]
//!                 [--snapshot-at F] [--snapshot-out PATH]
//!                 [--resume-from PATH]
//!                 [--deadline-budget F] [--postmortem-out PATH]
//!                 [--bench-json PATH] [--bench-gate BASELINE]
//! ```
//!
//! `ROSE_TRACE` / `ROSE_METRICS` environment variables are fallbacks for
//! the two output paths. `--check` re-parses the emitted JSON and
//! cross-checks the trace and registry against the mission's raw stats —
//! the CI smoke test — exiting nonzero on any inconsistency.
//! `--determinism` additionally runs the same config a second time and
//! compares FNV digests of the trajectory, SoC counters, and trace
//! ordering (see `rose::audit`), exiting nonzero on any divergence.
//!
//! `--snapshot-at F` pauses the mission at the first quantum boundary at
//! or after `F` simulated seconds, writes a [`rose::MissionSnapshot`]
//! checkpoint to `--snapshot-out` (default `mission.rosesnap`), verifies
//! in-process that resuming the checkpoint reproduces the straight run's
//! digest bit-exactly, and then continues to completion.
//! `--resume-from PATH` warm-starts from such a checkpoint instead of
//! booting a fresh mission; the checkpoint's embedded config (including
//! its simulated-time wall) replaces the defaults, so `--seconds` is
//! ignored on this path.
//!
//! Observability (DESIGN.md §4f):
//!
//! * `--profile` prints the host wall-clock self-attribution table
//!   (env step / RTL grant / transport / snapshot codec / trace overhead).
//! * `--deadline-budget F` arms the per-frame control deadline at `F`
//!   simulated seconds; misses trigger flight-recorder postmortems.
//! * `--postmortem-out PATH` writes any postmortems the flight recorder
//!   dumped (a JSON array) — CI uploads this as a failure artifact.
//! * `--bench-json PATH` writes the schema-versioned perf-trajectory
//!   record (simulated-µs per wall-second, per-phase wall breakdown,
//!   determinism digest).
//! * `--bench-gate BASELINE` compares this run's throughput against a
//!   committed bench JSON and exits nonzero on a >15% degradation. When
//!   BASELINE is a directory it is scanned for `BENCH_*.json` records and
//!   the gate runs against the best (highest-throughput) point of the
//!   trajectory, so past perf wins ratchet the floor.
//!
//! The mission runs against the persisted timing cache selected by
//! `ROSE_TIMING_CACHE` (set it to `0` to force a cold run) and persists
//! the cache on exit; digests are cache-invisible by contract.

use rose::audit::{audit_determinism, MissionDigest};
use rose::mission::{run_mission, MissionConfig, MissionReport};
use rose::snapshot::{Mission, MissionSnapshot};
use rose_trace::{json, Phase, Stopwatch, Track};
use std::path::PathBuf;
use std::process::ExitCode;

/// Schema tag stamped into every `--bench-json` record.
const BENCH_SCHEMA: &str = "rose-bench-v1";

/// `--bench-gate` fails when throughput drops below this fraction of the
/// baseline (a >15% degradation).
const BENCH_GATE_RATIO: f64 = 0.85;

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
    bench_json: Option<PathBuf>,
    bench_gate: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: profile_mission [--trace out.json] [--metrics out.csv] \
         [--seconds F] [--check] [--determinism] [--profile] \
         [--snapshot-at F] [--snapshot-out PATH] [--resume-from PATH] \
         [--deadline-budget F] [--postmortem-out PATH] \
         [--bench-json PATH] [--bench-gate BASELINE]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        trace: std::env::var_os("ROSE_TRACE").map(PathBuf::from),
        metrics: std::env::var_os("ROSE_METRICS").map(PathBuf::from),
        seconds: 2.0,
        check: false,
        determinism: false,
        profile: false,
        snapshot_at: None,
        snapshot_out: PathBuf::from("mission.rosesnap"),
        resume_from: None,
        deadline_budget: None,
        postmortem_out: None,
        bench_json: None,
        bench_gate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => args.trace = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--metrics" => args.metrics = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--seconds" => {
                args.seconds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--check" => args.check = true,
            "--determinism" => args.determinism = true,
            "--profile" => args.profile = true,
            "--deadline-budget" => {
                args.deadline_budget = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--postmortem-out" => {
                args.postmortem_out = Some(it.next().unwrap_or_else(|| usage()).into())
            }
            "--bench-json" => {
                args.bench_json = Some(it.next().unwrap_or_else(|| usage()).into())
            }
            "--bench-gate" => {
                args.bench_gate = Some(it.next().unwrap_or_else(|| usage()).into())
            }
            "--snapshot-at" => {
                args.snapshot_at = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--snapshot-out" => {
                args.snapshot_out = it.next().unwrap_or_else(|| usage()).into()
            }
            "--resume-from" => {
                args.resume_from = Some(it.next().unwrap_or_else(|| usage()).into())
            }
            _ => usage(),
        }
    }
    if args.snapshot_at.is_some() && args.resume_from.is_some() {
        eprintln!("error: --snapshot-at and --resume-from are mutually exclusive");
        usage()
    }
    args
}

/// The `--check` validation: the emitted JSON must parse, name every
/// track, contain the stack's event types, and agree with the raw stats.
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
            Some(n) => names.push(n.to_string()),
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

    // Registry totals must reproduce the pre-existing stats structs.
    let reg = report.metric_registry();
    let pairs = [
        ("soc.l1.misses", report.soc_stats.l1.misses),
        ("soc.l2.misses", report.soc_stats.l2.misses),
        ("soc.cycles", report.soc_stats.cycles),
        ("sync.syncs", report.sync_stats.syncs),
        ("sync.sim_cycles", report.sync_stats.sim_cycles),
        ("app.inferences", report.inference_count),
    ];
    for (name, expected) in pairs {
        if reg.counter_value(name) != Some(expected) {
            return Err(format!("registry {name} != stats value {expected}"));
        }
    }
    if reg.gauge_value("energy.total_mj") != Some(report.energy.total_mj()) {
        return Err("registry energy.total_mj != energy report".into());
    }
    Ok(())
}

/// The `--snapshot-at` path: run to the boundary, checkpoint, verify the
/// checkpoint resumes bit-identically, continue to completion. Snapshot
/// serialization and resume deserialization wall time is attributed to
/// [`Phase::SnapshotCodec`] in the returned report's profile.
fn run_with_snapshot(config: &MissionConfig, at: f64, out: &PathBuf) -> Result<MissionReport, String> {
    let boundary =
        ((at * config.frame_hz as f64 / config.frames_per_sync as f64).ceil() as u64)
            .min(config.max_syncs());
    let mut mission = Mission::start(config);
    mission.run_syncs(boundary);
    let sw = Stopwatch::start();
    let snap = mission.snapshot();
    let save_wall = sw.elapsed();
    std::fs::write(out, snap.bytes())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote snapshot {} ({} bytes at sync {}, encoded in {:.1} us)",
        out.display(),
        snap.bytes().len(),
        mission.syncs_executed(),
        save_wall.as_secs_f64() * 1e6,
    );
    let mut report = mission.run_to_completion();
    report.profile.add(Phase::SnapshotCodec, save_wall);

    // The checkpoint is only useful if it continues bit-identically.
    let sw = Stopwatch::start();
    let resumed_mission = snap
        .resume()
        .map_err(|e| format!("snapshot failed to resume: {e}"))?;
    report.profile.add(Phase::SnapshotCodec, sw.elapsed());
    let resumed = resumed_mission.run_to_completion();
    if MissionDigest::of(&resumed) != MissionDigest::of(&report) {
        return Err("resumed run diverged from the straight run".into());
    }
    println!("snapshot verified: resume is bit-identical to the straight run");
    Ok(report)
}

/// Renders the `--bench-json` perf-trajectory record: throughput, the
/// per-phase wall breakdown, and the run's determinism digest.
fn bench_record(report: &MissionReport) -> String {
    let wall_s = report.profile.total_wall().as_secs_f64();
    let sim_us_per_wall_s = if wall_s > 0.0 {
        report.sim_time_s * 1e6 / wall_s
    } else {
        0.0
    };
    let mut phases = String::new();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            phases.push(',');
        }
        phases.push_str(&format!(
            "\"{}\":{{\"total_us\":{:.1},\"calls\":{}}}",
            phase.name(),
            report.profile.total(*phase).as_secs_f64() * 1e6,
            report.profile.count(*phase),
        ));
    }
    format!(
        "{{\"schema\":\"{BENCH_SCHEMA}\",\"sim_s\":{:.6},\"wall_s\":{:.6},\
         \"sim_us_per_wall_s\":{:.1},\"syncs\":{},\"digest\":\"{:#018x}\",\
         \"phases\":{{{phases}}}}}\n",
        report.sim_time_s,
        wall_s,
        sim_us_per_wall_s,
        report.sync_stats.syncs,
        MissionDigest::of(report).combined(),
    )
}

/// Extracts the schema-checked throughput from one bench JSON document.
fn bench_throughput(doc: &str, what: &str) -> Result<f64, String> {
    let parsed = json::parse(doc).map_err(|e| format!("{what}: bad JSON: {e}"))?;
    match parsed.get("schema").and_then(|s| s.as_str()) {
        Some(BENCH_SCHEMA) => {}
        other => return Err(format!("{what}: schema {other:?}, want {BENCH_SCHEMA:?}")),
    }
    parsed
        .get("sim_us_per_wall_s")
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("{what}: sim_us_per_wall_s missing"))
}

/// Resolves the gate baseline: a single bench JSON, or a directory scanned
/// for `BENCH_*.json` records, in which case the best (highest-throughput)
/// point of the whole trajectory is the baseline — past perf wins ratchet
/// the floor instead of resetting it at every record.
fn bench_baseline(path: &PathBuf) -> Result<(f64, String), String> {
    if !path.is_dir() {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("reading baseline {}: {e}", path.display()))?;
        let label = path.display().to_string();
        return Ok((bench_throughput(&doc, &label)?, label));
    }
    let mut best: Option<(f64, String)> = None;
    let entries = std::fs::read_dir(path)
        .map_err(|e| format!("scanning baseline dir {}: {e}", path.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("scanning {}: {e}", path.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let doc = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("reading {name}: {e}"))?;
        let throughput = bench_throughput(&doc, &name)?;
        if best.as_ref().is_none_or(|(b, _)| throughput > *b) {
            best = Some((throughput, name));
        }
    }
    best.ok_or_else(|| format!("no BENCH_*.json records in {}", path.display()))
}

/// The `--bench-gate` regression check: the current run's throughput must
/// stay within [`BENCH_GATE_RATIO`] of the baseline's (see
/// [`bench_baseline`] for how a directory baseline resolves).
fn bench_gate(current: &str, baseline_path: &PathBuf) -> Result<(), String> {
    let (base, label) = bench_baseline(baseline_path)?;
    let cur = bench_throughput(current, "current run")?;
    if cur < base * BENCH_GATE_RATIO {
        return Err(format!(
            "throughput regression: {cur:.1} sim-us/wall-s vs baseline {base:.1} \
             from {label} (floor {:.1}, -{:.1}%)",
            base * BENCH_GATE_RATIO,
            (1.0 - cur / base) * 100.0,
        ));
    }
    println!(
        "bench gate: {cur:.1} sim-us/wall-s vs baseline {base:.1} from {label} ({:+.1}%) — ok",
        (cur / base - 1.0) * 100.0,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut config = MissionConfig {
        max_sim_seconds: args.seconds,
        trace: true,
        deadline_budget_s: args.deadline_budget.unwrap_or(0.0),
        // Digest-invisible by contract; `ROSE_TIMING_CACHE=0` forces a
        // cold run. Resumed missions rebuild their config from the
        // snapshot and therefore always run cold.
        timing_cache: rose_bench::shared_timing_cache().cloned(),
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
        if let Err(e) = report.metric_registry().to_csv().write_to(path) {
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
    if args.bench_json.is_some() || args.bench_gate.is_some() {
        let record = bench_record(&report);
        if let Some(path) = &args.bench_json {
            if let Err(e) = std::fs::write(path, &record) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
        if let Some(baseline) = &args.bench_gate {
            if let Err(e) = bench_gate(&record, baseline) {
                eprintln!("bench gate FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.check {
        match check(&report) {
            Ok(()) => println!("check: trace and registry consistent"),
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
            eprintln!("determinism audit FAILED: diverged on {}", diverged.join(", "));
            return ExitCode::FAILURE;
        }
        println!("determinism: bit-identical across runs");
    }
    rose_bench::persist_timing_cache();
    ExitCode::SUCCESS
}
