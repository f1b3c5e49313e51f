//! The benchmark of record: four seeded workloads, each timed end to end
//! with tracing off, and layer by layer from outside the simulator in a
//! separate traced run. See `README.md` in this directory.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--json OUT] [--repeat N] [--quick]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! holding the end-to-end metrics, or with `--trace 1` the per-layer ones.

mod host;
mod layers;
mod probes;
mod stats;
mod timed;
mod workloads;

use host::{normalize, peak_heap_bytes, reset_peak_heap, CountingAlloc, Yardstick};
use layers::{Extra, LayerStats, Metric};
use rose_trace::json::{self, Json};
use rose_trace::Stopwatch;
use stats::{highest_resolved, median, nearest_rank, quartiles, sorted};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use timed::SpanClock;
use workloads::{guarded, Bench, Inputs, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Default measured seconds per run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 9;
/// Missions a timed phase flies at least, so p90 resolves.
const MIN_MISSIONS: usize = 100;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--json OUT] [--repeat N] [--quick]\n\
                     workloads: flight-warm, dse-sweep, tcp-fine, faulted-link";

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
struct Settings {
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Two one-second missions per workload and one set-up pass: a smoke
    /// test whose percentiles are not measurements.
    quick: bool,
}

#[derive(Debug)]
struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    settings: Settings,
    json: Option<PathBuf>,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        settings: Settings {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            traced: false,
            quick: false,
        },
        json: None,
        repeat: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => {
                parsed.settings.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside [0, 3600]"));
                }
                parsed.settings.seconds = s;
            }
            "--trace" => {
                parsed.settings.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            "--repeat" => parsed.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--quick" => parsed.settings.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Everything one workload run produced.
#[derive(Debug)]
struct Outcome {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    /// The end-to-end times before normalization, printed for reference.
    raw: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// One timed phase: untraced, or through the wrappers.
#[derive(Debug, Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Host-normalized wall time of each passed mission, ms.
    mission_ms: Vec<f64>,
    /// The same, as measured.
    raw_ms: Vec<f64>,
    /// Simulated µs per normalized wall second of each whole clean pass.
    pass_rates: Vec<f64>,
    /// The same, per measured wall second.
    raw_pass_rates: Vec<f64>,
    /// Every yardstick time, ms.
    yardstick_ms: Vec<f64>,
    layers: LayerStats,
}

/// Flies whole passes over the workload's inputs until `seconds` have
/// elapsed and at least `min_missions` were attempted, measuring the
/// yardstick before the first mission and after each one.
fn run_phase(
    bench: &mut Bench,
    next: &mut usize,
    clock: &SpanClock,
    yard: &mut Yardstick,
    seconds: f64,
    min_missions: usize,
    traced: bool,
) -> Result<Phase, String> {
    bench.begin_phase(traced)?;
    let mut phase = Phase::default();
    let began = clock.now();
    let budget_ns = (seconds * 1e9) as u64;
    let mut before = yard.measure();
    phase.yardstick_ms.push(before);
    // Simulated seconds, normalized and raw wall ms of the current pass,
    // while it is clean.
    let mut pass: Option<(f64, f64, f64)> = Some((0.0, 0.0, 0.0));
    loop {
        let i = *next;
        if i.is_multiple_of(bench.pass_len())
            && phase.attempted >= min_missions as u64
            && clock.now() - began >= budget_ns
        {
            break;
        }
        *next += 1;
        phase.attempted += 1;
        let start = clock.now();
        let flight = guarded("mission", || bench.fly(i, traced.then_some(clock)));
        let end = clock.now();
        let after = yard.measure();
        phase.yardstick_ms.push(after);
        let raw_ms = (end - start) as f64 / 1e6;
        let norm_ms = normalize(raw_ms, before, after);
        before = after;
        let checked = flight
            .and_then(|flown| flown)
            .and_then(|flight| bench.check(i, &flight).map(|()| flight));
        match checked {
            Ok(flight) => {
                phase.mission_ms.push(norm_ms);
                phase.raw_ms.push(raw_ms);
                if let Some((sim_s, norm, raw)) = &mut pass {
                    *sim_s += flight.sim_s;
                    *norm += norm_ms;
                    *raw += raw_ms;
                }
                if traced {
                    phase.layers.absorb(start, end, &flight);
                }
            }
            Err(e) => {
                phase.failed += 1;
                pass = None;
                if phase.failed <= 5 {
                    eprintln!("{}: mission {i} failed: {e}", bench.name());
                }
                // A mission that failed part-way may have left tcp-fine's
                // server inside its session; the next one gets a new
                // server and connection.
                bench.end_phase();
                bench.begin_phase(traced)?;
            }
        }
        if next.is_multiple_of(bench.pass_len()) {
            if let Some((sim_s, norm, raw)) = pass {
                phase.pass_rates.push(sim_s * 1e9 / norm.max(1e-9));
                phase.raw_pass_rates.push(sim_s * 1e9 / raw.max(1e-9));
            }
            pass = Some((0.0, 0.0, 0.0));
        }
    }
    bench.end_phase();
    Ok(phase)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Runs one workload: set-up passes, then the timed phase (or an untraced
/// and a traced half), then the probes when traced.
fn run_workload(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    let inputs = Inputs::generate(workload, settings.seed, settings.quick);
    let passes = if settings.quick { 1 } else { SETUP_PASSES };
    let mut yard = Yardstick::default();
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut bench = None;
    let mut before = yard.measure();
    for _ in 0..passes {
        // Drop the previous pass first: it owns the cache file's name.
        drop(bench.take());
        let watch = Stopwatch::start();
        bench = Some(Bench::prepare(workload, &inputs)?);
        let pass_s = watch.elapsed().as_secs_f64();
        let after = yard.measure();
        setup_s.push(normalize(pass_s, before, after));
        raw_setup_s.push(pass_s);
        before = after;
    }
    let mut bench = bench.ok_or("no set-up pass ran")?;

    let clock = SpanClock::start();
    let min_missions = if settings.quick {
        bench.pass_len()
    } else {
        MIN_MISSIONS
    };
    let seconds = if settings.quick {
        0.0
    } else {
        settings.seconds
    };
    let mut next = 0;
    let untraced_s = if settings.traced {
        seconds / 2.0
    } else {
        seconds
    };
    // The memory metric is the untraced missions' peak; set-up's own
    // transient peak (the traced oracle mission) is not the workload's.
    reset_peak_heap();
    let plain = run_phase(
        &mut bench,
        &mut next,
        &clock,
        &mut yard,
        untraced_s,
        min_missions,
        false,
    )?;
    let peak_heap_mb = peak_heap_bytes() as f64 / f64::from(1 << 20);
    let traced = if settings.traced {
        Some(run_phase(
            &mut bench,
            &mut next,
            &clock,
            &mut yard,
            seconds / 2.0,
            min_missions,
            true,
        )?)
    } else {
        None
    };

    let mission_ms = sorted(plain.mission_ms.clone());
    let raw_ms = sorted(plain.raw_ms.clone());
    let passes = plain.pass_rates.len() as u64;
    let end_to_end = vec![
        Metric::new(
            "sim_us_per_wall_s_norm",
            median(&plain.pass_rates),
            "us/s",
            passes,
        ),
        Metric::quantile("mission_wall_ms_p50_norm", &mission_ms, 50.0, "ms"),
        Metric::quantile("mission_wall_ms_p90_norm", &mission_ms, 90.0, "ms"),
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len() as u64),
        Metric::new("peak_heap_mb", peak_heap_mb, "MiB", 1),
    ];
    let raw = vec![
        Metric::new(
            "sim_us_per_wall_s",
            median(&plain.raw_pass_rates),
            "us/s",
            passes,
        ),
        Metric::quantile("mission_wall_ms_p50", &raw_ms, 50.0, "ms"),
        Metric::quantile("mission_wall_ms_p90", &raw_ms, 90.0, "ms"),
        Metric::new(
            "setup_s",
            median(&raw_setup_s),
            "s",
            raw_setup_s.len() as u64,
        ),
        Metric::new(
            "host.yardstick_ms",
            median(&plain.yardstick_ms),
            "ms",
            plain.yardstick_ms.len() as u64,
        ),
        Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB", 1),
    ];
    let per_layer = match &traced {
        Some(phase) => {
            let traced_ms = sorted(phase.mission_ms.clone());
            let extra = Extra {
                trace_overhead_pct: (nearest_rank(&traced_ms, 50.0)
                    / nearest_rank(&mission_ms, 50.0)
                    - 1.0)
                    * 100.0,
                yardstick_ms: median(&plain.yardstick_ms),
                cache_entries: bench.cache_entries(),
                cache_file_bytes: bench.cache_file_bytes()?,
                probes: probes::run()?,
                totals: bench.totals,
            };
            phase.layers.metrics(&extra)
        }
        None => Vec::new(),
    };
    let failed = plain.failed + traced.as_ref().map_or(0, |p| p.failed);
    Ok(Outcome {
        attempted: plain.attempted + traced.as_ref().map_or(0, |p| p.attempted),
        failed,
        end_to_end,
        raw,
        per_layer,
    })
}

/// Formats a measured number for JSON: every digit, never NaN.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in this process and prints its report.
fn run_one(workload: Workload, settings: &Settings, json_out: Option<&PathBuf>) -> ExitCode {
    let nproc = nproc();
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}, run on cpu {cpu} only{}",
        workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(settings.traced),
        if settings.quick { " quick" } else { "" }
    );
    let outcome = match run_workload(workload, settings) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let reported = if settings.traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let print = |metrics: &[Metric]| {
        for m in metrics {
            println!(
                "  {:<36} {:>16.4} {:<14} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if m.resolved { "" } else { "  (unresolved)" }
            );
        }
    };
    print(reported);
    if !settings.traced {
        println!("  as measured, before normalization:");
        print(&outcome.raw);
    }
    let mission_samples = outcome.end_to_end.get(1).map_or(0, |m| m.samples);
    println!(
        "  failed_ops_ratio {}/{}; highest percentile the mission samples resolve: {}",
        outcome.failed,
        outcome.attempted,
        highest_resolved(mission_samples as usize).map_or("none".into(), |p| format!("p{p}")),
    );
    let unresolved = reported.iter().any(|m| !m.resolved);
    let correct = outcome.failed == 0 && (settings.quick || !unresolved);
    let metrics: Vec<(String, f64, String)> = reported
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        .collect();
    let line = json_line(correct, outcome.attempted.max(1), outcome.failed, &metrics);
    finish(&line, correct, json_out)
}

/// Prints the result line last (and writes it to `json_out`); exits 0
/// only for a correct run.
fn finish(line: &str, correct: bool, json_out: Option<&PathBuf>) -> ExitCode {
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The parsed last line of a child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Runs this binary again for one workload and echoes its output.
fn run_child(workload: Workload, settings: &Settings) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &settings.seed.to_string()])
        .args(["--seconds", &settings.seconds.to_string()])
        .args(["--trace", if settings.traced { "1" } else { "0" }]);
    if settings.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let doc =
        json::parse(last).map_err(|e| format!("{}: no result line ({e})", workload.name()))?;
    let count = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let mut metrics = Vec::new();
    if let Some(Json::Object(map)) = doc.get("metrics") {
        for (name, m) in map {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            metrics.push((name.clone(), value, unit));
        }
    }
    Ok(ChildResult {
        correct: output.status.success() && doc.get("correct") == Some(&Json::Bool(true)),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

/// Runs every workload, one process each, one after another, and prints
/// a combined last line with metrics named `workload/metric`.
fn run_all(settings: &Settings, json_out: Option<&PathBuf>) -> ExitCode {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        match run_child(workload, settings) {
            Ok(child) => {
                correct &= child.correct;
                attempted += child.attempted;
                failed += child.failed;
                for (name, value, unit) in child.metrics {
                    metrics.push((format!("{}/{name}", workload.name()), value, unit));
                }
            }
            Err(e) => {
                eprintln!("{e}");
                correct = false;
            }
        }
    }
    let line = json_line(correct, attempted.max(1), failed, &metrics);
    finish(&line, correct, json_out)
}

/// Metric bounds from `BENCHMARK.json` in the working directory.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(doc) = json::parse(&text) else {
        return Vec::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// `--repeat N`: N back-to-back runs per workload on seeds `seed..seed+N`;
/// prints each metric's median, quartiles, and spread against its bound.
fn run_repeat(workloads: &[Workload], settings: &Settings, n: usize) -> ExitCode {
    let bounds = bounds();
    let mut ok = true;
    for &workload in workloads {
        let mut values: Vec<(String, Vec<f64>)> = Vec::new();
        for k in 0..n {
            let seeded = Settings {
                seed: settings.seed + k as u64,
                ..*settings
            };
            match run_child(workload, &seeded) {
                Ok(child) => {
                    ok &= child.correct;
                    for (name, value, _) in child.metrics {
                        match values.iter_mut().find(|(n, _)| *n == name) {
                            Some((_, v)) => v.push(value),
                            None => values.push((name, vec![value])),
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        println!("repeatability of {} over {n} runs:", workload.name());
        println!(
            "  {:<32} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, v) in &values {
            if v.len() < 2 {
                continue;
            }
            let mid = median(v);
            let (q1, q3) = quartiles(v);
            let spread = (q3 - q1) / mid.abs();
            let bound = bounds.iter().find(|(b, _)| b == name).map(|&(_, b)| b);
            // The target is a third of the bound, which leaves room for
            // the drift between two sets of runs.
            let verdict = match bound {
                Some(b) if spread > b => "  over the bound",
                Some(b) if spread > b / 3.0 => "  over a third of the bound",
                _ => "",
            };
            println!(
                "  {name:<32} {mid:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {:>7}{verdict}",
                bound.map_or("-".into(), |b| b.to_string())
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    if args.repeat > 0 {
        return run_repeat(&workloads, &args.settings, args.repeat);
    }
    match args.workload {
        Some(workload) => run_one(workload, &args.settings, args.json.as_ref()),
        None => run_all(&args.settings, args.json.as_ref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units `BENCHMARK.json` declares, found by
    /// walking up from the package directory.
    fn declared(section: &str) -> Vec<(String, String)> {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the package");
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// Every workload at minimal counts emits every declared metric with
    /// its unit, and no mission fails.
    #[test]
    fn quick_run_emits_every_declared_metric() {
        let settings = Settings {
            seed: 7,
            seconds: 0.0,
            traced: true,
            quick: true,
        };
        for workload in Workload::ALL {
            let outcome = run_workload(workload, &settings).expect("quick run");
            assert_eq!(outcome.failed, 0, "{}", workload.name());
            assert!(outcome.attempted > 0);
            assert_eq!(emitted(&outcome.end_to_end), declared("end_to_end"));
            assert_eq!(emitted(&outcome.per_layer), declared("per_layer"));
            for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
                assert!(
                    m.value.is_finite(),
                    "{} {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let parsed = args("--workload tcp-fine --seed 9 --seconds 12 --trace 1 --json out.json")
            .expect("valid");
        assert_eq!(parsed.workload, Some(Workload::TcpFine));
        assert_eq!(parsed.settings.seed, 9);
        assert_eq!(parsed.settings.seconds, 12.0);
        assert!(parsed.settings.traced);
        assert_eq!(args("--workload all").expect("valid").workload, None);
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = json_line(true, 3, 0, &[("a_ms".into(), 1.25, "ms".into())]);
        let doc = json::parse(&line).expect("valid JSON");
        let Json::Object(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("a_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
