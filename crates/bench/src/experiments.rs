//! Experiment runners, one per table/figure of the paper's evaluation.
//!
//! Every runner uses [`rose::mission`]'s configurations so the binaries
//! and integration tests measure the same scenarios. Mission sweeps are
//! independent per point (each has its own seed and state), so they fan
//! out over [`crate::parallel::parallel_map`] with the worker count from
//! `--jobs`.

use crate::parallel::{default_jobs, parallel_map};
use crate::report::TextTable;
use crate::timing::with_timing_cache;
use rose::app::ControllerChoice;
use rose::mission::{run_mission, run_remote_mission, MissionConfig, MissionReport};
use rose::snapshot::{Mission, MissionSnapshot};
use rose_bridge::faults::FaultPlan;
use rose_bridge::sync::rtl_wall;
use rose_bridge::transport::TcpTransport;
use rose_dnn::lower::time_inference;
use rose_dnn::DnnModel;
use rose_envsim::WorldKind;
use rose_sim_core::csv::CsvLog;
use rose_sim_core::cycles::{FrameSpec, SyncRatio};
use rose_socsim::SocConfig;
use rose_trace::Phase;
use std::net::TcpListener;

/// Table 2: the evaluated hardware configurations.
pub fn table2() -> TextTable {
    let mut t = TextTable::new(&["Configuration", "CPU", "Accelerator", "Clock"]);
    for config in [
        SocConfig::config_a(),
        SocConfig::config_b(),
        SocConfig::config_c(),
    ] {
        t.row(vec![
            config.name.clone(),
            match config.core {
                rose_socsim::CoreKind::Boom => "3-wide BOOM".to_string(),
                rose_socsim::CoreKind::Rocket => "Rocket".to_string(),
            },
            if config.has_accelerator() {
                "Gemmini (4x4 FP32, 256KiB spad)".to_string()
            } else {
                "None".to_string()
            },
            config.clock.to_string(),
        ]);
    }
    t
}

/// One Table 3 row: measured latencies and validation accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// The DNN variant.
    pub model: DnnModel,
    /// Latency on config A (BOOM+Gemmini), ms.
    pub boom_ms: f64,
    /// Latency on config B (Rocket+Gemmini), ms.
    pub rocket_ms: f64,
    /// Validation accuracy (calibration input).
    pub accuracy: f64,
}

/// Table 3: DNN controller latency and accuracy.
pub fn table3() -> Vec<Table3Row> {
    let a = SocConfig::config_a();
    let b = SocConfig::config_b();
    DnnModel::all()
        .iter()
        .map(|&model| Table3Row {
            model,
            boom_ms: time_inference(&a, model) as f64 / 1e6,
            rocket_ms: time_inference(&b, model) as f64 / 1e6,
            accuracy: model.validation_accuracy(),
        })
        .collect()
}

/// One closed-loop run labeled by its sweep coordinates.
#[derive(Debug, Clone)]
pub struct LabeledRun {
    /// Sweep label (config name, model, velocity, ...).
    pub label: String,
    /// The mission outcome.
    pub report: MissionReport,
}

/// Synchronization periods in the shared fig10 boot prefix: 0.25 s of
/// simulated time, before the first inference lands a command — the UAV
/// still flies straight, so an in-place yaw rotation at the checkpoint is
/// equivalent to having launched at that heading.
const FIG10_BOOT_SYNCS: u64 = 15;

/// Figure 10: UAV trajectories for hardware configs A/B/C with initial
/// angles −20°/0°/+20° in `tunnel`, ResNet14 at 3 m/s.
///
/// The boot prefix (simulator reset, first frames, SoC cache and
/// cost-model warm-up) is identical across the yaw sweep, so each SoC
/// configuration boots **once**: each of the three yaw branches resumes
/// its own copy of the shared [`MissionSnapshot`] and diverges via
/// [`Mission::perturb_yaw`], instead of re-simulating the boot once per
/// sweep point.
pub fn fig10() -> Vec<LabeledRun> {
    let configs = vec![
        SocConfig::config_a(),
        SocConfig::config_b(),
        SocConfig::config_c(),
    ];
    let boots = parallel_map(configs, default_jobs(), |config| {
        let mission = with_timing_cache(MissionConfig {
            soc: config.clone(),
            max_sim_seconds: 45.0,
            ..MissionConfig::default()
        });
        let mut boot = Mission::start(&mission);
        boot.run_syncs(FIG10_BOOT_SYNCS);
        (config, boot.snapshot())
    });
    let scenarios: Vec<(String, MissionSnapshot, f64)> = boots
        .into_iter()
        .flat_map(|(config, snap)| {
            [-20.0, 0.0, 20.0]
                .map(|yaw| (format!("{}/yaw{:+.0}", config.name, yaw), snap.clone(), yaw))
        })
        .collect();
    parallel_map(scenarios, default_jobs(), |(label, snap, yaw)| {
        let mut branch = snap
            .resume()
            .expect("fig10 boot checkpoint must resume (snapshot round-trip bug)");
        branch.perturb_yaw(f64::to_radians(yaw));
        LabeledRun {
            label,
            report: branch.run_to_completion(),
        }
    })
}

/// Runs labeled mission configs on the sweep worker pool, keeping order.
/// Every point runs against the process-wide timing cache: sweeps revisit
/// the same CPU kernels constantly, which is exactly the reuse the cache
/// converts into replays.
fn run_labeled(scenarios: Vec<(String, MissionConfig)>) -> Vec<LabeledRun> {
    parallel_map(scenarios, default_jobs(), |(label, mission)| LabeledRun {
        label,
        report: run_mission(&with_timing_cache(mission)),
    })
}

/// Figure 11: DNN architecture sweep in `s-shape` at 9 m/s on config A.
pub fn fig11() -> Vec<(DnnModel, MissionReport)> {
    let scenarios: Vec<DnnModel> = DnnModel::all().to_vec();
    parallel_map(scenarios, default_jobs(), |model| {
        let mission = with_timing_cache(MissionConfig {
            world: WorldKind::SShape,
            velocity: 9.0,
            controller: ControllerChoice::Static(model),
            max_sim_seconds: 60.0,
            ..MissionConfig::default()
        });
        (model, run_mission(&mission))
    })
}

/// Figure 12: velocity-target sweep (6/9/12 m/s), ResNet14 on A, `s-shape`.
pub fn fig12() -> Vec<(f64, MissionReport)> {
    parallel_map(vec![6.0, 9.0, 12.0], default_jobs(), |velocity| {
        let mission = with_timing_cache(MissionConfig {
            world: WorldKind::SShape,
            velocity,
            max_sim_seconds: 60.0,
            ..MissionConfig::default()
        });
        (velocity, run_mission(&mission))
    })
}

/// Figure 13: static vs dynamic DNN selection — application runtime and
/// accelerator activity factor.
pub fn fig13() -> Vec<LabeledRun> {
    let scenarios = [
        (
            "static-ResNet14",
            ControllerChoice::Static(DnnModel::ResNet14),
        ),
        (
            "static-ResNet6",
            ControllerChoice::Static(DnnModel::ResNet6),
        ),
        ("dynamic", ControllerChoice::dynamic_default()),
    ]
    .into_iter()
    .map(|(label, controller)| {
        let mission = MissionConfig {
            world: WorldKind::SShape,
            velocity: 9.0,
            controller,
            max_sim_seconds: 60.0,
            ..MissionConfig::default()
        };
        (label.to_string(), mission)
    })
    .collect();
    run_labeled(scenarios)
}

/// Figure 14: hardware × algorithm co-design sweep (BOOM+Gemmini and
/// Rocket+Gemmini across the DNN variants) in `s-shape` at 9 m/s.
pub fn fig14() -> Vec<LabeledRun> {
    let mut scenarios = Vec::new();
    for config in [SocConfig::config_a(), SocConfig::config_b()] {
        for model in [
            DnnModel::ResNet6,
            DnnModel::ResNet11,
            DnnModel::ResNet14,
            DnnModel::ResNet18,
        ] {
            let mission = MissionConfig {
                soc: config.clone(),
                world: WorldKind::SShape,
                velocity: 9.0,
                controller: ControllerChoice::Static(model),
                max_sim_seconds: 60.0,
                ..MissionConfig::default()
            };
            scenarios.push((format!("{}/{}", config.name, model), mission));
        }
    }
    run_labeled(scenarios)
}

/// One Figure 15 measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig15Point {
    /// Environment frames per synchronization.
    pub frames_per_sync: u64,
    /// SoC cycles per synchronization.
    pub cycles_per_sync: u64,
    /// Simulation throughput: simulated SoC MHz per wall second.
    pub sim_mhz: f64,
    /// Wall seconds the environment spent stepping frames.
    pub env_wall_s: f64,
    /// Wall seconds the RTL side spent consuming cycle grants (for the
    /// TCP deployment this includes the per-sync round trips).
    pub rtl_wall_s: f64,
}

/// Figure 15: co-simulation throughput vs synchronization granularity.
///
/// Runs the co-simulation with the RTL side behind a localhost TCP
/// transport (the paper's deployment), sweeping the synchronization
/// granularity from 10M to 400M cycles (1–40 frames at 100 fps / 1 GHz)
/// and measuring simulated-cycles-per-wall-second. Fine granularity is
/// bottlenecked by the per-sync round trip; coarse granularity approaches
/// the RTL simulator's native speed.
pub fn fig15(sim_seconds_per_point: f64) -> Vec<Fig15Point> {
    [1u64, 2, 4, 10, 20, 40]
        .iter()
        .map(|&frames_per_sync| {
            let mission = with_timing_cache(MissionConfig {
                frame_hz: 100,
                frames_per_sync,
                max_sim_seconds: sim_seconds_per_point,
                ..MissionConfig::default()
            });
            // Serve the SoC behind TCP, as FireSim is in the paper.
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind fig15 listener");
            let addr = listener.local_addr().expect("listener addr");
            let client = TcpTransport::connect(addr).expect("connect");
            let server = TcpTransport::accept(&listener).expect("accept");
            let ratio = SyncRatio::new(mission.soc.clock, FrameSpec::from_hz(mission.frame_hz));
            let run = run_remote_mission(&mission, client, server, FaultPlan::default()).report;
            let profile = &run.profile;
            Fig15Point {
                frames_per_sync,
                cycles_per_sync: ratio.cycles_for_frames(frames_per_sync),
                sim_mhz: run.sync_stats.throughput_hz(profile.total_wall()) / 1e6,
                env_wall_s: profile.total(Phase::EnvStep).as_secs_f64(),
                rtl_wall_s: rtl_wall(profile).as_secs_f64(),
            }
        })
        .collect()
}

/// One Figure 16 measurement point.
#[derive(Debug, Clone)]
pub struct Fig16Run {
    /// Frames per synchronization.
    pub frames_per_sync: u64,
    /// Cycles per synchronization.
    pub cycles_per_sync: u64,
    /// The mission outcome (trajectory + latencies).
    pub report: MissionReport,
}

/// Figure 16: effect of synchronization granularity on trajectories and
/// on image-request → DNN-response latency. Same initial conditions
/// (tunnel, +20°, ResNet14 at 3 m/s); granularity swept 10M–400M cycles.
pub fn fig16() -> Vec<Fig16Run> {
    let granularities = vec![1u64, 2, 4, 10, 20, 40];
    parallel_map(granularities, default_jobs(), |frames_per_sync| {
        let mission = MissionConfig {
            frame_hz: 100,
            frames_per_sync,
            initial_yaw_deg: 20.0,
            max_sim_seconds: 45.0,
            ..MissionConfig::default()
        };
        let ratio = SyncRatio::new(mission.soc.clock, FrameSpec::from_hz(mission.frame_hz));
        let report = run_mission(&with_timing_cache(mission));
        Fig16Run {
            frames_per_sync,
            cycles_per_sync: ratio.cycles_for_frames(frames_per_sync),
            report,
        }
    })
}

/// Renders a set of labeled runs as the standard mission-metrics table.
pub fn mission_table(runs: &[LabeledRun]) -> TextTable {
    let mut t = TextTable::new(&[
        "run",
        "complete",
        "time_s",
        "collisions",
        "avg_v",
        "latency_ms",
        "activity",
        "inferences",
    ]);
    for run in runs {
        let r = &run.report;
        t.row(vec![
            run.label.clone(),
            r.completed.to_string(),
            r.mission_time_s.map_or("-".into(), |t| format!("{t:.2}")),
            r.collisions.to_string(),
            format!("{:.2}", r.avg_velocity),
            format!("{:.0}", r.mean_latency_ms),
            format!("{:.3}", r.activity_factor),
            r.inference_count.to_string(),
        ]);
    }
    t
}

/// Serializes trajectories of labeled runs into one long-format CSV
/// (`run_index,t,x,y`).
pub fn trajectories_csv(runs: &[LabeledRun]) -> CsvLog {
    let mut log = CsvLog::new(&["run", "t", "x", "y"]);
    for (i, run) in runs.iter().enumerate() {
        for p in &run.report.trajectory {
            log.row(&[i as f64, p.t, p.position.x, p.position.y]);
        }
    }
    log
}

/// Smoke configuration used by integration tests: a short mission that
/// exercises the full stack in under a second.
pub fn smoke_mission() -> MissionReport {
    let mission = MissionConfig {
        max_sim_seconds: 2.0,
        ..MissionConfig::default()
    };
    run_mission(&mission)
}
