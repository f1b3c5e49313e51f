//! The mission runner: one closed-loop flight, configured end to end.
//!
//! A mission wires the full Figure 3 stack together — environment
//! ([`rose_envsim::UavSim`] + [`rose_flightctl::SimpleFlight`]), hardware
//! ([`rose_socsim::Soc`] running a [`crate::app::TrailNavApp`]), and the
//! lockstep [`rose_bridge::Synchronizer`] — runs it until the UAV reaches
//! the goal (or times out), and reports the paper's quantitative metrics:
//! mission time, average flight velocity, collision count, inference
//! latency, and accelerator activity factor.
//!
//! Every program and every topology flies one loop, `drive_mission`: the
//! in-process SoC ([`run_mission`]), any other target program on it
//! ([`run_program_mission`]: the multi-tenant mission, the classical MPC
//! of [`crate::mpc`] and the sensor fusion of [`crate::fusion`]), and the
//! SoC behind a transport: served from its own thread over TCP
//! ([`run_remote_mission`]), or inline on the calling thread behind a
//! fault injector ([`run_mission_with_faults`]). Only the per-endpoint
//! inputs of each quantum's flight sample differ.

use crate::app::{AppMetrics, ControlGains, ControllerChoice, TrailNavApp};
use crate::envside::CoSimEnv;
use crate::rtlside::SocRtl;
use crate::snapshot::Mission;
use rose_bridge::faults::{FaultPlan, FaultStats, FaultyTransport};
use rose_bridge::sync::{
    rtl_wall, serve_rtl, InlineTransport, RecoveryPolicy, RecoveryStats, RemoteRtl, RtlSide,
    SyncConfig, SyncMode, SyncStats, Synchronizer,
};
use rose_bridge::transport::Transport;
use rose_dnn::DnnModel;
use rose_envsim::uav::{TrajectoryPoint, UavSim, UavSimConfig};
use rose_envsim::world::{World, WorldKind};
use rose_flightctl::SimpleFlight;
use rose_sim_core::csv::{CsvCell, CsvLog};
use rose_sim_core::cycles::{FrameSpec, SyncRatio};
use rose_sim_core::lock;
use rose_sim_core::math::Vec3;
use rose_sim_core::rng::SimRng;
use rose_socsim::soc::SocStats;
use rose_socsim::{Soc, SocConfig, TargetProgram};
use rose_trace::{
    FlightRecorder, FlightSample, Phase, Profiler, TimingCacheCounts, TraceClock, TraceLog, Tracer,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Full configuration of one mission.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionConfig {
    /// The SoC under evaluation (Table 2).
    pub soc: SocConfig,
    /// Controller selection (static DNN or dynamic runtime).
    pub controller: ControllerChoice,
    /// The environment (Figure 9).
    pub world: WorldKind,
    /// Forward velocity target in m/s.
    pub velocity: f64,
    /// Initial heading relative to the corridor, degrees (Figure 10 uses
    /// −20°, 0°, +20°).
    pub initial_yaw_deg: f64,
    /// Environment frame rate.
    pub frame_hz: u32,
    /// Frames per synchronization period (granularity of Figures 15/16).
    pub frames_per_sync: u64,
    /// Inert: every period runs on one thread whatever this says. Kept so
    /// snapshots keep their config byte and existing configurations keep
    /// compiling ([`SyncMode`]).
    pub sync_mode: SyncMode,
    /// Deterministic seed for all stochastic components.
    pub seed: u64,
    /// Wall on simulated time; missions that have not reached the goal by
    /// then report `completed = false`.
    pub max_sim_seconds: f64,
    /// Controller gains (Equation 2).
    pub gains: ControlGains,
    /// Record a cycle-accurate event trace of the run. Off by default:
    /// every component then pays only a branch per would-be event. The
    /// collected trace is returned in [`MissionReport::trace`].
    pub trace: bool,
    /// Per-frame control-loop deadline budget in simulated seconds.
    /// When positive, every image-request → command latency above the
    /// budget counts a deadline miss (triggering a flight-recorder
    /// postmortem) in [`AppMetrics::deadline_misses`]. 0 disables the
    /// check.
    pub deadline_budget_s: f64,
    /// Depth-sensor blackout windows `[start, end)` in simulated seconds:
    /// inside a window the sensor answers the invalid-reading sentinel
    /// and the application degrades to its conservative ladder.
    pub depth_blackouts: Vec<(f64, f64)>,
    /// Scheduled accelerometer bias step changes `(at_seconds, delta)`,
    /// modeling in-flight IMU degradation.
    pub imu_bias_steps: Vec<(f64, Vec3)>,
    /// Transport-fault recovery policy for deployments that place the RTL
    /// behind a transport ([`run_mission_with_faults`]).
    pub recovery: RecoveryPolicy,
    /// Consecutive degraded control-loop iterations (invalid depth or
    /// missed deadline) after which the application requests a clean
    /// mission abort. 0 (the default) never aborts.
    pub degraded_abort_streak: u64,
    /// Optional shared timing cache (DESIGN.md §4i): the SoC replays
    /// previously expanded CPU-kernel costs instead of re-deriving them,
    /// with bit-identical mission digests. `None` (the default) runs every
    /// mission cold.
    pub timing_cache: Option<rose_socsim::SharedTimingCache>,
}

impl Default for MissionConfig {
    fn default() -> MissionConfig {
        MissionConfig {
            soc: SocConfig::config_a(),
            controller: ControllerChoice::Static(DnnModel::ResNet14),
            world: WorldKind::Tunnel,
            velocity: 3.0,
            initial_yaw_deg: 0.0,
            frame_hz: 60,
            frames_per_sync: 1,
            sync_mode: SyncMode::Parallel,
            seed: 0x0520_2306,
            max_sim_seconds: 90.0,
            gains: ControlGains::default(),
            trace: false,
            deadline_budget_s: 0.0,
            depth_blackouts: Vec::new(),
            imu_bias_steps: Vec::new(),
            recovery: RecoveryPolicy::default(),
            degraded_abort_streak: 0,
            timing_cache: None,
        }
    }
}

impl MissionConfig {
    /// The clock mapping both simulated time domains (SoC cycles and
    /// environment frames) onto one trace timeline.
    pub fn trace_clock(&self) -> TraceClock {
        TraceClock::new(self.soc.clock, FrameSpec::from_hz(self.frame_hz))
    }

    /// Serializes the configuration into a snapshot stream. A snapshot is
    /// self-contained: resume rebuilds the mission structure from this
    /// embedded config, then overlays the dynamic state.
    pub fn save_state(&self, w: &mut rose_sim_core::snap::SnapWriter) {
        let MissionConfig {
            soc,
            controller,
            world,
            velocity,
            initial_yaw_deg,
            frame_hz,
            frames_per_sync,
            sync_mode,
            seed,
            max_sim_seconds,
            gains,
            trace,
            deadline_budget_s,
            depth_blackouts,
            imu_bias_steps,
            recovery,
            degraded_abort_streak,
            // Structural, host-local attachment: a resumed mission decides
            // its own cache (like the recovery policy's re-arming), and the
            // digest contract makes the choice unobservable anyway.
            timing_cache: _,
        } = self;
        soc.save_state(w);
        controller.save_state(w);
        w.tag(world);
        w.f64(*velocity);
        w.f64(*initial_yaw_deg);
        w.u32(*frame_hz);
        w.u64(*frames_per_sync);
        w.tag(sync_mode);
        w.u64(*seed);
        w.f64(*max_sim_seconds);
        gains.save_state(w);
        w.bool(*trace);
        w.f64(*deadline_budget_s);
        w.seq(depth_blackouts, |w, &(start, end)| {
            w.f64(start);
            w.f64(end);
        });
        w.seq(imu_bias_steps, |w, (at, delta)| {
            w.f64(*at);
            delta.save_state(w);
        });
        w.u32(recovery.max_retries);
        w.u32(recovery.backoff_base);
        w.u32(recovery.backoff_cap);
        w.u64(*degraded_abort_streak);
    }

    /// Restores a configuration from a snapshot stream.
    ///
    /// # Errors
    ///
    /// Propagates [`rose_sim_core::snap::SnapError`] on a malformed
    /// snapshot; a zero frame rate or zero frames per sync (which no
    /// mission can be built from) is rejected as
    /// [`rose_sim_core::snap::SnapError::BadTag`].
    pub fn restore_state(
        r: &mut rose_sim_core::snap::SnapReader<'_>,
    ) -> Result<MissionConfig, rose_sim_core::snap::SnapError> {
        let soc = SocConfig::restore_state(r)?;
        let controller = ControllerChoice::restore_state(r)?;
        let world = r.tag()?;
        let velocity = r.f64()?;
        let initial_yaw_deg = r.f64()?;
        let frame_hz = r.u32()?;
        let frames_per_sync = r.u64()?;
        for (context, value) in [
            ("MissionConfig.frame_hz", u64::from(frame_hz)),
            ("MissionConfig.frames_per_sync", frames_per_sync),
        ] {
            if value == 0 {
                return Err(rose_sim_core::snap::SnapError::BadTag { context, tag: 0 });
            }
        }
        let sync_mode = r.tag()?;
        let seed = r.u64()?;
        let max_sim_seconds = r.f64()?;
        let gains = ControlGains::restore_state(r)?;
        let trace = r.bool()?;
        let deadline_budget_s = r.f64()?;
        let depth_blackouts = r.seq(|r| Ok((r.f64()?, r.f64()?)))?;
        let imu_bias_steps = r.seq(|r| Ok((r.f64()?, Vec3::restore_state(r)?)))?;
        let recovery = RecoveryPolicy {
            max_retries: r.u32()?,
            backoff_base: r.u32()?,
            backoff_cap: r.u32()?,
        };
        Ok(MissionConfig {
            soc,
            controller,
            world,
            velocity,
            initial_yaw_deg,
            frame_hz,
            frames_per_sync,
            sync_mode,
            seed,
            max_sim_seconds,
            gains,
            trace,
            deadline_budget_s,
            depth_blackouts,
            imu_bias_steps,
            recovery,
            degraded_abort_streak: r.u64()?,
            timing_cache: None,
        })
    }

    /// The number of synchronization periods implied by the simulated-time
    /// wall ([`MissionConfig::max_sim_seconds`]).
    pub fn max_syncs(&self) -> u64 {
        (self.max_sim_seconds * self.frame_hz as f64 / self.frames_per_sync as f64).ceil() as u64
    }
}

/// The outcome of one mission.
#[derive(Debug, Clone)]
pub struct MissionReport {
    /// True if the UAV crossed the goal plane before the time limit.
    pub completed: bool,
    /// Simulated seconds to goal (`None` if not completed).
    pub mission_time_s: Option<f64>,
    /// Total simulated seconds executed.
    pub sim_time_s: f64,
    /// Collision events during the flight.
    pub collisions: u32,
    /// Average flight velocity along the corridor (goal distance over
    /// mission time), m/s; 0 if not completed.
    pub avg_velocity: f64,
    /// Per-frame trajectory.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Inferences completed.
    pub inference_count: u64,
    /// Mean image-request → command latency in milliseconds (Figure 16c).
    pub mean_latency_ms: f64,
    /// Fraction of inferences served by the fast network (dynamic only).
    pub fast_fraction: f64,
    /// Accelerator activity factor (Section 5.3 / Figure 13).
    pub activity_factor: f64,
    /// Mission energy (first-order model, see `rose_socsim::energy`).
    pub energy: rose_socsim::energy::EnergyReport,
    /// Raw SoC counters.
    pub soc_stats: SocStats,
    /// Synchronizer progress counters.
    pub sync_stats: SyncStats,
    /// Application-level counters (inference latencies, model selections).
    pub app: AppMetrics,
    /// The merged cycle-accurate event trace, present when
    /// [`MissionConfig::trace`] was set.
    pub trace: Option<TraceLog>,
    /// Host wall-clock self-profile of the run (env step / RTL grant /
    /// trace overhead / recovery / cost model) — the run's only wall
    /// time record, so throughput derives from its total. Telemetry: never
    /// an input to the determinism digest (DESIGN.md §4f).
    pub profile: Profiler,
    /// Postmortem JSON documents the flight recorder dumped during the
    /// run (one per trigger: collision, deadline miss, transport fault).
    pub postmortems: Vec<String>,
    /// Flight-recorder ring occupancy at mission end.
    pub flight_occupancy: usize,
    /// Flight-recorder ring capacity.
    pub flight_capacity: usize,
}

impl MissionReport {
    /// Dumps the trajectory as a CSV table (`t,x,y,z,vx,vy,vz,yaw,collision`),
    /// matching the synchronizer CSV logs of the artifact.
    pub fn trajectory_csv(&self) -> CsvLog {
        let mut log = CsvLog::new(&["t", "x", "y", "z", "vx", "vy", "vz", "yaw", "collision"]);
        for p in &self.trajectory {
            log.row(&[
                p.t,
                p.position.x,
                p.position.y,
                p.position.z,
                p.velocity.x,
                p.velocity.y,
                p.velocity.z,
                p.yaw,
                p.in_collision as u8 as f64,
            ]);
        }
        log
    }

    /// Lists every counter of the run — SoC, synchronizer, energy,
    /// application, host profile and mission-level outcomes — as one
    /// `metric,kind,value` table sorted by name (the `--metrics` CSV of
    /// `profile_mission`). Integer cells are `counter`s, real ones
    /// `gauge`s.
    pub fn metrics_csv(&self) -> CsvLog {
        let (soc, sync, energy, app) = (&self.soc_stats, &self.sync_stats, &self.energy, &self.app);
        let mut rows: Vec<(String, CsvCell)> = Vec::new();
        let mut row = |name: &str, value: CsvCell| rows.push((name.to_string(), value));
        let flag = |set: bool| CsvCell::Float(f64::from(u8::from(set)));
        let wall = self.profile.total_wall();
        row("soc.cycles", soc.cycles.into());
        row("soc.idle_cycles", soc.idle_cycles.into());
        row("soc.accel_cycles", soc.accel_cycles.into());
        row("soc.accel_macs", soc.accel_macs.into());
        row("soc.activity_factor", soc.activity_factor().into());
        row("soc.cpu.instrs", soc.cpu.instrs.into());
        row("soc.cpu.cycles", soc.cpu.cycles.into());
        row("soc.cpu.mispredicts", soc.cpu.mispredicts.into());
        row("soc.cpu.ipc", soc.cpu.ipc().into());
        for (prefix, cache) in [("soc.l1", &soc.l1), ("soc.l2", &soc.l2)] {
            row(&format!("{prefix}.hits"), cache.hits.into());
            row(&format!("{prefix}.misses"), cache.misses.into());
            row(&format!("{prefix}.writebacks"), cache.writebacks.into());
            row(&format!("{prefix}.miss_ratio"), cache.miss_ratio().into());
        }
        row("soc.bridge.rx_msgs", soc.bridge.rx_msgs.into());
        row("soc.bridge.rx_bytes", soc.bridge.rx_bytes.into());
        row("soc.bridge.tx_msgs", soc.bridge.tx_msgs.into());
        row("soc.bridge.tx_bytes", soc.bridge.tx_bytes.into());
        row("sync.syncs", sync.syncs.into());
        row("sync.sim_cycles", sync.sim_cycles.into());
        row("sync.sim_frames", sync.sim_frames.into());
        row("sync.data_to_env", sync.data_to_env.into());
        row("sync.data_to_rtl", sync.data_to_rtl.into());
        row("sync.throughput_hz", sync.throughput_hz(wall).into());
        row("energy.core_mj", energy.core_mj.into());
        row("energy.accel_mj", energy.accel_mj.into());
        row("energy.dram_mj", energy.dram_mj.into());
        row("energy.static_mj", energy.static_mj.into());
        row("energy.total_mj", energy.total_mj().into());
        row("energy.average_mw", energy.average_mw().into());
        row("energy.seconds", energy.seconds.into());
        row("app.inferences", app.inferences().into());
        row("app.commands", app.commands().into());
        row("app.fast_inferences", app.fast_inferences.into());
        row("app.deadline_switches", app.deadline_switches.into());
        row("app.deadline_misses", app.deadline_misses.into());
        row("app.degraded_depth", app.degraded_depth.into());
        row("app.classical_commands", app.classical_commands.into());
        row("app.lost_responses", app.lost_responses.into());
        row("app.abort_requested", flag(app.abort_requested));
        row("app.mean_latency_cycles", app.mean_latency_cycles().into());
        for phase in Phase::ALL {
            let name = phase.name();
            let (total_us, calls) = (
                self.profile.total(phase).as_secs_f64() * 1e6,
                self.profile.count(phase),
            );
            row(&format!("profile.{name}.total_us"), total_us.into());
            row(&format!("profile.{name}.calls"), calls.into());
        }
        row("mission.collisions", u64::from(self.collisions).into());
        let postmortems = self.postmortems.len() as u64;
        row("mission.postmortems", postmortems.into());
        row("mission.completed", flag(self.completed));
        row("mission.sim_time_s", self.sim_time_s.into());
        row("mission.avg_velocity", self.avg_velocity.into());
        row("mission.mean_latency_ms", self.mean_latency_ms.into());
        row("mission.activity_factor", self.activity_factor.into());
        for (name, slots) in [
            ("flight.ring_occupancy", self.flight_occupancy),
            ("flight.ring_capacity", self.flight_capacity),
        ] {
            row(name, (slots as f64).into());
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));

        let mut log = CsvLog::new(&["metric", "kind", "value"]);
        for (name, value) in rows {
            let kind = match value {
                CsvCell::Int(_) => "counter",
                _ => "gauge",
            };
            log.push_row(vec![name.into(), kind.into(), value]);
        }
        log
    }
}

/// Builds and runs one mission to completion (goal, abort, or timeout), with the
/// flight recorder sampling every synchronization boundary.
pub fn run_mission(config: &MissionConfig) -> MissionReport {
    Mission::start(config).run_to_completion()
}

/// What the mission loop reads from its RTL endpoint beyond the
/// [`RtlSide`] protocol: the per-topology inputs of each quantum's
/// [`FlightSample`]. The defaults describe an endpoint with no transport
/// and no trace buffer.
pub(crate) trait MissionRtl: RtlSide {
    /// True once the endpoint has latched a transport fault.
    fn fault_latched(&self) -> bool {
        false
    }

    /// Cumulative transport-recovery retries.
    fn recovery_retries(&self) -> u64 {
        0
    }
}

/// In-process RTL: no transport, so never a fault and never recovery
/// work.
impl MissionRtl for SocRtl {}

/// Remote RTL: the link can fault and recover. Attribution reads the
/// SoC's trace events through the transport
/// ([`RtlSide::recent_events`]), which sees them only when it serves the
/// SoC inline.
impl<T: Transport> MissionRtl for RemoteRtl<T> {
    fn fault_latched(&self) -> bool {
        self.fault().is_some()
    }

    fn recovery_retries(&self) -> u64 {
        self.recovery_stats().retries
    }
}

/// Flies `sync` to the end of the mission with `drive_mission` and a
/// fresh flight recorder, then reports, with `into_soc` handing back the
/// SoC the RTL endpoint drives.
pub(crate) fn fly_mission<R: MissionRtl>(
    config: &MissionConfig,
    mut sync: Synchronizer<CoSimEnv, R>,
    metrics: &Mutex<AppMetrics>,
    into_soc: impl FnOnce(R) -> SocRtl,
) -> MissionReport {
    let mut flight = FlightRecorder::default();
    let postmortems = drive_mission(config, &mut sync, metrics, &mut flight);
    let mut report = finish_report(config, sync, metrics, into_soc);
    report.postmortems = postmortems;
    report.flight_occupancy = flight.occupancy();
    report.flight_capacity = flight.capacity();
    report
}

/// Steps the co-simulation one synchronization period at a time until the
/// mission completes, the program halts or latches a fault, the
/// application requests an abort, or the simulated-time wall is reached,
/// feeding `flight` one [`FlightSample`] per quantum. Returns the
/// postmortem JSON documents the recorder dumped; each dump, and only a
/// dump, reads the mission's timing-cache counters.
///
/// The per-quantum loop is host bookkeeping only — the simulated system
/// sees exactly the same grant sequence as one
/// [`Synchronizer::run_until`] call, so trajectories and the determinism
/// digest are unchanged. It stays apart from the report assembly in
/// [`fly_mission`]: merged into one function, it measured about 2%
/// slower on the `flight-warm` benchmark workload (2-vCPU x86-64 VM).
fn drive_mission<R: MissionRtl>(
    config: &MissionConfig,
    sync: &mut Synchronizer<CoSimEnv, R>,
    metrics: &Mutex<AppMetrics>,
    flight: &mut FlightRecorder,
) -> Vec<String> {
    let max_syncs = config.max_syncs();
    let timing_cache = || {
        config.timing_cache.as_ref().map(|cache| {
            let (hits, misses) = cache.counters();
            TimingCacheCounts {
                hits,
                misses,
                entries: cache.len(),
            }
        })
    };
    let mut postmortems = Vec::new();
    while sync.stats().syncs < max_syncs {
        let before = *sync.stats();
        let walls_before = side_walls(sync.profiler());
        if sync.run_until(1, |env| env.sim().mission_complete()) == 0 {
            break; // mission complete, program halted, or fault latched
        }
        let after = *sync.stats();
        let walls_after = side_walls(sync.profiler());
        let [env_wall_us, rtl_wall_us, recovery_us] =
            std::array::from_fn(|i| (walls_after[i] - walls_before[i]).as_secs_f64() * 1e6);
        // One lock per quantum: nothing touches the metrics between the
        // sample and the abort check.
        let (deadline_misses, abort_requested) = {
            let m = lock(metrics);
            (m.deadline_misses, m.abort_requested)
        };
        let rtl = sync.rtl();
        let sample = FlightSample {
            sync: after.syncs,
            sim_time_s: sync.env().sim().time(),
            collisions: sync.env().sim().collision_count() as u64,
            deadline_misses,
            queue_depth: after.data_to_env - before.data_to_env,
            env_wall_us,
            rtl_wall_us,
            fault: rtl.fault_latched(),
            recovery_retries: rtl.recovery_retries(),
            recovery_us,
        };
        if let Some(pm) = flight.record(sample, rtl.recent_events(), timing_cache) {
            postmortems.push(pm);
        }
        if abort_requested {
            // The degradation ladder's last rung: wind down cleanly with
            // a postmortem instead of flying blind to the timeout.
            postmortems.push(flight.postmortem(
                "mission-abort",
                "sustained degraded-control streak",
                sync.rtl().recent_events(),
                timing_cache(),
            ));
            break;
        }
    }
    postmortems
}

/// The profiler's running totals for the three host-side walls of each
/// quantum — the environment's frames, the RTL side's grants, and the
/// fault recovery carved out of them — from which a [`FlightSample`]
/// takes its per-quantum deltas.
fn side_walls(profile: &Profiler) -> [Duration; 3] {
    [
        profile.total(Phase::EnvStep),
        rtl_wall(profile),
        profile.total(Phase::Recovery),
    ]
}

/// Constructs the full co-simulation for `config` without running it, for
/// callers that step it by hand: [`Mission`], its snapshot resume, and
/// the failure-injection tests that push packets between quanta.
pub fn build_mission(
    config: &MissionConfig,
) -> (Synchronizer<CoSimEnv, SocRtl>, Arc<Mutex<AppMetrics>>) {
    let (env, rtl, sync_config, metrics) = mission_parts(config);
    (synchronizer(config, sync_config, env, rtl), metrics)
}

/// A synchronizer over the mission's endpoints, tracing when `config`
/// asks for it.
fn synchronizer<R: RtlSide>(
    config: &MissionConfig,
    sync_config: SyncConfig,
    env: CoSimEnv,
    rtl: R,
) -> Synchronizer<CoSimEnv, R> {
    let mut sync = Synchronizer::new(sync_config, env, rtl);
    if config.trace {
        sync.set_tracer(Tracer::enabled(config.trace_clock()));
    }
    sync
}

/// Constructs the mission's endpoints without a synchronizer — used by
/// deployments that place the RTL side behind a transport
/// ([`run_remote_mission`]) and by harnesses that time each endpoint.
pub fn mission_parts(
    config: &MissionConfig,
) -> (CoSimEnv, SocRtl, SyncConfig, Arc<Mutex<AppMetrics>>) {
    let (app, metrics) = trail_nav_app(config);
    let (env, rtl, sync_config) = mission_parts_with_program(config, Box::new(app));
    (env, rtl, sync_config, metrics)
}

/// The mission's navigation application, configured from `config`:
/// controller, gains, deadline budget, and degradation-ladder abort.
fn trail_nav_app(config: &MissionConfig) -> (TrailNavApp, Arc<Mutex<AppMetrics>>) {
    let rng = SimRng::new(config.seed);
    let (mut app, metrics) = TrailNavApp::new(
        config.controller,
        config.soc.has_accelerator(),
        config.velocity,
        &rng,
    );
    app.set_gains(config.gains);
    app.set_deadline_budget(config.deadline_budget_s, config.soc.clock.hz() as f64);
    app.set_abort_after_degraded(config.degraded_abort_streak);
    (app, metrics)
}

/// Synchronization quanta a blocked sensor read waits before the SoC's RX
/// watchdog declares the response lost and lets the application degrade
/// (DESIGN.md §4h). Responses arrive within one quantum on a healthy
/// link; the margin keeps transient stall/reorder jitter from tripping
/// the watchdog spuriously.
pub const RX_TIMEOUT_QUANTA: u64 = 8;

/// Constructs the mission's endpoints around an arbitrary target program.
fn mission_parts_with_program(
    config: &MissionConfig,
    program: Box<dyn TargetProgram>,
) -> (CoSimEnv, SocRtl, SyncConfig) {
    let rng = SimRng::new(config.seed);
    let world = World::of_kind(config.world);

    // Environment + software-in-the-loop flight controller (Figure 7).
    let uav_config = UavSimConfig {
        frames: FrameSpec::from_hz(config.frame_hz),
        start_yaw: config.initial_yaw_deg.to_radians(),
        ..UavSimConfig::default()
    };
    let autopilot = SimpleFlight::default_for(uav_config.quad);
    let mut sim = UavSim::new(uav_config, world, Box::new(autopilot), &rng);
    // Sensor-degradation schedules are structural config: they are
    // re-applied here on every build, including a snapshot resume.
    sim.set_depth_blackouts(config.depth_blackouts.clone());
    sim.set_imu_bias_steps(config.imu_bias_steps.clone());
    if config.trace {
        sim.set_tracer(Tracer::enabled(config.trace_clock()));
    }
    // The mission's velocity target is active from launch; the DNN
    // controller refines lateral/angular targets once inferences arrive
    // (so high-latency SoCs fly uncorrected at speed, as in Figure 10c).
    sim.set_target(rose_envsim::api::VelocityTarget::forward(config.velocity));
    let env = CoSimEnv::new(sim);

    // Companion-computer SoC running the target application.
    let mut soc = Soc::new(config.soc.clone(), program);
    // Arm the blocked-Recv watchdog so a sensor response lost on a lossy
    // transport degrades the iteration instead of wedging the control
    // loop forever. Healthy links answer within one quantum, so the
    // window is unreachable on clean runs (behavior-neutral).
    soc.set_rx_timeout_quanta(RX_TIMEOUT_QUANTA);
    if config.trace {
        soc.set_tracer(Tracer::enabled(config.trace_clock()));
    }
    if let Some(cache) = &config.timing_cache {
        soc.set_timing_cache(cache.clone());
    }
    let rtl = SocRtl::new(soc);

    let ratio = SyncRatio::new(config.soc.clock, FrameSpec::from_hz(config.frame_hz));
    let sync_config = SyncConfig::new(ratio, config.frames_per_sync);
    (env, rtl, sync_config)
}

/// Runs a mission with `program` in place of the navigation application,
/// on the in-process SoC and through the loop every mission flies.
/// `metrics` holds the counters `program` records: its request → command
/// latencies give the report's `inference_count` and `mean_latency_ms`,
/// and an abort it requests winds the mission down.
pub fn run_program_mission(
    config: &MissionConfig,
    program: Box<dyn TargetProgram>,
    metrics: &Mutex<AppMetrics>,
) -> MissionReport {
    let (env, rtl, sync_config) = mission_parts_with_program(config, program);
    let sync = synchronizer(config, sync_config, env, rtl);
    fly_mission(config, sync, metrics, |rtl| rtl)
}

/// Runs a mission with a best-effort telemetry task time-sharing the
/// companion core with the control loop (the multi-tenant scenario the
/// paper motivates in §1). Returns the mission report plus the number of
/// telemetry blocks the background task processed.
pub fn run_mission_multitenant(
    config: &MissionConfig,
    sharing: rose_socsim::multitenant::TimeSharedConfig,
    telemetry_block_bytes: usize,
) -> (MissionReport, u64) {
    use rose_socsim::multitenant::{TelemetryTask, TimeShared};

    let (app, metrics) = trail_nav_app(config);
    let (telemetry, loops) = TelemetryTask::new(telemetry_block_bytes);
    let shared = TimeShared::new(Box::new(app), Box::new(telemetry), sharing);
    let report = run_program_mission(config, Box::new(shared), &metrics);
    let processed = loops.load(std::sync::atomic::Ordering::Relaxed);
    (report, processed)
}

/// Extracts the report from a synchronizer at its current position, with
/// `into_soc` handing back the SoC its RTL endpoint drives: the endpoint
/// itself in process, or the SoC behind the remote link once it is shut
/// down ([`fly_remote`]).
fn finish_report<R: RtlSide>(
    config: &MissionConfig,
    mut sync: Synchronizer<CoSimEnv, R>,
    metrics: &Mutex<AppMetrics>,
    into_soc: impl FnOnce(R) -> SocRtl,
) -> MissionReport {
    let sync_stats = *sync.stats();
    let profile = sync.profiler().clone();
    let sync_events = sync.take_trace_events();
    let (env, rtl) = sync.into_parts();
    let mut sim = env.into_sim();
    let mut soc = into_soc(rtl).into_soc();
    let soc_stats = soc.stats();
    // Merge each component's owned trace buffer into one chronological log.
    let trace = config.trace.then(|| {
        let mut log = TraceLog::new();
        log.extend(sim.take_trace_events());
        log.extend(soc.take_trace_events());
        log.extend(sync_events);
        log.sort_by_time();
        log
    });
    let m = lock(metrics);

    let completed = sim.mission_complete();
    let mission_time = completed.then(|| sim.time());
    let goal = sim.world().goal_x();
    let clock_hz = config.soc.clock.hz() as f64;
    MissionReport {
        completed,
        mission_time_s: mission_time,
        sim_time_s: sim.time(),
        collisions: sim.collision_count(),
        avg_velocity: mission_time.map_or(0.0, |t| if t > 0.0 { goal / t } else { 0.0 }),
        trajectory: sim.trajectory().to_vec(),
        inference_count: m.inferences(),
        mean_latency_ms: m.mean_latency_cycles() / clock_hz * 1e3,
        fast_fraction: if m.inferences() == 0 {
            0.0
        } else {
            m.fast_inferences as f64 / m.inferences() as f64
        },
        activity_factor: soc_stats.activity_factor(),
        energy: rose_socsim::energy::energy_of(&soc_stats, &config.soc),
        soc_stats,
        sync_stats,
        app: m.clone(),
        trace,
        profile,
        postmortems: Vec::new(),
        flight_occupancy: 0,
        flight_capacity: 0,
    }
}

/// Outcome of a mission flown with the SoC behind a transport.
#[derive(Debug, Clone)]
pub struct FaultedMissionReport {
    /// The ordinary mission report (trajectory, counters, postmortems).
    pub report: MissionReport,
    /// What the injector actually fired, by kind (all zero for an empty
    /// plan).
    pub fault_stats: FaultStats,
    /// What absorbing the faults cost the synchronizer.
    pub recovery: RecoveryStats,
    /// The latched fault's message, when the recovery policy was
    /// exhausted and the mission wound down early.
    pub latched: Option<String>,
    /// True when the application's degradation ladder requested a clean
    /// abort.
    pub aborted: bool,
}

/// Runs a mission with the RTL endpoint behind an in-process transport
/// wrapped in a deterministic fault injector — the full robustness
/// topology: sequenced packets, the recovery policy of
/// [`MissionConfig::recovery`], and the application's degradation ladder,
/// all under one seeded [`FaultPlan`].
///
/// The SoC is served inline, on the calling thread, by an
/// [`InlineTransport`]: the packets, faults and retries are those of
/// [`run_remote_mission`] over a
/// [`ChannelTransport`](rose_bridge::transport::ChannelTransport) pair,
/// without the server thread and its two wake-ups per quantum
/// (`tests/deployment.rs` checks the two against each other).
pub fn run_mission_with_faults(config: &MissionConfig, plan: FaultPlan) -> FaultedMissionReport {
    let (env, rtl, sync_config, metrics) = mission_parts(config);
    let client = InlineTransport::new(rtl);
    fly_remote(
        config,
        env,
        sync_config,
        &metrics,
        client,
        plan,
        InlineTransport::into_rtl,
    )
}

/// Runs a mission with the SoC served from its own thread by
/// [`serve_rtl`] on `server`, while the synchronizer drives it through
/// [`RemoteRtl`] over `client` — the paper's deployment when the pair is
/// a [`TcpTransport`](rose_bridge::transport::TcpTransport) connection.
///
/// The client side is wrapped in a [`FaultyTransport`] injecting `plan`
/// (an empty plan injects nothing) under [`MissionConfig::recovery`].
/// Transient faults are absorbed (and attributed to
/// [`Phase::Recovery`]); only an exhausted policy latches, winding the
/// mission down at the last completed sync boundary. The loop is
/// [`run_mission`]'s, so a clean link flies the in-process mission bit
/// for bit.
pub fn run_remote_mission<C, S>(
    config: &MissionConfig,
    client: C,
    server: S,
    plan: FaultPlan,
) -> FaultedMissionReport
where
    C: Transport,
    S: Transport + Send + 'static,
{
    let (env, rtl, sync_config, metrics) = mission_parts(config);
    let server_thread = std::thread::spawn(move || {
        let (mut server, mut rtl) = (server, rtl);
        let served = serve_rtl(&mut server, &mut rtl);
        (rtl, served)
    });
    fly_remote(config, env, sync_config, &metrics, client, plan, |client| {
        // After a latched fault no shutdown was sent, and dropping the
        // transport disconnects the server. That drop is why the runner
        // owns `client`: a borrowed one would outlive the join and leave
        // the server blocked forever.
        drop(client);
        let (rtl, served) = server_thread.join().expect("rtl server thread");
        debug_assert!(served.is_ok(), "server exited with {served:?}");
        rtl
    })
}

/// Flies the mission with the synchronizer driving [`RemoteRtl`] over
/// `client` wrapped in `plan`'s injector, then shuts the link down and
/// takes the SoC back with `into_soc`.
fn fly_remote<T: Transport>(
    config: &MissionConfig,
    env: CoSimEnv,
    sync_config: SyncConfig,
    metrics: &Mutex<AppMetrics>,
    client: T,
    plan: FaultPlan,
    into_soc: impl FnOnce(T) -> SocRtl,
) -> FaultedMissionReport {
    let remote = RemoteRtl::with_policy(FaultyTransport::new(client, plan), config.recovery);
    let sync = synchronizer(config, sync_config, env, remote);

    let (mut fault_stats, mut recovery, mut latched) = Default::default();
    let report = fly_mission(config, sync, metrics, |remote| {
        fault_stats = *remote.transport().stats();
        recovery = *remote.recovery_stats();
        latched = remote.fault().map(|e| e.to_string());
        // Orderly shutdown when healthy; on a latched fault this returns
        // the error without sending.
        let (faulty, _) = remote.close();
        into_soc(faulty.into_inner())
    });
    FaultedMissionReport {
        aborted: report.app.abort_requested,
        report,
        fault_stats,
        recovery,
        latched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_mission_produces_consistent_report() {
        let config = MissionConfig {
            max_sim_seconds: 3.0,
            ..MissionConfig::default()
        };
        let report = run_mission(&config);
        assert!(!report.completed, "3 s is not enough for 50 m at 3 m/s");
        assert_eq!(report.trajectory.len(), 180); // 3 s at 60 fps

        // One clock position, counted once by the synchronizer: both
        // simulators advanced by exactly its grants.
        assert_eq!(report.sync_stats.sim_cycles, report.soc_stats.cycles);
        assert_eq!(report.sync_stats.sim_frames, report.trajectory.len() as u64);
        assert!(report.sim_time_s >= 3.0);
        assert!(report.inference_count >= 1, "at least one control update");
        assert!(report.mean_latency_ms > 50.0, "latency includes inference");
        assert!(report.activity_factor > 0.0);
        // The UAV should be moving forward by the end.
        let last = report.trajectory.last().unwrap();
        assert!(last.position.x > 1.0, "x = {}", last.position.x);
    }

    #[test]
    fn deterministic_missions() {
        let config = MissionConfig {
            max_sim_seconds: 2.0,
            ..MissionConfig::default()
        };
        let a = run_mission(&config);
        let b = run_mission(&config);
        let pa = a.trajectory.last().unwrap().position;
        let pb = b.trajectory.last().unwrap().position;
        assert_eq!(pa, pb, "same seed must reproduce the trajectory");
        assert_eq!(a.inference_count, b.inference_count);
    }

    #[test]
    fn different_seeds_diverge() {
        let base = MissionConfig {
            max_sim_seconds: 2.0,
            ..MissionConfig::default()
        };
        let a = run_mission(&base);
        let b = run_mission(&MissionConfig {
            seed: 999,
            ..base.clone()
        });
        let pa = a.trajectory.last().unwrap().position;
        let pb = b.trajectory.last().unwrap().position;
        assert_ne!(pa, pb, "different seeds should perturb the flight");
    }

    #[test]
    fn traced_mission_merges_all_tracks_and_metrics_match_the_report() {
        let config = MissionConfig {
            max_sim_seconds: 2.0,
            trace: true,
            ..MissionConfig::default()
        };
        let report = run_mission(&config);
        let log = report.trace.as_ref().expect("trace requested");

        // Every layer of the stack contributed events, merged in time order.
        assert_eq!(log.count_named("env-frame"), report.trajectory.len());
        assert_eq!(
            log.count_named("sync-quantum") as u64,
            report.sync_stats.syncs
        );
        assert_eq!(
            log.count_named("bridge-packet") as u64,
            report.sync_stats.data_to_env + report.sync_stats.data_to_rtl
        );
        assert!(log.count_named("gemmini-tile") > 0, "accelerator ran");
        assert!(
            log.events().windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
            "merged log is chronological"
        );

        // The metrics table lists the report's own fields, sorted by name,
        // and each row's kind follows its cell: integer → counter.
        let csv = report.metrics_csv();
        assert_eq!(csv.header(), ["metric", "kind", "value"]);
        assert_eq!(csv.len(), 63);
        let name = |row: &[CsvCell]| row[0].to_string();
        assert!(csv.rows().windows(2).all(|w| name(&w[0]) < name(&w[1])));
        for row in csv.rows() {
            let kind = match row[2] {
                CsvCell::Int(_) => "counter",
                CsvCell::Float(_) => "gauge",
                CsvCell::Str(_) => panic!("text value in {}", name(row)),
            };
            assert_eq!(row[1], CsvCell::from(kind), "{}", name(row));
        }
        let value = |metric: &str| {
            csv.rows()
                .iter()
                .find(|row| name(row) == metric)
                .map(|row| row[2].clone())
        };
        let expected: [(&str, CsvCell); 6] = [
            ("soc.l2.misses", report.soc_stats.l2.misses.into()),
            ("soc.l1.misses", report.soc_stats.l1.misses.into()),
            ("sync.syncs", report.sync_stats.syncs.into()),
            ("app.inferences", report.inference_count.into()),
            ("energy.total_mj", report.energy.total_mj().into()),
            (
                "app.mean_latency_cycles",
                report.app.mean_latency_cycles().into(),
            ),
        ];
        for (metric, cell) in expected {
            assert_eq!(value(metric), Some(cell), "{metric}");
        }

        // An untraced mission carries no log (and records no events).
        let quiet = run_mission(&MissionConfig {
            max_sim_seconds: 2.0,
            ..MissionConfig::default()
        });
        assert!(quiet.trace.is_none());
    }

    #[test]
    fn mpc_and_fusion_missions_fly_the_traced_mission_loop() {
        use crate::fusion::{run_fusion_mission, FusionConfig};
        use crate::mpc::{run_mpc_mission, MpcConfig};

        let config = MissionConfig {
            max_sim_seconds: 2.0,
            trace: true,
            ..MissionConfig::default()
        };
        let (mpc, _) = run_mpc_mission(&config, MpcConfig::default());
        let (fusion, _) = run_fusion_mission(&config, FusionConfig::default());
        for report in [mpc, fusion] {
            let log = report.trace.as_ref().expect("trace requested");
            assert_eq!(
                log.count_named("sync-quantum") as u64,
                report.sync_stats.syncs
            );
            assert_eq!(log.count_named("env-frame"), report.trajectory.len());
            assert!(report.inference_count > 0, "the program sent commands");
            assert!(report.flight_occupancy > 0, "the flight recorder sampled");
        }
    }

    #[test]
    fn trajectory_csv_has_all_frames() {
        let config = MissionConfig {
            max_sim_seconds: 1.0,
            ..MissionConfig::default()
        };
        let report = run_mission(&config);
        let csv = report.trajectory_csv();
        assert_eq!(csv.len(), report.trajectory.len());
        assert_eq!(csv.header()[0], "t");
        let xs = csv.column("x").unwrap();
        assert!(xs.last().unwrap() >= &0.0);
    }
}
