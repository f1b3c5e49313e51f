//! The four workloads: their seeded inputs, their set-up, and one mission
//! each, flown either untraced (the end-to-end numbers) or through the
//! [`Timed`] wrappers (the per-layer numbers).
//!
//! Everything the simulator sees is generated here from the run's seed:
//! [`MissionConfig`]s and [`FaultPlan`]s. Caches are in memory or bound
//! to a temporary file this run creates; nothing reads the shared
//! `.rose-timing-cache.snap` or `ROSE_TIMING_CACHE`.

use crate::timed::{Layer, Span, SpanClock, Tally, Timed, Trace};
use rose::audit::MissionDigest;
use rose::envside::CoSimEnv;
use rose::mission::{
    mission_parts, run_mission, run_mission_with_faults, FaultedMissionReport, MissionConfig,
    MissionReport,
};
use rose::rtlside::SocRtl;
use rose_bridge::faults::{FaultKind, FaultPlan, FaultyTransport};
use rose_bridge::packet::Packet;
use rose_bridge::sync::{
    serve_rtl, EnvSide, RecoveryStats, RemoteRtl, RtlSide, SyncMode, Synchronizer,
};
use rose_bridge::transport::{ChannelTransport, TcpTransport, Transport, TransportError};
use rose_envsim::uav::{TrajectoryPoint, UavSim};
use rose_envsim::WorldKind;
use rose_sim_core::rng::SimRng;
use rose_socsim::soc::SocStats;
use rose_socsim::{SharedTimingCache, SocConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// The ROADMAP's behavioural oracle: a traced 2-s default mission.
pub const ORACLE_DIGEST: u64 = 0x7b55_3455_7bc6_159d;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full default flights replaying a pre-filled cache.
    FlightWarm,
    /// A 12-point accelerator grid, each sweep on an empty cache.
    DseSweep,
    /// The SoC behind loopback TCP at the finest sync granularity.
    TcpFine,
    /// Recoverable injected faults on an in-process channel.
    FaultedLink,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FlightWarm,
        Workload::DseSweep,
        Workload::TcpFine,
        Workload::FaultedLink,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlightWarm => "flight-warm",
            Workload::DseSweep => "dse-sweep",
            Workload::TcpFine => "tcp-fine",
            Workload::FaultedLink => "faulted-link",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// One pass over the workload's distinct missions; the timed loop
    /// cycles through them.
    pub configs: Vec<MissionConfig>,
    /// The fault-plan stream (faulted-link draws one plan per mission).
    plans: SimRng,
}

/// `n` yaws in [−20°, +20°], one per equal-width stratum, so every seed
/// covers the range evenly and no seed draws only hard or easy angles.
fn stratified_yaws(rng: &mut SimRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| -20.0 + 40.0 * (i as f64 + rng.next_f64()) / n as f64)
        .collect()
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`. `quick` keeps two
    /// one-second missions per pass (a smoke test, not a measurement).
    pub fn generate(workload: Workload, seed: u64, quick: bool) -> Inputs {
        let mut rng = SimRng::new(seed).split(workload.name());
        let mut configs: Vec<MissionConfig> = match workload {
            Workload::FlightWarm => stratified_yaws(&mut rng, 6)
                .into_iter()
                .map(|yaw| MissionConfig {
                    initial_yaw_deg: yaw,
                    seed: rng.next_u64(),
                    ..MissionConfig::default()
                })
                .collect(),
            Workload::DseSweep => {
                let mut grid = Vec::new();
                for mesh in [2usize, 4, 8, 16] {
                    for spad_kib in [128usize, 256, 512] {
                        grid.push(MissionConfig {
                            soc: SocConfig::config_a()
                                .with_mesh(mesh)
                                .with_scratchpad(spad_kib * 1024),
                            world: WorldKind::SShape,
                            velocity: 9.0,
                            max_sim_seconds: 3.0,
                            seed: rng.next_u64(),
                            ..MissionConfig::default()
                        });
                    }
                }
                grid
            }
            Workload::TcpFine => stratified_yaws(&mut rng, 3)
                .into_iter()
                .map(|yaw| MissionConfig {
                    frame_hz: 100,
                    sync_mode: SyncMode::Sequential,
                    initial_yaw_deg: yaw,
                    seed: rng.next_u64(),
                    ..MissionConfig::default()
                })
                .collect(),
            Workload::FaultedLink => stratified_yaws(&mut rng, 3)
                .into_iter()
                .map(|yaw| MissionConfig {
                    sync_mode: SyncMode::Sequential,
                    initial_yaw_deg: yaw,
                    seed: rng.next_u64(),
                    ..MissionConfig::default()
                })
                .collect(),
        };
        if quick {
            configs.truncate(2);
            for config in &mut configs {
                config.max_sim_seconds = 1.0;
            }
        }
        Inputs {
            configs,
            plans: rng.split("fault-plans"),
        }
    }

    /// The next fault plan: six recoverable events — a duplicate, a
    /// 1–3-op stall or a 1–4-op disconnect — one per stratum of the first
    /// ~1000 quanta, so no two stack beyond what the default recovery
    /// policy absorbs.
    fn next_plan(&mut self) -> FaultPlan {
        let rng = &mut self.plans;
        let mut plan = FaultPlan::new(rng.next_u64());
        for stratum in 0..6u64 {
            let at = 20 + stratum * 160 + rng.below(140);
            let kind = match rng.below(3) {
                0 => FaultKind::Duplicate,
                1 => FaultKind::Stall {
                    ops: 1 + rng.below(3) as u32,
                },
                _ => FaultKind::Disconnect {
                    ops: 1 + rng.below(4) as u32,
                },
            };
            plan.push(at, kind);
        }
        plan
    }
}

/// What a mission must reproduce.
#[derive(Debug)]
struct Reference {
    digest: u64,
    trajectory: Vec<TrajectoryPoint>,
    soc: SocStats,
}

impl Reference {
    fn of(report: &MissionReport) -> Reference {
        Reference {
            digest: MissionDigest::of(report).combined(),
            trajectory: report.trajectory.clone(),
            soc: report.soc_stats,
        }
    }
}

/// Simulated statistics summed over one pass of reference missions. They
/// repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTotals {
    /// Retired CPU instructions.
    pub cpu_instrs: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Accelerator MACs.
    pub accel_macs: u64,
    /// Completed inferences.
    pub inferences: u64,
}

/// Runs `f`, turning a panic into an error naming `what`.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|_| format!("{what} panicked"))
}

/// Re-checks the ROADMAP oracle.
fn check_oracle() -> Result<(), String> {
    let report = guarded("oracle mission", || {
        run_mission(&MissionConfig {
            max_sim_seconds: 2.0,
            trace: true,
            ..MissionConfig::default()
        })
    })?;
    let digest = MissionDigest::of(&report).combined();
    if digest == ORACLE_DIGEST {
        Ok(())
    } else {
        Err(format!(
            "oracle digest {digest:#018x}, expected {ORACLE_DIGEST:#018x}"
        ))
    }
}

/// The temporary file a run binds its timing cache to, in the working
/// directory and unique to the process.
fn cache_path(workload: Workload) -> PathBuf {
    PathBuf::from(format!(
        ".benchmark-{}-{}.snap",
        std::process::id(),
        workload.name()
    ))
}

/// Deletes the cache file and the temporary sibling `persist` writes.
fn remove_cache_files(path: &std::path::Path) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    for p in [path.to_path_buf(), PathBuf::from(tmp)] {
        if p.exists() {
            // Best effort: set-up removes the same names before binding a
            // cache to them, so a leftover file is never read.
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A set-up workload, ready to fly missions.
pub struct Bench {
    workload: Workload,
    inputs: Inputs,
    refs: Vec<Reference>,
    path: PathBuf,
    /// The warm cache (flight-warm, tcp-fine, faulted-link) or the
    /// current sweep's cache (dse-sweep).
    cache: SharedTimingCache,
    /// Simulated statistics of the reference pass.
    pub totals: SimTotals,
    server: Option<RtlServer<SocRtl>>,
    timed_server: Option<RtlServer<Timed<SocRtl>>>,
}

/// One flown mission, before its check.
pub struct Flight {
    /// Simulated seconds flown.
    pub sim_s: f64,
    evidence: Evidence,
    /// Timing-cache (hits, misses) during the mission.
    pub cache: (u64, u64),
    /// Spans and counters, when flown through the wrappers.
    pub trace: Option<Trace>,
    /// Recovery work of a remote flight.
    pub recovery: RecoveryStats,
    /// Faults the injector fired.
    pub injected: u64,
}

/// What a flight's check compares against its reference.
enum Evidence {
    Report(MissionReport),
    Faulted(Box<FaultedMissionReport>),
    Parts {
        sim: UavSim,
        soc: SocStats,
        fault: Option<String>,
    },
}

impl Bench {
    /// Sets the workload up: re-checks the oracle, flies the reference
    /// missions, and fills the warm cache.
    pub fn prepare(workload: Workload, inputs: &Inputs) -> Result<Bench, String> {
        check_oracle()?;
        let path = cache_path(workload);
        remove_cache_files(&path);
        let cache = SharedTimingCache::load(&path);
        let mut inputs = inputs.clone();
        let mut refs = Vec::new();
        let mut totals = SimTotals::default();
        for config in &mut inputs.configs {
            // The sweep's references run without any cache; the warm
            // workloads' references are the cold runs that fill theirs.
            if workload != Workload::DseSweep {
                config.timing_cache = Some(cache.clone());
            }
            let report = guarded("reference mission", || run_mission(config))?;
            totals.cpu_instrs += report.soc_stats.cpu.instrs;
            totals.l2_misses += report.soc_stats.l2.misses;
            totals.accel_macs += report.soc_stats.accel_macs;
            totals.inferences += report.inference_count;
            refs.push(Reference::of(&report));
        }
        Ok(Bench {
            workload,
            inputs,
            refs,
            path,
            cache,
            totals,
            server: None,
            timed_server: None,
        })
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.workload.name()
    }

    /// Missions in one pass over the distinct inputs.
    pub fn pass_len(&self) -> usize {
        self.inputs.configs.len()
    }

    /// Opens a timed phase: tcp-fine connects its server here, outside
    /// every mission's wall time.
    pub fn begin_phase(&mut self, traced: bool) -> Result<(), String> {
        if self.workload == Workload::TcpFine {
            if traced {
                self.timed_server = Some(RtlServer::start()?);
            } else {
                self.server = Some(RtlServer::start()?);
            }
        }
        Ok(())
    }

    /// Closes the phase, stopping any server.
    pub fn end_phase(&mut self) {
        self.server = None;
        self.timed_server = None;
    }

    /// Entries in the workload's cache (the last sweep's, for dse-sweep).
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Writes the workload's cache to its temporary file once and returns
    /// the file's size.
    pub fn cache_file_bytes(&self) -> Result<u64, String> {
        self.cache
            .persist()
            .and_then(|()| std::fs::metadata(&self.path))
            .map(|m| m.len())
            .map_err(|e| format!("persisting {}: {e}", self.path.display()))
    }

    /// Flies mission `i` of the run, through the wrappers when `clock` is
    /// given.
    pub fn fly(&mut self, i: usize, clock: Option<&SpanClock>) -> Result<Flight, String> {
        let n = self.inputs.configs.len();
        let mut config = self.inputs.configs[i % n].clone();
        if self.workload == Workload::DseSweep {
            if i.is_multiple_of(n) {
                // Each sweep starts on an empty cache, so it writes.
                self.cache = SharedTimingCache::load(&self.path);
            }
            config.timing_cache = Some(self.cache.clone());
        }
        let before = self.cache.counters();
        let mut flight = match (self.workload, clock) {
            (Workload::FaultedLink, None) => {
                let report = run_mission_with_faults(&config, self.inputs.next_plan());
                Ok(Flight::new(
                    report.report.sim_time_s,
                    Evidence::Faulted(Box::new(report)),
                ))
            }
            (Workload::FaultedLink, Some(clock)) => {
                fly_faulted_traced(&config, self.inputs.next_plan(), clock)
            }
            (Workload::TcpFine, None) => match &mut self.server {
                Some(server) => server.fly_plain(&config),
                None => Err("tcp-fine phase has no server".into()),
            },
            (Workload::TcpFine, Some(clock)) => match &mut self.timed_server {
                Some(server) => server.fly_timed(&config, clock),
                None => Err("tcp-fine phase has no server".into()),
            },
            (Workload::FlightWarm | Workload::DseSweep, None) => {
                let report = run_mission(&config);
                Ok(Flight::new(report.sim_time_s, Evidence::Report(report)))
            }
            (Workload::FlightWarm | Workload::DseSweep, Some(clock)) => {
                Ok(fly_in_process_traced(&config, clock))
            }
        }?;
        let after = self.cache.counters();
        flight.cache = (after.0 - before.0, after.1 - before.1);
        Ok(flight)
    }

    /// Checks flight `i` against its reference.
    pub fn check(&self, i: usize, flight: &Flight) -> Result<(), String> {
        let reference = &self.refs[i % self.refs.len()];
        match &flight.evidence {
            Evidence::Report(report) => digest_matches(reference, report),
            Evidence::Faulted(outcome) => {
                no_fault(&outcome.latched)?;
                digest_matches(reference, &outcome.report)
            }
            Evidence::Parts { sim, soc, fault } => {
                no_fault(fault)?;
                if sim.trajectory() != reference.trajectory.as_slice() {
                    Err("trajectory differs from the reference".into())
                } else if *soc != reference.soc {
                    Err("SoC counters differ from the reference".into())
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        remove_cache_files(&self.path);
    }
}

fn no_fault(latched: &Option<String>) -> Result<(), String> {
    match latched {
        Some(fault) => Err(format!("transport fault latched: {fault}")),
        None => Ok(()),
    }
}

fn digest_matches(reference: &Reference, report: &MissionReport) -> Result<(), String> {
    let digest = MissionDigest::of(report).combined();
    if digest == reference.digest {
        Ok(())
    } else {
        Err(format!(
            "digest {digest:#018x}, reference {:#018x}",
            reference.digest
        ))
    }
}

impl Flight {
    fn new(sim_s: f64, evidence: Evidence) -> Flight {
        Flight {
            sim_s,
            evidence,
            cache: (0, 0),
            trace: None,
            recovery: RecoveryStats::default(),
            injected: 0,
        }
    }

    /// A mission flown from parts, checked by trajectory and counters.
    fn from_parts(sim: UavSim, soc: SocStats, fault: Option<String>) -> Flight {
        Flight::new(sim.time(), Evidence::Parts { sim, soc, fault })
    }
}

/// Steps `sync` one quantum at a time until the mission completes, the
/// RTL side halts, or `max_syncs` elapse — the loop `run_mission` runs —
/// recording a [`Layer::Step`] span around each `step_sync` when `clock`
/// is given.
fn drive<E: EnvSide, R: RtlSide + Send>(
    sync: &mut Synchronizer<E, R>,
    max_syncs: u64,
    clock: Option<&SpanClock>,
    done: impl Fn(&E) -> bool,
) -> Tally {
    let mut steps = Tally::default();
    let mut quantum = 0;
    while quantum < max_syncs && !sync.rtl().halted() && !done(sync.env()) {
        match clock {
            Some(clock) => {
                clock.set_quantum(quantum);
                let start = clock.now();
                sync.step_sync();
                steps.spans.push(Span {
                    layer: Layer::Step,
                    start,
                    end: clock.now(),
                    quantum,
                });
            }
            None => sync.step_sync(),
        }
        quantum += 1;
    }
    steps
}

fn complete(env: &Timed<CoSimEnv>) -> bool {
    env.inner().sim().mission_complete()
}

/// An in-process mission through the wrappers (flight-warm, dse-sweep).
fn fly_in_process_traced(config: &MissionConfig, clock: &SpanClock) -> Flight {
    let (env, rtl, sync_config, _metrics) = mission_parts(config);
    let mut sync = Synchronizer::new(
        sync_config,
        Timed::new(env, clock),
        Timed::soc(rtl, clock, config.timing_cache.clone()),
    );
    let steps = drive(&mut sync, config.max_syncs(), Some(clock), complete);
    let (env, rtl) = sync.into_parts();
    let (env, env_tally) = env.into_parts();
    let (rtl, soc_tally) = rtl.into_parts();
    Flight {
        trace: Some(Trace {
            steps,
            env: env_tally,
            proxy: None,
            wire: None,
            soc: soc_tally,
        }),
        ..Flight::from_parts(env.into_sim(), rtl.soc().stats(), None)
    }
}

/// faulted-link through the wrappers: the topology of
/// `run_mission_with_faults`, with a timed transport above the injector.
fn fly_faulted_traced(
    config: &MissionConfig,
    plan: FaultPlan,
    clock: &SpanClock,
) -> Result<Flight, String> {
    let (env, rtl, sync_config, _metrics) = mission_parts(config);
    let (client, mut server) = ChannelTransport::pair();
    let mut rtl = Timed::soc(rtl, clock, config.timing_cache.clone());
    std::thread::scope(|scope| {
        let served = scope.spawn(move || serve_rtl(&mut server, &mut rtl).map(|()| rtl));
        let mut wire = Timed::new(FaultyTransport::new(client, plan), clock);
        let remote = Timed::new(
            RemoteRtl::with_policy(Link(&mut wire), config.recovery),
            clock,
        );
        let mut sync = Synchronizer::new(sync_config, Timed::new(env, clock), remote);
        let steps = drive(&mut sync, config.max_syncs(), Some(clock), complete);
        let (env, remote) = sync.into_parts();
        let (remote, rtl_tally) = remote.into_parts();
        let recovery = *remote.recovery_stats();
        let fault = remote.fault().map(ToString::to_string);
        // On a latched fault this returns that fault, already recorded.
        let _ = remote.shutdown();
        let injected = wire.inner().stats().total();
        let (_, wire_tally) = wire.into_parts();
        let rtl = served
            .join()
            .map_err(|_| "RTL server panicked".to_string())?
            .map_err(|e| format!("RTL server: {e}"))?;
        let (rtl, soc_tally) = rtl.into_parts();
        let (env, env_tally) = env.into_parts();
        Ok(Flight {
            trace: Some(Trace {
                steps,
                env: env_tally,
                proxy: Some(rtl_tally),
                wire: Some(wire_tally),
                soc: soc_tally,
            }),
            recovery,
            injected,
            ..Flight::from_parts(env.into_sim(), rtl.soc().stats(), fault)
        })
    })
}

/// Lends a long-lived transport to one mission's [`RemoteRtl`], which
/// would otherwise consume it at shutdown.
struct Link<'a, T>(&'a mut T);

impl<T: Transport> Transport for Link<'_, T> {
    fn send(&mut self, packet: &Packet) -> Result<(), TransportError> {
        self.0.send(packet)
    }

    fn try_recv(&mut self) -> Result<Option<Packet>, TransportError> {
        self.0.try_recv()
    }

    fn recv(&mut self) -> Result<Packet, TransportError> {
        self.0.recv()
    }

    fn reconnect(&mut self) -> Result<(), TransportError> {
        self.0.reconnect()
    }
}

/// The SoC side of the TCP deployment: one server thread and one loopback
/// connection, serving each mission's SoC in turn.
#[derive(Debug)]
struct RtlServer<R> {
    client: Option<TcpTransport>,
    jobs: Option<mpsc::Sender<R>>,
    done: mpsc::Receiver<Result<R, String>>,
    thread: Option<JoinHandle<()>>,
}

impl<R: RtlSide + Send + 'static> RtlServer<R> {
    fn start() -> Result<RtlServer<R>, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let (jobs, job_rx) = mpsc::channel::<R>();
        let (done_tx, done) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let Ok(mut transport) = TcpTransport::accept(&listener) else {
                return;
            };
            for mut rtl in job_rx {
                let served = serve_rtl(&mut transport, &mut rtl)
                    .map(|()| rtl)
                    .map_err(|e| e.to_string());
                if done_tx.send(served).is_err() {
                    return;
                }
            }
        });
        let client = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(RtlServer {
            client: Some(client),
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        })
    }

    /// Hands `rtl` to the server thread.
    fn submit(&self, rtl: R) -> Result<(), String> {
        self.jobs
            .as_ref()
            .ok_or("server stopped")?
            .send(rtl)
            .map_err(|_| "RTL server thread is gone".to_string())
    }

    /// Takes the SoC back once its session has shut down.
    fn collect(&self) -> Result<R, String> {
        self.done
            .recv()
            .map_err(|_| "RTL server thread is gone".to_string())?
            .map_err(|e| format!("RTL server: {e}"))
    }

    fn client(&mut self) -> Result<&mut TcpTransport, String> {
        self.client.as_mut().ok_or_else(|| "server stopped".into())
    }
}

impl RtlServer<SocRtl> {
    fn fly_plain(&mut self, config: &MissionConfig) -> Result<Flight, String> {
        let (env, rtl, sync_config, _metrics) = mission_parts(config);
        self.submit(rtl)?;
        let remote = RemoteRtl::with_policy(Link(self.client()?), config.recovery);
        let mut sync = Synchronizer::new(sync_config, env, remote);
        drive(&mut sync, config.max_syncs(), None, |env| {
            env.sim().mission_complete()
        });
        let (env, remote) = sync.into_parts();
        let fault = remote.fault().map(ToString::to_string);
        // On a latched fault this returns that fault, already recorded.
        let _ = remote.shutdown();
        let rtl = self.collect()?;
        Ok(Flight::from_parts(env.into_sim(), rtl.soc().stats(), fault))
    }
}

impl RtlServer<Timed<SocRtl>> {
    fn fly_timed(&mut self, config: &MissionConfig, clock: &SpanClock) -> Result<Flight, String> {
        let (env, rtl, sync_config, _metrics) = mission_parts(config);
        self.submit(Timed::soc(rtl, clock, config.timing_cache.clone()))?;
        let mut wire = Timed::new(Link(self.client()?), clock);
        let remote = Timed::new(
            RemoteRtl::with_policy(Link(&mut wire), config.recovery),
            clock,
        );
        let mut sync = Synchronizer::new(sync_config, Timed::new(env, clock), remote);
        let steps = drive(&mut sync, config.max_syncs(), Some(clock), complete);
        let (env, remote) = sync.into_parts();
        let (remote, rtl_tally) = remote.into_parts();
        let recovery = *remote.recovery_stats();
        let fault = remote.fault().map(ToString::to_string);
        // On a latched fault this returns that fault, already recorded.
        let _ = remote.shutdown();
        let (_, wire_tally) = wire.into_parts();
        let (rtl, soc_tally) = self.collect()?.into_parts();
        let (env, env_tally) = env.into_parts();
        Ok(Flight {
            trace: Some(Trace {
                steps,
                env: env_tally,
                proxy: Some(rtl_tally),
                wire: Some(wire_tally),
                soc: soc_tally,
            }),
            recovery,
            ..Flight::from_parts(env.into_sim(), rtl.soc().stats(), fault)
        })
    }
}

impl<R> Drop for RtlServer<R> {
    fn drop(&mut self) {
        // Closing the connection ends a session the server may still be
        // serving; closing the job queue then ends its loop.
        self.client = None;
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            // The server thread only returns; a panic there has already
            // failed the mission it was serving.
            let _ = thread.join();
        }
    }
}
