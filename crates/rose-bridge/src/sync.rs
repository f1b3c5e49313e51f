//! The lockstep synchronizer (Algorithm 1).
//!
//! "RoSÉ implements a lockstep synchronization method... A synchronization
//! period is defined between both simulators in terms of AirSim frames and
//! SoC clock cycles" (Section 3.4.1). The [`Synchronizer`] owns both
//! simulator endpoints through the [`EnvSide`] / [`RtlSide`] traits and
//! advances them one sync period at a time:
//!
//! 1. drain the RTL side's I/O data and translate each datum into
//!    environment API calls, collecting the responses and any
//!    unsolicited sensor data,
//! 2. step the environment its frames,
//! 3. forward the responses and sensor data to the RTL side's RX queue,
//! 4. grant the RTL simulation its cycle budget, run it, and advance
//!    simulation time.
//!
//! Both sides run on the calling thread, one after the other: the
//! boundary already fixed everything either side can observe during the
//! period, so a second thread would only add a spawn and a join, and
//! the environment's frames can step before the grant.
//!
//! Data crossing between simulators is therefore only visible at sync
//! boundaries — coarser synchronization induces artificial latency, the
//! effect measured in Figure 16.

use crate::packet::Packet;
use crate::transport::{Transport, TransportError};
use rose_sim_core::cycles::SyncRatio;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use rose_trace::{ArgValue, Phase, Profiler, Stopwatch, TraceEvent, Tracer, Track};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::time::Duration;

/// The environment-simulator side of the co-simulation (AirSim's role).
pub trait EnvSide {
    /// Advances the environment by `frames` physics/render steps.
    fn step_frames(&mut self, frames: u64);

    /// Decodes one data payload from the SoC, performs the corresponding
    /// simulator API call, and returns any response payloads.
    fn handle_data(&mut self, payload: &[u8]) -> Vec<Vec<u8>>;

    /// Unsolicited data the environment wants to push this period
    /// (e.g. streamed sensors). Default: none.
    fn poll_data(&mut self) -> Vec<Vec<u8>> {
        Vec::new()
    }
}

/// The RTL-simulator side of the co-simulation (FireSim's role).
pub trait RtlSide {
    /// Grants `cycles` of execution and runs the simulation until the
    /// grant is consumed.
    fn grant_and_run(&mut self, cycles: u64);

    /// Enqueues a data payload into the SoC-bound bridge queue.
    fn push_data(&mut self, payload: Vec<u8>);

    /// Drains every payload the SoC produced.
    fn drain_tx(&mut self) -> Vec<Vec<u8>>;

    /// True once the target program has halted (ends the mission loop).
    fn halted(&self) -> bool {
        false
    }

    /// Takes the fault latched by the endpoint, if any.
    ///
    /// Endpoints that can fail mid-quantum (e.g. [`RemoteRtl`] losing its
    /// transport) latch the error, report [`halted`](RtlSide::halted) so
    /// the mission loop winds down, and surface the cause here. Default:
    /// the endpoint never faults.
    fn take_fault(&mut self) -> Option<TransportError> {
        None
    }

    /// Drains the wall time the endpoint spent recovering from transport
    /// faults since the last call (retries, reconnects, resyncs). The
    /// synchronizer attributes it to [`Phase::Recovery`], carved out of
    /// the grant it interrupted. Default: the endpoint never recovers.
    fn take_recovery_wall(&mut self) -> Duration {
        Duration::ZERO
    }

    /// Drains the wall time the endpoint spent evaluating timing models
    /// during the grants since the last call (kernel expansion,
    /// closed-form accelerator costing, timing-cache lookups). The
    /// synchronizer attributes it to [`Phase::CostModel`], carved out of
    /// the grant that triggered it. Default: no cost-model work.
    fn take_cost_model_wall(&mut self) -> Duration {
        Duration::ZERO
    }

    /// The trace events the endpoint has recorded so far, read without
    /// draining them, for postmortem attribution. Default: none.
    fn recent_events(&self) -> &[TraceEvent] {
        &[]
    }
}

/// Bounded-retry recovery configuration for [`RemoteRtl`].
///
/// A transient transport error ([`TransportError::is_transient`]) inside
/// a quantum is retried up to `max_retries` times before the endpoint
/// latches it. Each attempt accrues a deterministic backoff cost
/// (`backoff_base << attempt`, capped at `backoff_cap`) counted in
/// [`RecoveryStats::backoff_units`] — sim-deterministic bookkeeping of
/// how patient the policy was, independent of host scheduling. Disconnect
/// errors additionally trigger [`Transport::reconnect`] plus the
/// sequence-resync handshake before the retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Transient failures absorbed per quantum before latching.
    pub max_retries: u32,
    /// Backoff units charged for the first retry.
    pub backoff_base: u32,
    /// Ceiling on the per-retry backoff charge.
    pub backoff_cap: u32,
}

impl RecoveryPolicy {
    /// No recovery: the first error latches (the pre-recovery behavior).
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            backoff_base: 1,
            backoff_cap: 1,
        }
    }

    /// The backoff charge for retry `attempt` (0-based), doubling from
    /// `backoff_base` up to `backoff_cap`.
    pub fn backoff_units(&self, attempt: u32) -> u64 {
        let shifted = u64::from(self.backoff_base) << attempt.min(32);
        shifted.min(u64::from(self.backoff_cap.max(1)))
    }
}

impl Default for RecoveryPolicy {
    /// Eight retries with 1→16 unit exponential backoff: comfortably
    /// outlasts any single bounded fault window while still latching a
    /// genuinely dead peer quickly.
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 8,
            backoff_base: 1,
            backoff_cap: 16,
        }
    }
}

/// Host-side recovery telemetry: how much absorbing faults cost. Like
/// the profiler's wall times, this is excluded from snapshots and the
/// determinism digest (DESIGN.md §4f) — it describes the host's luck,
/// not the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Fault episodes fully absorbed (the quantum eventually completed).
    pub recovered: u64,
    /// Individual transient failures retried.
    pub retries: u64,
    /// Successful [`Transport::reconnect`] calls.
    pub reconnects: u64,
    /// Sequence-resync handshakes completed.
    pub resyncs: u64,
    /// Episodes that exhausted the policy and latched.
    pub exhausted: u64,
    /// Deterministic backoff charge accumulated across all retries.
    pub backoff_units: u64,
}

/// A retired choice of intra-period execution, kept only as a name.
///
/// Every period runs on the calling thread ([`Synchronizer::step_sync`]);
/// the synchronizer never reads this value. It survives because mission
/// snapshots encode it as one byte (so existing snapshot bytes keep
/// decoding) and because callers still name both variants in their
/// configurations (DESIGN.md §4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Snapshot byte 0.
    Sequential,
    /// Snapshot byte 1, the mission default.
    Parallel,
}

rose_sim_core::snap_tag!(SyncMode { Sequential = 0, Parallel = 1 });

/// Synchronization configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncConfig {
    /// The clock-domain ratio (Equation 1).
    pub ratio: SyncRatio,
    /// Environment frames per synchronization period (the granularity
    /// swept in Figures 15/16).
    pub frames_per_sync: u64,
}

impl SyncConfig {
    /// Creates a config; `frames_per_sync` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `frames_per_sync` is zero.
    pub fn new(ratio: SyncRatio, frames_per_sync: u64) -> SyncConfig {
        assert!(frames_per_sync > 0, "sync period must cover >= 1 frame");
        SyncConfig {
            ratio,
            frames_per_sync,
        }
    }

    /// Nominal SoC cycles per synchronization period (the period starting
    /// at frame 0). Periods later in the mission may be granted one cycle
    /// more or fewer so that the cycle timeline tracks the frame timeline
    /// exactly; see [`SyncRatio::cycles_for_span`].
    pub fn cycles_per_sync(&self) -> u64 {
        self.ratio.cycles_for_frames(self.frames_per_sync)
    }
}

impl Default for SyncConfig {
    /// 1 frame per sync at the default 1 GHz / 60 fps ratio (≈16.7M
    /// cycles), the fine-granularity end of Figure 15.
    fn default() -> SyncConfig {
        SyncConfig::new(SyncRatio::default(), 1)
    }
}

/// Synchronizer progress counters: simulated quantities only. Host wall
/// time lives in the synchronizer's [`Profiler`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SyncStats {
    /// Synchronization periods completed.
    pub syncs: u64,
    /// Simulated SoC cycles.
    pub sim_cycles: u64,
    /// Simulated environment frames.
    pub sim_frames: u64,
    /// Data payloads delivered SoC → environment.
    pub data_to_env: u64,
    /// Data payloads delivered environment → SoC.
    pub data_to_rtl: u64,
}

impl SyncStats {
    /// Co-simulation throughput in simulated cycles per wall second
    /// (Figure 15's y-axis), over `wall` — normally the synchronizer
    /// profiler's [`total_wall`](Profiler::total_wall). 0 for a zero wall.
    pub fn throughput_hz(&self, wall: Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / secs
        }
    }
}

/// Host wall time the RTL side spent in the grants `profile` covers. The
/// synchronizer times each grant as one lap and splits it into
/// [`Phase::RtlGrant`], [`Phase::Recovery`] and [`Phase::CostModel`];
/// this sums the three back.
pub fn rtl_wall(profile: &Profiler) -> Duration {
    profile.total(Phase::RtlGrant)
        + profile.total(Phase::Recovery)
        + profile.total(Phase::CostModel)
}

/// The lockstep synchronizer.
#[derive(Debug)]
pub struct Synchronizer<E, R> {
    env: E,
    rtl: R,
    config: SyncConfig,
    stats: SyncStats,
    tracer: Tracer,
    profiler: Profiler,
}

impl<E: EnvSide, R: RtlSide> Synchronizer<E, R> {
    /// Creates a synchronizer owning both simulator endpoints.
    pub fn new(config: SyncConfig, env: E, rtl: R) -> Synchronizer<E, R> {
        Synchronizer {
            env,
            rtl,
            config,
            stats: SyncStats::default(),
            tracer: Tracer::disabled(),
            profiler: Profiler::new(),
        }
    }

    /// Installs an event recorder; quantum boundaries, grants, and bridge
    /// packet crossings are traced from the next period on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The synchronizer's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains the synchronizer's recorded trace events.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.take_events()
    }

    /// The synchronization configuration.
    pub fn config(&self) -> &SyncConfig {
        &self.config
    }

    /// Progress counters.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// Host wall-time attribution accumulated so far.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The environment endpoint.
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Mutable environment endpoint access (between sync periods).
    pub fn env_mut(&mut self) -> &mut E {
        &mut self.env
    }

    /// The RTL endpoint.
    pub fn rtl(&self) -> &R {
        &self.rtl
    }

    /// Mutable RTL endpoint access (between sync periods).
    pub fn rtl_mut(&mut self) -> &mut R {
        &mut self.rtl
    }

    /// Consumes the synchronizer, returning the endpoints.
    pub fn into_parts(self) -> (E, R) {
        (self.env, self.rtl)
    }

    /// Serializes the synchronizer's own position: the deterministic
    /// progress counters and the trace prefix.
    ///
    /// The endpoints serialize separately — the mission layer owns their
    /// concrete types. Grants are sized cumulatively over the frame
    /// timeline, so the next grant is a pure function of
    /// [`SyncStats::sim_frames`], and [`SyncStats::sim_cycles`] is the
    /// cycle the next quantum starts at: the counters alone pin the
    /// synchronizer's position in the quantum schedule. The profiler is a
    /// host measurement, not simulated state: it is excluded and restarts
    /// from zero on resume (DESIGN.md §4f).
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Synchronizer {
            env: _,
            rtl: _,
            config: _,
            stats,
            tracer,
            profiler: _,
        } = self;
        let SyncStats {
            syncs,
            sim_cycles,
            sim_frames,
            data_to_env,
            data_to_rtl,
        } = stats;
        w.u64(*syncs);
        w.u64(*sim_cycles);
        w.u64(*sim_frames);
        w.u64(*data_to_env);
        w.u64(*data_to_rtl);
        tracer.save_state(w);
    }

    /// Restores the synchronizer's position. The profiler resets.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.profiler = Profiler::new();
        self.stats = SyncStats::default();
        self.stats.syncs = r.u64()?;
        self.stats.sim_cycles = r.u64()?;
        self.stats.sim_frames = r.u64()?;
        self.stats.data_to_env = r.u64()?;
        self.stats.data_to_rtl = r.u64()?;
        self.tracer.restore_state(r)
    }

    /// Records one bridge packet crossing at the sync boundary.
    fn trace_packet(&mut self, boundary: u64, dir: &'static str, bytes: usize) {
        if self.tracer.is_enabled() {
            self.tracer.instant_cycles(
                Track::Bridge,
                "bridge-packet",
                boundary,
                vec![
                    ("dir", ArgValue::Str(dir)),
                    // rose-lint: allow(CAST001, usize payload length widens into u64 on every supported target)
                    ("bytes", ArgValue::U64(bytes as u64)),
                ],
            );
        }
    }

    /// Records the period's grant and quantum span (called before the
    /// counters advance, so `self.stats.sim_cycles` is still the period
    /// start).
    fn trace_quantum(&mut self, cycles: u64, frames: u64, env_wall: Duration, rtl_wall: Duration) {
        if !self.tracer.is_enabled() {
            return;
        }
        let start = self.stats.sim_cycles;
        self.tracer.instant_cycles(
            Track::Sync,
            "sync-grant",
            start,
            vec![
                ("cycles", ArgValue::U64(cycles)),
                ("frames", ArgValue::U64(frames)),
            ],
        );
        self.tracer.complete_cycles(
            Track::Sync,
            "sync-quantum",
            start,
            start + cycles,
            vec![
                ("cycles", ArgValue::U64(cycles)),
                ("frames", ArgValue::U64(frames)),
                ("env_wall_us", ArgValue::F64(env_wall.as_secs_f64() * 1e6)),
                ("rtl_wall_us", ArgValue::F64(rtl_wall.as_secs_f64() * 1e6)),
                (
                    "quantum_wall_us",
                    ArgValue::F64((env_wall + rtl_wall).as_secs_f64() * 1e6),
                ),
            ],
        );
    }

    /// The cycle grant for the period starting at the current frame,
    /// sized cumulatively so no drift accumulates (Equation 1, exact).
    fn next_grant(&self) -> (u64, u64) {
        let frames = self.config.frames_per_sync;
        let start = self.stats.sim_frames;
        let cycles = self.config.ratio.cycles_for_span(start, start + frames);
        (cycles, frames)
    }

    /// Executes one synchronization period (the body of Algorithm 1) on
    /// the calling thread, timed as three laps of one stopwatch:
    ///
    /// 1. `env-step`: drain the SoC's packets, let the environment answer
    ///    them and push its unsolicited data, then step its frames;
    /// 2. `rtl-grant`: queue the answers and pushes towards the SoC, then
    ///    grant the RTL its cycles (less the `recovery` and `cost-model`
    ///    walls the endpoint reports, which are carved out of it);
    /// 3. `trace-overhead`: the profiler, the trace and the counters.
    ///
    /// Neither side sees the other inside the period: the answers are
    /// computed before the frames step, and the grant sees only what was
    /// queued at the boundary. So the environment can finish its side
    /// before the grant starts. The laps tile the step, so the phases add
    /// up to its wall time, and the `sync-quantum` args reuse them rather
    /// than reading the clock again.
    pub fn step_sync(&mut self) {
        let mut watch = Stopwatch::start();
        let boundary = self.stats.sim_cycles;
        let (cycles, frames) = self.next_grant();
        let drained = self.rtl.drain_tx();
        let answers: Vec<_> = drained.iter().map(|d| self.env.handle_data(d)).collect();
        let pushed = self.env.poll_data();
        self.env.step_frames(frames);
        let env_wall = watch.lap();

        for (datum, responses) in drained.into_iter().zip(answers) {
            self.stats.data_to_env += 1;
            self.trace_packet(boundary, "to-env", datum.len());
            for response in responses {
                self.stats.data_to_rtl += 1;
                self.trace_packet(boundary, "to-rtl", response.len());
                self.rtl.push_data(response);
            }
        }
        for datum in pushed {
            self.stats.data_to_rtl += 1;
            self.trace_packet(boundary, "to-rtl", datum.len());
            self.rtl.push_data(datum);
        }
        self.rtl.grant_and_run(cycles);
        let rtl_wall = watch.lap();

        let recovery = self.rtl.take_recovery_wall();
        let cost_model = self.rtl.take_cost_model_wall();
        self.profiler.add(Phase::EnvStep, env_wall);
        self.profiler.add(
            Phase::RtlGrant,
            rtl_wall.saturating_sub(recovery).saturating_sub(cost_model),
        );
        if !recovery.is_zero() {
            self.profiler.add(Phase::Recovery, recovery);
        }
        if !cost_model.is_zero() {
            self.profiler.add(Phase::CostModel, cost_model);
        }
        self.trace_quantum(cycles, frames, env_wall, rtl_wall);

        self.stats.syncs += 1;
        self.stats.sim_cycles += cycles;
        self.stats.sim_frames += frames;
        self.profiler.add(Phase::TraceOverhead, watch.lap());
    }

    /// Runs `n` synchronization periods.
    pub fn run_syncs(&mut self, n: u64) {
        for _ in 0..n {
            self.step_sync();
        }
    }

    /// Runs until `done(env)` returns true, the RTL program halts, or
    /// `max_syncs` elapse. Returns the number of periods executed.
    ///
    /// A transport fault on the RTL side reports as a halt; callers that
    /// need to distinguish an orderly halt from a fault take the latched
    /// error afterwards with [`RtlSide::take_fault`] (through
    /// [`rtl_mut`](Synchronizer::rtl_mut)); the synchronizer is left
    /// consistent at the last completed sync boundary.
    pub fn run_until(&mut self, max_syncs: u64, mut done: impl FnMut(&E) -> bool) -> u64 {
        let mut executed = 0;
        while executed < max_syncs && !self.rtl.halted() && !done(&self.env) {
            self.step_sync();
            executed += 1;
        }
        executed
    }
}

/// An [`RtlSide`] living behind a packet transport (the paper's TCP
/// deployment: the synchronizer drives a remote FireSim instance).
///
/// Since the recovery work (DESIGN.md §4h) this endpoint speaks the
/// sequenced protocol: every outbound data payload carries a sequence
/// number and stays buffered until the quantum's `CyclesDone` acknowledges
/// it, inbound data is deduplicated by sequence number, and transient
/// transport errors are absorbed by a [`RecoveryPolicy`] (retry →
/// reconnect → resync) instead of latching immediately.
#[derive(Debug)]
pub struct RemoteRtl<T> {
    transport: T,
    policy: RecoveryPolicy,
    /// Payloads to deliver with the next grant.
    outbox: Vec<Vec<u8>>,
    /// Payloads received from the remote SoC.
    inbox: Vec<Vec<u8>>,
    /// Sequence number for the next outbound data packet.
    next_tx_seq: u32,
    /// Next inbound data sequence number expected (dedupe floor).
    expect_rx: u32,
    /// Index of the quantum the next grant opens.
    quantum: u64,
    /// This quantum's outbound data, kept for retransmission until the
    /// `CyclesDone` acknowledgment clears it.
    unacked: Vec<(u32, Vec<u8>)>,
    halted: bool,
    /// First transport failure, latched until taken.
    fault: Option<TransportError>,
    /// Host-side recovery telemetry (never snapshotted or digested).
    recovery: RecoveryStats,
    /// Wall time spent in recovery since the synchronizer last drained it.
    recovery_wall: Duration,
}

impl<T: Transport> RemoteRtl<T> {
    /// Wraps a connected transport with the default [`RecoveryPolicy`].
    pub fn new(transport: T) -> RemoteRtl<T> {
        RemoteRtl::with_policy(transport, RecoveryPolicy::default())
    }

    /// Wraps a connected transport with an explicit recovery policy.
    pub fn with_policy(transport: T, policy: RecoveryPolicy) -> RemoteRtl<T> {
        RemoteRtl {
            transport,
            policy,
            outbox: Vec::new(),
            inbox: Vec::new(),
            next_tx_seq: 0,
            expect_rx: 0,
            quantum: 0,
            unacked: Vec::new(),
            halted: false,
            fault: None,
            recovery: RecoveryStats::default(),
            recovery_wall: Duration::ZERO,
        }
    }

    /// The latched transport fault, if the remote side has failed.
    pub fn fault(&self) -> Option<&TransportError> {
        self.fault.as_ref()
    }

    /// The wrapped transport (for reading decorator telemetry such as
    /// [`FaultStats`](crate::faults::FaultStats) before shutdown).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Host-side recovery telemetry accumulated so far.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Payloads queued towards the remote SoC but not yet sent (bridge TX
    /// occupancy from the synchronizer's point of view). After a fault this
    /// still counts payloads whose send never succeeded, so
    /// `data_to_rtl == delivered + pending_tx()` stays consistent.
    pub fn pending_tx(&self) -> usize {
        self.outbox.len()
    }

    /// Records a transport failure: the endpoint reports halted so the
    /// mission loop winds down at the next sync boundary, and the error is
    /// surfaced through [`RtlSide::take_fault`]. Only the first fault is
    /// kept — later errors are consequences of the same dead peer.
    fn latch_fault(&mut self, error: TransportError) {
        self.halted = true;
        if self.fault.is_none() {
            self.fault = Some(error);
        }
    }

    /// Sends an orderly shutdown to the remote server.
    ///
    /// # Errors
    ///
    /// The latched fault if the session already failed, or any error from
    /// sending the shutdown packet.
    pub fn shutdown(self) -> Result<(), TransportError> {
        self.close().1
    }

    /// [`shutdown`](RemoteRtl::shutdown), handing the transport back with
    /// its outcome: an [`InlineTransport`] still holds the served RTL.
    pub fn close(mut self) -> (T, Result<(), TransportError>) {
        let sent = match self.fault.take() {
            Some(fault) => Err(fault),
            None => self.transport.send(&Packet::Shutdown),
        };
        (self.transport, sent)
    }

    /// Moves queued payloads into the retransmit buffer, assigning
    /// sequence numbers. Staged payloads stay buffered (and are re-sent on
    /// every retry — the server deduplicates) until the quantum's
    /// `CyclesDone` acknowledges them.
    fn stage_outbox(&mut self) {
        for payload in self.outbox.drain(..) {
            self.unacked.push((self.next_tx_seq, payload));
            self.next_tx_seq = self.next_tx_seq.wrapping_add(1);
        }
    }

    /// Delivers one inbound data packet to the inbox and advances the
    /// dedupe floor past it; a packet below the floor is a retransmitted
    /// duplicate and is dropped.
    fn accept_data(&mut self, seq: u32, payload: Vec<u8>) {
        if seq >= self.expect_rx {
            self.inbox.push(payload);
            self.expect_rx = seq.wrapping_add(1);
        }
    }

    /// One attempt at the current quantum: (re)transmit buffered data,
    /// send the grant, and wait for the completion. Safe to repeat — the
    /// server deduplicates data by sequence number and answers a repeated
    /// grant from its retransmit buffer without re-running the RTL.
    fn try_quantum(&mut self, cycles: u64) -> Result<QuantumOutcome, TransportError> {
        for (seq, payload) in &self.unacked {
            self.transport.send(&Packet::Data {
                seq: *seq,
                payload: payload.clone(),
            })?;
        }
        self.transport.send(&Packet::GrantCycles {
            cycles,
            quantum: self.quantum,
        })?;
        // Wait for completion, collecting data the SoC emitted. A packet
        // the protocol does not accept here latches a fault like any other
        // transport failure — the peer is confused or hostile either way,
        // and a panic would tear down the whole co-simulation instead of
        // winding the mission down at the next sync boundary.
        loop {
            match self.transport.recv()? {
                Packet::Data { seq, payload } => self.accept_data(seq, payload),
                Packet::CyclesDone { quantum, .. } => {
                    if quantum == self.quantum {
                        return Ok(QuantumOutcome::Done);
                    }
                    if quantum > self.quantum {
                        return Err(TransportError::Protocol {
                            got: "CyclesDone",
                            at: "synchronizer",
                        });
                    }
                    // Stale completion retransmitted for an earlier
                    // quantum — ignore and keep waiting.
                }
                Packet::Shutdown => return Ok(QuantumOutcome::Halted),
                Packet::Resync { .. } => {
                    // Leftover reply from a handshake a retry repeated —
                    // stale, ignore.
                }
                other => {
                    return Err(TransportError::Protocol {
                        got: other.kind_name(),
                        at: "synchronizer",
                    })
                }
            }
        }
    }

    /// The sequence-resync handshake: announce what this side holds, wait
    /// for the server's counterpart announcement, and prune the
    /// retransmit buffer down to what the server has not yet seen. Data
    /// and stale completions already in flight are absorbed along the
    /// way.
    fn resync(&mut self) -> Result<(), TransportError> {
        self.transport.send(&Packet::Resync {
            expect_rx: self.expect_rx,
            quantum: self.quantum,
        })?;
        loop {
            match self.transport.recv()? {
                Packet::Resync {
                    expect_rx: peer_expect,
                    quantum: _,
                } => {
                    self.unacked.retain(|(seq, _)| *seq >= peer_expect);
                    return Ok(());
                }
                Packet::Data { seq, payload } => self.accept_data(seq, payload),
                Packet::CyclesDone { .. } => {}
                Packet::Shutdown => {
                    self.halted = true;
                    return Ok(());
                }
                other => {
                    return Err(TransportError::Protocol {
                        got: other.kind_name(),
                        at: "synchronizer",
                    })
                }
            }
        }
    }

    /// The recovery ladder for one transient error: charge the
    /// deterministic backoff, and on a disconnect attempt reconnect +
    /// resync. Failures inside the ladder are absorbed — they consume the
    /// attempt and the outer retry loop decides whether to go again.
    fn recover(&mut self, error: &TransportError, attempt: u32) {
        self.recovery.retries += 1;
        self.recovery.backoff_units += self.policy.backoff_units(attempt);
        if matches!(error, TransportError::Disconnected) && self.transport.reconnect().is_ok() {
            self.recovery.reconnects += 1;
            if self.resync().is_ok() {
                self.recovery.resyncs += 1;
            }
        }
    }
}

/// Outcome of one completed quantum attempt.
enum QuantumOutcome {
    /// The completion arrived.
    Done,
    /// The server shut down mid-quantum.
    Halted,
}

impl<T: Transport> RtlSide for RemoteRtl<T> {
    fn grant_and_run(&mut self, cycles: u64) {
        if self.halted {
            return;
        }
        self.stage_outbox();
        let mut attempt = 0u32;
        let mut episode: Option<Stopwatch> = None;
        loop {
            match self.try_quantum(cycles) {
                Ok(outcome) => {
                    self.quantum += 1;
                    self.unacked.clear();
                    if matches!(outcome, QuantumOutcome::Halted) {
                        self.halted = true;
                    }
                    if let Some(t0) = episode {
                        self.recovery_wall += t0.elapsed();
                        self.recovery.recovered += 1;
                    }
                    return;
                }
                Err(e) => {
                    let t0 = *episode.get_or_insert_with(Stopwatch::start);
                    if !e.is_transient() || attempt >= self.policy.max_retries {
                        self.recovery.exhausted += 1;
                        self.recovery_wall += t0.elapsed();
                        // Return staged payloads to the outbox front so
                        // the occupancy counters stay consistent
                        // (`data_to_rtl == delivered + pending_tx()`).
                        let mut requeue: Vec<Vec<u8>> =
                            self.unacked.drain(..).map(|(_, p)| p).collect();
                        requeue.append(&mut self.outbox);
                        self.outbox = requeue;
                        self.latch_fault(e);
                        return;
                    }
                    self.recover(&e, attempt);
                    attempt += 1;
                }
            }
        }
    }

    fn push_data(&mut self, payload: Vec<u8>) {
        self.outbox.push(payload);
    }

    fn drain_tx(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.inbox)
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn take_fault(&mut self) -> Option<TransportError> {
        self.fault.take()
    }

    fn take_recovery_wall(&mut self) -> Duration {
        std::mem::take(&mut self.recovery_wall)
    }

    /// The served SoC's cost-model wall, where the transport can see it
    /// ([`InlineTransport`]); zero across a thread or a socket.
    fn take_cost_model_wall(&mut self) -> Duration {
        self.transport.take_cost_model_wall()
    }

    /// The served SoC's trace events, where the transport can see them
    /// ([`InlineTransport`]); none across a thread or a socket.
    fn recent_events(&self) -> &[TraceEvent] {
        self.transport.recent_events()
    }
}

/// Serves a local [`RtlSide`] implementation over a transport: the
/// counterpart of [`RemoteRtl`], running next to the RTL simulation (the
/// bridge-driver process in the paper's deployment).
///
/// Receives each packet, hands it to the server's packet handler and
/// sends the replies it collected with one
/// [`send_all`](Transport::send_all), until a [`Packet::Shutdown`]
/// arrives or the transport disconnects. Over TCP a quantum's replies
/// (its data and the `CyclesDone`) thus cost one write. The server
/// speaks the sequenced recovery protocol (DESIGN.md §4h):
///
/// * inbound data is deduplicated by sequence number, so a synchronizer
///   retrying a quantum can blindly retransmit;
/// * grants are idempotent — a repeated grant for the just-completed
///   quantum is answered from the retransmit buffer *without* re-running
///   the RTL (re-running would diverge the simulated state);
/// * a [`Packet::Resync`] is answered with the server's own position and
///   a retransmission of whatever completed-quantum data the client has
///   not acknowledged seeing.
///
/// [`InlineTransport`] runs the same handler on the client's thread.
///
/// # Errors
///
/// Returns the first transport error other than an orderly disconnect,
/// including [`TransportError::Protocol`] when the client sends a packet
/// the server role does not accept (the server must never panic on peer
/// input — it is the long-lived process next to the RTL simulation).
/// A [`TransportError::Disconnected`] is an orderly end of session no
/// matter which half of the exchange observes it first: a `recv` after
/// the client is gone, or a `send` racing the synchronizer's wind-down
/// drop after a latched fault.
pub fn serve_rtl<T: Transport, R: RtlSide>(
    transport: &mut T,
    rtl: &mut R,
) -> Result<(), TransportError> {
    let mut server = RtlServer::default();
    let mut replies = Vec::new();
    loop {
        let served = transport.recv().and_then(|packet| {
            replies.clear();
            let flow = server.handle(packet, rtl, |reply| replies.push(reply))?;
            if !replies.is_empty() {
                transport.send_all(&replies)?;
            }
            Ok(flow)
        });
        match served {
            Ok(ControlFlow::Continue(())) => {}
            Ok(ControlFlow::Break(())) | Err(TransportError::Disconnected) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// The server half of the sequenced recovery protocol: what [`serve_rtl`]
/// and [`InlineTransport`] keep between packets, and the replies each
/// packet earns.
#[derive(Debug, Default)]
struct RtlServer {
    /// Next inbound data sequence expected (the dedupe floor). A gap means
    /// the link lost a packet in flight; the payload is gone, which the
    /// application layer absorbs — the floor jumps forward so later data
    /// still flows.
    expect_rx: u32,
    /// Sequence numbering for server → synchronizer data.
    next_tx_seq: u32,
    /// Quanta completed so far == the quantum index the next fresh grant
    /// must carry.
    completed: u64,
    /// The last completed quantum's results, buffered for retransmission
    /// until the next fresh grant implicitly acknowledges them.
    last_results: Vec<(u32, Vec<u8>)>,
    /// The last completed quantum's grant, echoed in its `CyclesDone`.
    last_cycles: u64,
}

impl RtlServer {
    /// Handles one packet from the synchronizer against `rtl`, passing
    /// each reply to `send` in order. Returns [`ControlFlow::Break`] on a
    /// [`Packet::Shutdown`]: the session is over.
    ///
    /// # Errors
    ///
    /// [`TransportError::Protocol`], before any reply, for a packet the
    /// server role does not accept: a grant from the far past (results no
    /// longer buffered) or the future (the client skipped ahead), after
    /// which the session cannot converge, or a packet only the server
    /// sends.
    fn handle<R: RtlSide>(
        &mut self,
        packet: Packet,
        rtl: &mut R,
        mut send: impl FnMut(Packet),
    ) -> Result<ControlFlow<()>, TransportError> {
        match packet {
            Packet::Data { seq, payload } => {
                if seq >= self.expect_rx {
                    rtl.push_data(payload);
                    self.expect_rx = seq.wrapping_add(1);
                }
                // seq < expect_rx: retransmitted duplicate — drop.
            }
            Packet::GrantCycles { cycles, quantum } => {
                // A fresh grant runs the RTL. A grant re-delivered for the
                // quantum just completed is answered from the buffer
                // alone: re-running would diverge the simulated state.
                if quantum.wrapping_add(1) != self.completed {
                    if quantum != self.completed {
                        return Err(TransportError::Protocol {
                            got: "GrantCycles",
                            at: "RTL server",
                        });
                    }
                    rtl.grant_and_run(cycles);
                    self.last_results.clear();
                    for payload in rtl.drain_tx() {
                        self.last_results.push((self.next_tx_seq, payload));
                        self.next_tx_seq = self.next_tx_seq.wrapping_add(1);
                    }
                    self.last_cycles = cycles;
                    self.completed += 1;
                }
                self.send_results(0, &mut send);
                send(Packet::CyclesDone {
                    cycles: self.last_cycles,
                    quantum,
                });
            }
            Packet::Resync {
                expect_rx: peer_expect,
                quantum: _,
            } => {
                send(Packet::Resync {
                    expect_rx: self.expect_rx,
                    quantum: self.completed,
                });
                self.send_results(peer_expect, &mut send);
            }
            Packet::Shutdown => return Ok(ControlFlow::Break(())),
            other => {
                return Err(TransportError::Protocol {
                    got: other.kind_name(),
                    at: "RTL server",
                })
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Sends the last completed quantum's results from sequence `from` on.
    fn send_results(&self, from: u32, send: &mut impl FnMut(Packet)) {
        for (seq, payload) in self.last_results.iter().filter(|(seq, _)| *seq >= from) {
            send(Packet::Data {
                seq: *seq,
                payload: payload.clone(),
            });
        }
    }
}

/// A client-side transport that serves its [`RtlSide`] on the calling
/// thread: every [`send`](Transport::send) runs the packet handler of
/// [`serve_rtl`] at once, and the replies queue for
/// [`recv`](Transport::recv).
///
/// The RTL sees the packets, and the client the replies, in the order
/// [`serve_rtl`] on the far end of a
/// [`ChannelTransport`](crate::transport::ChannelTransport) pair gives
/// them. The synchronizer waits for every reply in lockstep, so a server
/// thread would overlap nothing; it would only add two cross-thread
/// wake-ups per quantum.
///
/// It cannot block. A `recv` with nothing queued would wait for a packet
/// no one will send, so it returns [`TransportError::Protocol`], which no
/// retry can clear. Once the server has seen a [`Packet::Shutdown`] or
/// failed, it is gone: queued replies are still delivered, then
/// [`TransportError::Disconnected`], and sends report `Disconnected`.
#[derive(Debug)]
pub struct InlineTransport<R> {
    rtl: R,
    server: RtlServer,
    replies: VecDeque<Packet>,
    /// False once the server has shut down or failed.
    open: bool,
}

impl<R: RtlSide> InlineTransport<R> {
    /// A transport serving `rtl` from a fresh session.
    pub fn new(rtl: R) -> InlineTransport<R> {
        InlineTransport {
            rtl,
            server: RtlServer::default(),
            replies: VecDeque::new(),
            open: true,
        }
    }

    /// Hands back the served RTL.
    pub fn into_rtl(self) -> R {
        self.rtl
    }
}

impl<R: RtlSide> Transport for InlineTransport<R> {
    /// Runs the server's handler on `packet`. A handler error closes the
    /// session and is returned here, where the threaded server would
    /// return it from its thread and disconnect.
    fn send(&mut self, packet: &Packet) -> Result<(), TransportError> {
        if !self.open {
            return Err(TransportError::Disconnected);
        }
        let replies = &mut self.replies;
        let handled = self.server.handle(packet.clone(), &mut self.rtl, |reply| {
            replies.push_back(reply)
        });
        self.open = matches!(handled, Ok(ControlFlow::Continue(())));
        handled.map(|_| ())
    }

    fn try_recv(&mut self) -> Result<Option<Packet>, TransportError> {
        match self.replies.pop_front() {
            None if !self.open => Err(TransportError::Disconnected),
            next => Ok(next),
        }
    }

    fn recv(&mut self) -> Result<Packet, TransportError> {
        self.try_recv()?.ok_or(TransportError::Protocol {
            got: "recv with nothing queued",
            at: "in-process RTL server",
        })
    }

    /// The server lives in this transport, so there is no connection to
    /// re-establish, as for a `ChannelTransport`.
    fn reconnect(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    /// The served RTL's cost-model wall: it runs inside this transport's
    /// `send`, so the synchronizer can carve it out of the grant.
    fn take_cost_model_wall(&mut self) -> Duration {
        self.rtl.take_cost_model_wall()
    }

    /// The served RTL's trace events: it lives in this transport.
    fn recent_events(&self) -> &[TraceEvent] {
        self.rtl.recent_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultyTransport};
    use crate::transport::ChannelTransport;
    use rose_sim_core::cycles::{ClockSpec, FrameSpec};
    use std::thread;

    /// Echo environment: replies to each datum with the same bytes + 1,
    /// logging every payload it handles in order.
    #[derive(Default)]
    struct EchoEnv {
        frames: u64,
        handled: u64,
        seen: Vec<Vec<u8>>,
    }

    impl EnvSide for EchoEnv {
        fn step_frames(&mut self, frames: u64) {
            self.frames += frames;
        }

        fn handle_data(&mut self, payload: &[u8]) -> Vec<Vec<u8>> {
            self.handled += 1;
            self.seen.push(payload.to_vec());
            vec![payload.iter().map(|b| b.wrapping_add(1)).collect()]
        }
    }

    /// Loopback RTL: every pushed payload is emitted back on the next
    /// quantum; counts granted cycles and logs every received payload.
    #[derive(Default)]
    struct LoopRtl {
        cycles: u64,
        grants: u64,
        rx: Vec<Vec<u8>>,
        tx: Vec<Vec<u8>>,
        received: Vec<Vec<u8>>,
    }

    impl RtlSide for LoopRtl {
        fn grant_and_run(&mut self, cycles: u64) {
            self.cycles += cycles;
            self.grants += 1;
            self.tx.append(&mut self.rx);
        }

        fn push_data(&mut self, payload: Vec<u8>) {
            self.received.push(payload.clone());
            self.rx.push(payload);
        }

        fn drain_tx(&mut self) -> Vec<Vec<u8>> {
            std::mem::take(&mut self.tx)
        }
    }

    fn config(frames_per_sync: u64) -> SyncConfig {
        SyncConfig::new(
            SyncRatio::new(ClockSpec::from_hz(600), FrameSpec::from_hz(60)),
            frames_per_sync,
        )
    }

    #[test]
    fn lockstep_advances_both_domains() {
        let mut sync = Synchronizer::new(config(2), EchoEnv::default(), LoopRtl::default());
        sync.run_syncs(5);
        assert_eq!(sync.env().frames, 10);
        assert_eq!(sync.rtl().cycles, 5 * 2 * 10); // 10 cycles/frame
        assert_eq!(sync.stats().sim_frames, 10);
        assert_eq!(sync.stats().sim_cycles, 100);
        assert_eq!(sync.stats().syncs, 5);
    }

    #[test]
    fn data_crosses_at_sync_boundaries() {
        let mut sync = Synchronizer::new(config(1), EchoEnv::default(), LoopRtl::default());
        // Seed a message in the RTL TX path.
        sync.rtl_mut().tx.push(vec![1, 2, 3]);
        sync.step_sync();
        // Sync 1: message went to env, echo (+1) queued into RTL rx and
        // emitted into tx by the same grant.
        assert_eq!(sync.env().handled, 1);
        sync.step_sync();
        // Sync 2: echoed message [2,3,4] reached the env and re-echoed.
        assert_eq!(sync.env().handled, 2);
        assert_eq!(sync.stats().data_to_env, 2);
        assert_eq!(sync.stats().data_to_rtl, 2);
    }

    #[test]
    fn run_until_predicate_stops() {
        let mut sync = Synchronizer::new(config(1), EchoEnv::default(), LoopRtl::default());
        let executed = sync.run_until(100, |env| env.frames >= 7);
        assert_eq!(executed, 7);
        assert_eq!(sync.env().frames, 7);
    }

    #[test]
    fn equation_1_cycles_per_sync() {
        let cfg = SyncConfig::new(
            SyncRatio::new(ClockSpec::from_hz(1_000_000_000), FrameSpec::from_hz(60)),
            1,
        );
        assert_eq!(cfg.cycles_per_sync(), 16_666_666);
        // Exact, not 40 * 16_666_666 = 666_666_640: the coarse period is
        // sized so its grants carry the fractional cycles every frame
        // would otherwise drop.
        let coarse = SyncConfig::new(cfg.ratio, 40);
        assert_eq!(coarse.cycles_per_sync(), 666_666_666);
    }

    /// Acceptance criterion for the drift fix: at 1 GHz / 60 fps the cycle
    /// timeline must stay within one frame's worth of cycles of the frame
    /// timeline over >= 10^4 sync periods, for every sync granularity.
    #[test]
    fn grants_do_not_drift_over_many_periods() {
        let ratio = SyncRatio::new(ClockSpec::from_hz(1_000_000_000), FrameSpec::from_hz(60));
        for frames_per_sync in [1u64, 10, 40] {
            let cfg = SyncConfig::new(ratio, frames_per_sync);
            let mut sync = Synchronizer::new(cfg, EchoEnv::default(), LoopRtl::default());
            sync.run_syncs(10_000);

            let frames = sync.stats().sim_frames;
            let cycles = sync.stats().sim_cycles;
            assert_eq!(frames, 10_000 * frames_per_sync);
            // The granted cycles telescope to the exact conversion...
            assert_eq!(cycles, ratio.cycles_for_frames(frames));
            assert_eq!(sync.rtl().cycles, cycles);
            // ...so the divergence from the ideal rational timeline stays
            // under one cycle — far inside the one-frame budget. The naive
            // per-frame truncation would be 40 cycles/frame off (16 M
            // cycles adrift by the end at frames_per_sync = 1).
            let ideal = frames as u128 * 1_000_000_000 / 60;
            let drift = ideal - cycles as u128;
            assert!(
                drift < ratio.cycles_per_frame() as u128,
                "drift {drift} cycles at frames_per_sync={frames_per_sync}"
            );
            assert!(drift <= 1, "span sizing should be cycle-exact: {drift}");
        }
    }

    /// The period runs on the calling thread, so an endpoint need not be
    /// `Send`: this `Rc`-holding RTL side would not compile against a
    /// synchronizer that handed the grant to a worker thread.
    #[test]
    fn endpoints_need_not_be_send() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct SharedCounterRtl {
            cycles: Rc<Cell<u64>>,
        }
        impl RtlSide for SharedCounterRtl {
            fn grant_and_run(&mut self, cycles: u64) {
                self.cycles.set(self.cycles.get() + cycles);
            }
            fn push_data(&mut self, _payload: Vec<u8>) {}
            fn drain_tx(&mut self) -> Vec<Vec<u8>> {
                Vec::new()
            }
        }

        let cycles = Rc::new(Cell::new(0));
        let rtl = SharedCounterRtl {
            cycles: Rc::clone(&cycles),
        };
        let mut sync = Synchronizer::new(config(1), EchoEnv::default(), rtl);
        sync.step_sync();
        assert_eq!(sync.run_until(100, |env| env.frames >= 5), 4);
        assert_eq!(cycles.get(), 5 * 10); // 10 cycles/frame
        assert_eq!(cycles.get(), sync.stats().sim_cycles);
    }

    /// A dead peer mid-mission must latch a fault and halt, not panic.
    #[test]
    fn dropped_peer_latches_fault_instead_of_panicking() {
        let (client, server) = ChannelTransport::pair();
        let mut sync = Synchronizer::new(config(1), EchoEnv::default(), RemoteRtl::new(client));
        drop(server); // peer dies before the first grant

        sync.run_until(100, |_| false);
        let result = sync.rtl_mut().take_fault();
        assert!(matches!(result, Some(TransportError::Disconnected)));
        assert!(sync.rtl().halted());
        // The fault was taken; the halt latch keeps the mission loop from
        // re-entering the dead transport.
        assert_eq!(sync.run_until(100, |_| false), 0);
        assert!(sync.rtl_mut().take_fault().is_none());
    }

    #[test]
    fn remote_rtl_matches_local_behavior() {
        // Serve a LoopRtl over an in-process transport on another thread,
        // then run the same scenario as `data_crosses_at_sync_boundaries`.
        let (client, mut server) = ChannelTransport::pair();
        let server_thread = thread::spawn(move || {
            let mut rtl = LoopRtl::default();
            serve_rtl(&mut server, &mut rtl).unwrap();
            rtl
        });

        let mut remote = RemoteRtl::new(client);
        remote.push_data(vec![9]);
        let mut sync = Synchronizer::new(config(1), EchoEnv::default(), remote);
        sync.step_sync(); // delivers [9]; loopback emits it
        sync.step_sync(); // env receives [9], echoes [10]
        assert_eq!(sync.env().handled, 1);
        sync.step_sync(); // loopback emitted [10] during sync 2's grant...
        assert_eq!(sync.env().handled, 2); // ...so env handles it here
        sync.step_sync();
        assert_eq!(sync.env().handled, 3);

        let (_, remote) = sync.into_parts();
        remote.shutdown().unwrap();
        let rtl = server_thread.join().unwrap();
        assert!(rtl.cycles > 0);
    }

    /// Tracing a run records quantum spans, grants, and packet crossings
    /// stamped in simulated time; an untraced run records nothing.
    #[test]
    fn synchronizer_traces_quanta_and_packets() {
        use rose_sim_core::cycles::{ClockSpec, FrameSpec};
        use rose_trace::{EventKind, TraceClock};

        let mut sync = Synchronizer::new(config(2), EchoEnv::default(), LoopRtl::default());
        sync.set_tracer(Tracer::enabled(TraceClock::new(
            ClockSpec::from_hz(600),
            FrameSpec::from_hz(60),
        )));
        sync.rtl_mut().tx.push(vec![1, 2, 3]);
        sync.run_syncs(3);

        let events = sync.take_trace_events();
        let quanta: Vec<_> = events.iter().filter(|e| e.name == "sync-quantum").collect();
        let grants = events.iter().filter(|e| e.name == "sync-grant").count();
        let packets = events.iter().filter(|e| e.name == "bridge-packet").count();
        assert_eq!(quanta.len(), 3);
        assert_eq!(grants, 3);
        // Seeded packet to env + its echo back, then the echo round-trips
        // again on later periods.
        assert_eq!(
            packets as u64,
            sync.stats().data_to_env + sync.stats().data_to_rtl
        );
        // Quantum spans tile the cycle timeline: 20 cycles per period at
        // 600 Hz / 60 fps × 2 frames = 33_333.3 µs each.
        assert_eq!(quanta[0].ts_us, 0.0);
        let EventKind::Complete { dur_us } = quanta[0].kind else {
            panic!("sync-quantum must be a span");
        };
        assert!((dur_us - 2e6 / 60.0).abs() < 1e-6);
        assert!((quanta[1].ts_us - dur_us).abs() < 1e-6);

        // Untraced runs pay the branch and record nothing.
        let mut quiet = Synchronizer::new(config(2), EchoEnv::default(), LoopRtl::default());
        quiet.run_syncs(3);
        assert!(quiet.take_trace_events().is_empty());
    }

    /// A transport dying *mid-mission* — after successful periods — must
    /// surface through `take_fault` after `run_until`, and the occupancy
    /// counters must stay consistent: every payload counted towards the
    /// RTL is either delivered to the server or still queued, never lost
    /// or double-counted.
    #[test]
    fn mid_mission_fault_surfaces_with_consistent_occupancy() {
        /// Streams one sensor payload towards the SoC every period.
        struct StreamEnv;
        impl EnvSide for StreamEnv {
            fn step_frames(&mut self, _frames: u64) {}
            fn handle_data(&mut self, _payload: &[u8]) -> Vec<Vec<u8>> {
                Vec::new()
            }
            fn poll_data(&mut self) -> Vec<Vec<u8>> {
                vec![vec![0xAB; 8]]
            }
        }

        let (client, mut server) = ChannelTransport::pair();
        // A server that completes exactly two grants, then dies without an
        // orderly shutdown.
        let server_thread = thread::spawn(move || {
            let mut delivered = 0u64;
            for _ in 0..2 {
                loop {
                    match server.recv().unwrap() {
                        Packet::Data { .. } => delivered += 1,
                        Packet::GrantCycles { cycles, quantum } => {
                            server
                                .send(&Packet::CyclesDone { cycles, quantum })
                                .unwrap();
                            break;
                        }
                        other => panic!("unexpected packet {other:?}"),
                    }
                }
            }
            delivered
        });

        let mut sync = Synchronizer::new(config(1), StreamEnv, RemoteRtl::new(client));
        assert_eq!(sync.run_until(2, |_| false), 2);
        // Join before the next period so the transport is deterministically
        // dead (not merely buffering into a channel nobody reads).
        let delivered = server_thread.join().unwrap();
        assert_eq!(delivered, 2);

        sync.run_until(10, |_| false);
        let result = sync.rtl_mut().take_fault();
        assert!(matches!(result, Some(TransportError::Disconnected)));

        let stats = *sync.stats();
        let (_, remote) = sync.into_parts();
        assert_eq!(
            stats.data_to_rtl,
            delivered + remote.pending_tx() as u64,
            "fault must not lose or double-count queued packets"
        );
        assert_eq!(
            remote.pending_tx(),
            1,
            "the failed period's payload stays queued"
        );
    }

    /// A peer that answers a grant with a packet the synchronizer role
    /// never accepts must latch a `Protocol` fault and wind down — not
    /// panic (PANIC001: peer input is never trusted).
    #[test]
    fn unexpected_packet_latches_protocol_fault() {
        let (client, mut server) = ChannelTransport::pair();
        let server_thread = thread::spawn(move || {
            // Answer the first grant with a grant of our own.
            loop {
                match server.recv() {
                    Ok(Packet::GrantCycles { .. }) => {
                        let _ = server.send(&Packet::GrantCycles {
                            cycles: 1,
                            quantum: 0,
                        });
                        break;
                    }
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
            server
        });

        let mut sync = Synchronizer::new(config(1), EchoEnv::default(), RemoteRtl::new(client));
        sync.run_until(10, |_| false);
        let result = sync.rtl_mut().take_fault();
        assert!(
            matches!(
                result,
                Some(TransportError::Protocol {
                    got: "GrantCycles",
                    ..
                })
            ),
            "got {result:?}"
        );
        assert!(sync.rtl().halted(), "protocol fault halts the mission loop");
        drop(server_thread.join());
    }

    /// The server side mirrors the same contract: a client speaking the
    /// wrong role returns a `Protocol` error from `serve_rtl` instead of
    /// killing the bridge-driver process.
    #[test]
    fn serve_rtl_rejects_wrong_role_packets() {
        let (mut client, mut server) = ChannelTransport::pair();
        client
            .send(&Packet::CyclesDone {
                cycles: 7,
                quantum: 0,
            })
            .unwrap();
        let mut rtl = LoopRtl::default();
        let result = serve_rtl(&mut server, &mut rtl);
        assert!(
            matches!(
                result,
                Err(TransportError::Protocol {
                    got: "CyclesDone",
                    at: "RTL server",
                })
            ),
            "got {result:?}"
        );
    }

    /// The profiler accumulates one entry per phase per quantum and stays
    /// out of snapshots (restore resets it).
    #[test]
    fn profiler_accumulates_and_stays_out_of_snapshots() {
        let mut sync = Synchronizer::new(config(1), EchoEnv::default(), LoopRtl::default());
        sync.rtl_mut().tx.push(vec![1, 2]);
        let outside = Stopwatch::start();
        sync.run_syncs(10);
        let outside = outside.elapsed();

        assert_eq!(
            sync.stats().data_to_env,
            10,
            "the seeded packet crosses every quantum"
        );

        let profiler = sync.profiler().clone();
        for phase in [Phase::EnvStep, Phase::RtlGrant, Phase::TraceOverhead] {
            assert_eq!(profiler.count(phase), 10, "phase {}", phase.name());
        }
        // The phases are laps of one stopwatch: they tile each step, so
        // their sum never exceeds the steps' wall time read from outside.
        assert!(profiler.total_wall() <= outside);

        // The profiler is excluded from snapshots: restore resets it.
        let mut w = SnapWriter::new();
        sync.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        sync.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert!(sync.profiler().is_empty());
    }

    /// Which endpoint call the table's endpoints make slow.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Slow {
        HandleData,
        StepFrames,
        Grant,
    }

    const SLOW: Duration = Duration::from_millis(5);

    fn sleep_if(slow: Slow, here: Slow) {
        if slow == here {
            thread::sleep(SLOW);
        }
    }

    struct SlowEnv(Slow);

    impl EnvSide for SlowEnv {
        fn step_frames(&mut self, _frames: u64) {
            sleep_if(self.0, Slow::StepFrames);
        }

        fn handle_data(&mut self, payload: &[u8]) -> Vec<Vec<u8>> {
            sleep_if(self.0, Slow::HandleData);
            vec![payload.to_vec()]
        }
    }

    struct SlowRtl(Slow, LoopRtl);

    impl RtlSide for SlowRtl {
        fn grant_and_run(&mut self, cycles: u64) {
            sleep_if(self.0, Slow::Grant);
            self.1.grant_and_run(cycles);
        }

        fn push_data(&mut self, payload: Vec<u8>) {
            self.1.push_data(payload);
        }

        fn drain_tx(&mut self) -> Vec<Vec<u8>> {
            self.1.drain_tx()
        }
    }

    /// Each lap books the work inside it: the environment's answers at the
    /// boundary (a camera render, a sensor read) and its frames are
    /// `env-step`, the grant is `rtl-grant`. Every lapped phase is booked
    /// once per step, and the laps tile the step.
    #[test]
    fn each_lap_books_its_own_work() {
        for (slow, booked) in [
            (Slow::HandleData, Phase::EnvStep),
            (Slow::StepFrames, Phase::EnvStep),
            (Slow::Grant, Phase::RtlGrant),
        ] {
            let mut sync =
                Synchronizer::new(config(1), SlowEnv(slow), SlowRtl(slow, LoopRtl::default()));
            sync.rtl_mut().1.tx.push(vec![1, 2]);
            let outside = Stopwatch::start();
            sync.step_sync();
            let outside = outside.elapsed();

            let profiler = sync.profiler();
            for phase in Phase::ALL {
                let (total, count) = (profiler.total(phase), profiler.count(phase));
                if phase == booked {
                    assert!(total >= SLOW, "slow {slow:?}: {} {total:?}", phase.name());
                } else {
                    assert!(total < SLOW, "slow {slow:?}: {} {total:?}", phase.name());
                }
                let lapped = matches!(
                    phase,
                    Phase::EnvStep | Phase::RtlGrant | Phase::TraceOverhead
                );
                assert_eq!(count, u64::from(lapped), "slow {slow:?}: {}", phase.name());
            }
            assert!(profiler.total_wall() <= outside, "slow {slow:?}");
            assert_eq!(sync.rtl().1.received, [vec![1, 2]]);
        }
    }

    /// A transport that dies mid-outbox must keep the unsent payloads
    /// queued (counted by `pending_tx`), not silently drop them.
    #[test]
    fn faulted_send_retains_unsent_outbox() {
        let (client, server) = ChannelTransport::pair();
        let mut remote = RemoteRtl::new(client);
        remote.push_data(vec![1]);
        remote.push_data(vec![2]);
        remote.push_data(vec![3]);
        assert_eq!(remote.pending_tx(), 3);
        drop(server);

        remote.grant_and_run(100);
        assert!(remote.halted());
        // The dead channel accepted nothing: all three remain queued.
        assert_eq!(remote.pending_tx(), 3);
        assert!(matches!(
            remote.take_fault(),
            Some(TransportError::Disconnected)
        ));
        // The dead peer exhausted the default policy before latching.
        assert_eq!(remote.recovery_stats().exhausted, 1);
        assert_eq!(
            remote.recovery_stats().retries,
            u64::from(RecoveryPolicy::default().max_retries)
        );
    }

    /// The recovery tentpole: a scheduled transient disconnect mid-mission
    /// is absorbed by the retry/reconnect/resync ladder — the mission
    /// completes with no latched fault and the endpoints see exactly the
    /// traffic of a fault-free run.
    #[test]
    fn transient_disconnect_recovers_without_latching() {
        use crate::faults::{FaultKind, FaultPlan, FaultyTransport};

        fn run(plan: FaultPlan) -> (SyncStats, Vec<Vec<u8>>, RecoveryStats) {
            let (client, mut server) = ChannelTransport::pair();
            let server_thread = thread::spawn(move || {
                let mut rtl = LoopRtl::default();
                serve_rtl(&mut server, &mut rtl).unwrap();
                rtl
            });
            let faulty = FaultyTransport::new(client, plan);
            let mut sync = Synchronizer::new(config(1), EchoEnv::default(), RemoteRtl::new(faulty));
            sync.rtl_mut().push_data(vec![1, 2, 3]);
            let executed = sync.run_until(10, |_| false);
            assert!(
                sync.rtl_mut().take_fault().is_none(),
                "transient fault must not latch"
            );
            assert_eq!(executed, 10);
            let stats = *sync.stats();
            let recovery = *sync.rtl().recovery_stats();
            let (env, remote) = sync.into_parts();
            remote.shutdown().unwrap();
            server_thread.join().unwrap();
            (stats, env.seen, recovery)
        }

        let plan = FaultPlan::new(11).with_event(3, FaultKind::Disconnect { ops: 3 });
        let (f_stats, f_seen, recovery) = run(plan);
        assert!(recovery.retries >= 1, "{recovery:?}");
        assert!(recovery.reconnects >= 1, "{recovery:?}");
        assert_eq!(recovery.recovered, 1, "{recovery:?}");
        assert_eq!(recovery.exhausted, 0, "{recovery:?}");

        // Fault-free reference: the recovered run moved identical data.
        let (c_stats, c_seen, clean_recovery) = run(FaultPlan::new(11));
        assert_eq!(clean_recovery.retries, 0);
        assert_eq!(f_stats.data_to_env, c_stats.data_to_env);
        assert_eq!(f_stats.data_to_rtl, c_stats.data_to_rtl);
        assert_eq!(f_seen, c_seen, "recovery must be invisible to the env");
    }

    /// A stall (timeouts without disconnect) is absorbed by plain retries
    /// — no reconnect needed.
    #[test]
    fn stall_recovers_with_retries_alone() {
        use crate::faults::{FaultKind, FaultPlan, FaultyTransport};

        let (client, mut server) = ChannelTransport::pair();
        let server_thread = thread::spawn(move || {
            let mut rtl = LoopRtl::default();
            serve_rtl(&mut server, &mut rtl).unwrap();
        });
        let plan = FaultPlan::new(12).with_event(1, FaultKind::Stall { ops: 2 });
        let faulty = FaultyTransport::new(client, plan);
        let mut sync = Synchronizer::new(config(1), EchoEnv::default(), RemoteRtl::new(faulty));
        sync.rtl_mut().push_data(vec![7]);
        assert_eq!(sync.run_until(5, |_| false), 5);
        assert!(sync.rtl_mut().take_fault().is_none());
        let recovery = *sync.rtl().recovery_stats();
        assert!(recovery.retries >= 2, "{recovery:?}");
        assert_eq!(recovery.exhausted, 0, "{recovery:?}");
        assert!(recovery.backoff_units >= 2, "{recovery:?}");
        let (_, remote) = sync.into_parts();
        remote.shutdown().unwrap();
        server_thread.join().unwrap();
    }

    fn data(seq: u32, payload: &[u8]) -> Packet {
        Packet::Data {
            seq,
            payload: payload.to_vec(),
        }
    }

    fn grant(quantum: u64) -> Packet {
        Packet::GrantCycles {
            cycles: 10,
            quantum,
        }
    }

    /// Every reply the inline server has queued, in order.
    fn replies<R: RtlSide>(inline: &mut InlineTransport<R>) -> Vec<Packet> {
        std::iter::from_fn(|| inline.try_recv().unwrap()).collect()
    }

    /// A grant re-delivered for the quantum just completed is answered
    /// from the retransmit buffer; the RTL runs once.
    #[test]
    fn repeated_grant_is_answered_without_rerunning_the_rtl() {
        let mut inline = InlineTransport::new(LoopRtl::default());
        inline.send(&data(0, &[1])).unwrap();
        inline.send(&grant(0)).unwrap();
        let done = Packet::CyclesDone {
            cycles: 10,
            quantum: 0,
        };
        assert_eq!(replies(&mut inline), [data(0, &[1]), done.clone()]);

        inline.send(&data(0, &[1])).unwrap(); // a retry's retransmission
        inline.send(&grant(0)).unwrap();
        assert_eq!(replies(&mut inline), [data(0, &[1]), done]);
        let rtl = inline.into_rtl();
        assert_eq!(rtl.grants, 1, "the repeated grant re-ran the RTL");
        assert_eq!(rtl.received, [vec![1]], "the duplicate was not dropped");
    }

    /// `Resync` answers with the server's position, then the completed
    /// quantum's data from the peer's receive floor on.
    #[test]
    fn resync_returns_the_position_and_the_unacknowledged_data() {
        let mut inline = InlineTransport::new(LoopRtl::default());
        inline.send(&data(0, &[1])).unwrap();
        inline.send(&data(1, &[2])).unwrap();
        inline.send(&grant(0)).unwrap();
        assert_eq!(replies(&mut inline).len(), 3);

        inline
            .send(&Packet::Resync {
                expect_rx: 1,
                quantum: 0,
            })
            .unwrap();
        assert_eq!(
            replies(&mut inline),
            [
                Packet::Resync {
                    expect_rx: 2,
                    quantum: 1
                },
                data(1, &[2]),
            ]
        );
    }

    /// A packet the server role does not accept yields `Protocol` and
    /// ends the session.
    #[test]
    fn unexpected_packet_yields_protocol() {
        let mut inline = InlineTransport::new(LoopRtl::default());
        let done = Packet::CyclesDone {
            cycles: 7,
            quantum: 0,
        };
        assert!(matches!(
            inline.send(&done),
            Err(TransportError::Protocol {
                got: "CyclesDone",
                at: "RTL server",
            })
        ));
        assert!(matches!(
            inline.send(&grant(0)),
            Err(TransportError::Disconnected)
        ));

        // A grant from the future cannot converge either.
        let mut inline = InlineTransport::new(LoopRtl::default());
        assert!(matches!(
            inline.send(&grant(1)),
            Err(TransportError::Protocol {
                got: "GrantCycles",
                ..
            })
        ));
        assert_eq!(inline.into_rtl().grants, 0);
    }

    /// With nothing queued, `recv` errors at once, where a thread serving
    /// the other end would leave it waiting forever; no retry can clear
    /// the error.
    #[test]
    fn recv_with_nothing_queued_errors_instead_of_hanging() {
        let mut inline = InlineTransport::new(LoopRtl::default());
        assert!(matches!(inline.try_recv(), Ok(None)));
        let error = inline.recv().unwrap_err();
        assert!(matches!(error, TransportError::Protocol { .. }), "{error}");
        assert!(!error.is_transient());
        inline.reconnect().unwrap();
    }

    /// After `Shutdown` the server is gone: queued replies still arrive,
    /// then `Disconnected`, and sends report `Disconnected`.
    #[test]
    fn send_after_shutdown_reports_disconnected() {
        let mut inline = InlineTransport::new(LoopRtl::default());
        inline.send(&grant(0)).unwrap();
        inline.send(&Packet::Shutdown).unwrap();
        assert!(matches!(
            inline.send(&grant(1)),
            Err(TransportError::Disconnected)
        ));
        assert!(matches!(inline.recv(), Ok(Packet::CyclesDone { .. })));
        assert!(matches!(inline.recv(), Err(TransportError::Disconnected)));
        assert!(matches!(
            inline.try_recv(),
            Err(TransportError::Disconnected)
        ));
        assert_eq!(inline.into_rtl().grants, 1);
    }

    /// Feeds `serve_rtl` scripted packets and records each call it makes
    /// to send, one entry per call.
    #[derive(Default)]
    struct Recording {
        inbound: VecDeque<Packet>,
        calls: Vec<Vec<Packet>>,
    }

    impl Transport for Recording {
        fn send(&mut self, packet: &Packet) -> Result<(), TransportError> {
            self.calls.push(vec![packet.clone()]);
            Ok(())
        }

        fn send_all(&mut self, packets: &[Packet]) -> Result<(), TransportError> {
            self.calls.push(packets.to_vec());
            Ok(())
        }

        fn try_recv(&mut self) -> Result<Option<Packet>, TransportError> {
            Ok(self.inbound.pop_front())
        }

        fn recv(&mut self) -> Result<Packet, TransportError> {
            self.inbound.pop_front().ok_or(TransportError::Disconnected)
        }
    }

    /// `serve_rtl` answers each packet with one `send_all` of its
    /// replies, in the order the handler made them: a grant's data then
    /// its `CyclesDone`, the same batch again from the buffer for a
    /// repeated grant, and a `Resync` then the data the peer lacks.
    #[test]
    fn serve_rtl_sends_each_packets_replies_as_one_batch() {
        let mut link = Recording::default();
        link.inbound.extend([
            data(0, &[1]),
            data(1, &[2]),
            grant(0),
            grant(0),
            Packet::Resync {
                expect_rx: 1,
                quantum: 0,
            },
            Packet::Shutdown,
        ]);
        let mut rtl = LoopRtl::default();
        serve_rtl(&mut link, &mut rtl).unwrap();
        let grant_replies = vec![
            data(0, &[1]),
            data(1, &[2]),
            Packet::CyclesDone {
                cycles: 10,
                quantum: 0,
            },
        ];
        let resync_replies = vec![
            Packet::Resync {
                expect_rx: 2,
                quantum: 1,
            },
            data(1, &[2]),
        ];
        assert_eq!(
            link.calls,
            [grant_replies.clone(), grant_replies, resync_replies]
        );
        assert_eq!(rtl.grants, 1, "the repeated grant re-ran the RTL");
    }

    /// The inline server is the threaded one without the thread: under
    /// random fault plans, with and without recovery, the environment,
    /// the RTL, the counters and the outcome match run for run.
    #[test]
    fn inline_server_matches_the_threaded_server_under_faults() {
        type Outcome = (Vec<Vec<u8>>, Vec<Vec<u8>>, u64, SyncStats, String);

        fn fly<T: Transport>(
            client: T,
            plan: FaultPlan,
            policy: RecoveryPolicy,
            into_rtl: impl FnOnce(T) -> LoopRtl,
        ) -> Outcome {
            let remote = RemoteRtl::with_policy(FaultyTransport::new(client, plan), policy);
            let mut sync = Synchronizer::new(config(1), EchoEnv::default(), remote);
            sync.rtl_mut().push_data(vec![1, 2, 3]);
            sync.run_until(24, |_| false);
            let stats = *sync.stats();
            let (env, remote) = sync.into_parts();
            let outcome = format!(
                "{:?} {:?} {:?}",
                remote.fault().map(ToString::to_string),
                remote.recovery_stats(),
                remote.transport().stats()
            );
            let (faulty, _) = remote.close();
            let rtl = into_rtl(faulty.into_inner());
            (env.seen, rtl.received, rtl.cycles, stats, outcome)
        }

        for seed in 0..24u64 {
            let plan = FaultPlan::random(seed, 20, 6);
            let policy = if seed % 2 == 0 {
                RecoveryPolicy::default()
            } else {
                RecoveryPolicy::disabled()
            };
            let inline = fly(
                InlineTransport::new(LoopRtl::default()),
                plan.clone(),
                policy,
                |t| t.into_rtl(),
            );
            let (client, mut server) = ChannelTransport::pair();
            let server_thread = thread::spawn(move || {
                let mut rtl = LoopRtl::default();
                serve_rtl(&mut server, &mut rtl).unwrap();
                rtl
            });
            let threaded = fly(client, plan, policy, |client| {
                drop(client);
                server_thread.join().unwrap()
            });
            assert_eq!(inline, threaded, "seed {seed}");
        }
    }

    #[test]
    fn backoff_schedule_doubles_to_the_cap() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.backoff_units(0), 1);
        assert_eq!(policy.backoff_units(1), 2);
        assert_eq!(policy.backoff_units(3), 8);
        assert_eq!(policy.backoff_units(10), 16, "capped");
        let off = RecoveryPolicy::disabled();
        assert_eq!(off.max_retries, 0);
    }
}

#[cfg(test)]
mod poll_tests {
    use super::*;
    use rose_sim_core::cycles::{ClockSpec, FrameSpec};

    /// An environment that streams one unsolicited sensor sample per sync
    /// (the `poll_data` path, used for pushed sensor streams).
    #[derive(Default)]
    struct StreamingEnv {
        frame: u64,
    }

    impl EnvSide for StreamingEnv {
        fn step_frames(&mut self, frames: u64) {
            self.frame += frames;
        }

        fn handle_data(&mut self, _payload: &[u8]) -> Vec<Vec<u8>> {
            Vec::new()
        }

        fn poll_data(&mut self) -> Vec<Vec<u8>> {
            vec![self.frame.to_le_bytes().to_vec()]
        }
    }

    #[derive(Default)]
    struct SinkRtl {
        received: Vec<Vec<u8>>,
    }

    impl RtlSide for SinkRtl {
        fn grant_and_run(&mut self, _cycles: u64) {}
        fn push_data(&mut self, payload: Vec<u8>) {
            self.received.push(payload);
        }
        fn drain_tx(&mut self) -> Vec<Vec<u8>> {
            Vec::new()
        }
    }

    #[test]
    fn unsolicited_env_data_streams_to_the_rtl() {
        let config = SyncConfig::new(
            SyncRatio::new(ClockSpec::from_hz(600), FrameSpec::from_hz(60)),
            1,
        );
        let mut sync = Synchronizer::new(config, StreamingEnv::default(), SinkRtl::default());
        sync.run_syncs(5);
        assert_eq!(sync.rtl().received.len(), 5);
        // Samples carry the frame count at push time (before the step).
        assert_eq!(sync.rtl().received[0], 0u64.to_le_bytes().to_vec());
        assert_eq!(sync.rtl().received[4], 4u64.to_le_bytes().to_vec());
        assert_eq!(sync.stats().data_to_rtl, 5);
    }
}
