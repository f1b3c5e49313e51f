//! The top-level SoC: cores, accelerator, memory, bridge, and the
//! quantum-throttled execution engine.
//!
//! [`Soc::run_granted`] advances the SoC by whatever cycle budget the RoSÉ
//! BRIDGE control unit currently grants, exactly like a FireSim simulation
//! consuming host tokens: compute proceeds while budget remains, and the
//! SoC stalls (burning simulated idle time) whenever it polls an empty I/O
//! queue — the artificial latency mechanism measured in Figure 16.

use crate::bridge::{BridgeHwConfig, BridgeHwStats, RoseBridgeHw};
use crate::config::SocConfig;
use crate::cpu::{CpuModel, CpuStats};
use crate::gemmini::{AccelRun, ConvShape, GemminiModel};
use crate::kernel::Kernel;
use crate::mem::CacheStats;
use crate::program::{ProgContext, TargetOp, TargetProgram};
use crate::timing_cache::{Hierarchy, KernelEntry, SharedTimingCache};
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use rose_trace::{ArgValue, Stopwatch, TraceEvent, Tracer, Track};
use std::collections::BTreeMap;
use std::time::Duration;

/// Aggregate SoC execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SocStats {
    /// Total cycles the SoC has advanced.
    pub cycles: u64,
    /// Cycles spent stalled on I/O or halted.
    pub idle_cycles: u64,
    /// Cycles the accelerator was active.
    pub accel_cycles: u64,
    /// MACs performed by the accelerator.
    pub accel_macs: u64,
    /// CPU execution counters.
    pub cpu: CpuStats,
    /// L1 data cache counters.
    pub l1: CacheStats,
    /// L2 cache counters.
    pub l2: CacheStats,
    /// Bridge traffic counters.
    pub bridge: BridgeHwStats,
}

impl SocStats {
    /// The accelerator activity factor: the fraction of time the DNN
    /// accelerator was actively executing layers (Section 5.3).
    pub fn activity_factor(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.accel_cycles as f64 / self.cycles as f64
        }
    }
}

/// The trace slice title for a CPU kernel invocation.
fn kernel_trace_name(kernel: &Kernel) -> &'static str {
    match kernel {
        Kernel::MatMul { .. } => "kernel:matmul",
        Kernel::Im2col { .. } => "kernel:im2col",
        Kernel::Elementwise { .. } => "kernel:elementwise",
        Kernel::Pool { .. } => "kernel:pool",
        Kernel::Softmax { .. } => "kernel:softmax",
        Kernel::Memcpy { .. } => "kernel:memcpy",
        Kernel::FrameworkNode { .. } => "kernel:framework-node",
        Kernel::Control { .. } => "kernel:control",
    }
}

/// An operation in flight, with its remaining cycle cost.
#[derive(Debug)]
struct Pending {
    remaining: u64,
    idle: bool,
    effect: Effect,
}

#[derive(Debug)]
enum Effect {
    None,
    Deliver(Vec<u8>),
    PushTx(Vec<u8>),
}

impl Pending {
    fn save_state(&self, w: &mut SnapWriter) {
        let Pending {
            remaining,
            idle,
            effect,
        } = self;
        w.u64(*remaining);
        w.bool(*idle);
        effect.save_state(w);
    }

    fn restore_state(r: &mut SnapReader<'_>) -> Result<Pending, SnapError> {
        Ok(Pending {
            remaining: r.u64()?,
            idle: r.bool()?,
            effect: Effect::restore_state(r)?,
        })
    }
}

impl Effect {
    fn save_state(&self, w: &mut SnapWriter) {
        match self {
            Effect::None => w.u8(0),
            Effect::Deliver(msg) => {
                w.u8(1);
                w.bytes(msg);
            }
            Effect::PushTx(msg) => {
                w.u8(2);
                w.bytes(msg);
            }
        }
    }

    fn restore_state(r: &mut SnapReader<'_>) -> Result<Effect, SnapError> {
        match r.u8()? {
            0 => Ok(Effect::None),
            1 => Ok(Effect::Deliver(r.bytes()?)),
            2 => Ok(Effect::PushTx(r.bytes()?)),
            tag => Err(SnapError::BadTag {
                context: "Effect",
                tag,
            }),
        }
    }
}

/// The simulated SoC.
pub struct Soc {
    config: SocConfig,
    cpu: CpuModel,
    gemmini: Option<GemminiModel>,
    /// The memory hierarchy, whose contents a timing-cache hit replays by
    /// reference ([`crate::timing_cache`]).
    mem: Hierarchy,
    bridge: RoseBridgeHw,
    program: Box<dyn TargetProgram>,
    now: u64,
    idle_cycles: u64,
    halted: bool,
    pending: Option<Pending>,
    /// An op returned by the program that could not issue yet (blocked
    /// Recv / backpressured Send).
    blocked: Option<TargetOp>,
    inbox: Option<Vec<u8>>,
    /// Watchdog window for a blocked `Recv`, in quanta with an empty RX
    /// queue. 0 (the default) blocks forever — the pre-robustness
    /// behavior. Structural, like `config`.
    rx_timeout_quanta: u64,
    /// Consecutive quanta the current blocked `Recv` has seen an empty
    /// queue.
    rx_blocked_quanta: u64,
    /// A timeout fired and has not yet been delivered to the program.
    rx_timeout_fired: bool,
    // Cost caches are BTreeMaps (DET002): nothing iterates them today, but
    // a HashMap here would make any future drain/debug-dump depend on
    // SipHash's per-process key, silently breaking run-to-run determinism.
    kernel_costs: BTreeMap<Kernel, (u64, u64)>,
    conv_costs: BTreeMap<ConvShape, AccelRun>,
    matmul_costs: BTreeMap<(usize, usize, usize), AccelRun>,
    /// The cross-mission timing cache (DESIGN.md §4i), consulted on
    /// in-memory CPU-kernel cost misses. Structural, like `config`: attached
    /// by the mission driver, never snapshotted.
    timing_cache: Option<SharedTimingCache>,
    /// [`SharedTimingCache::fingerprint`] of `config`, precomputed when
    /// the cache is attached.
    timing_fingerprint: u64,
    /// Wall time spent in cost models (cold kernel expansion, kernel
    /// cache replays, accelerator timing), drained each grant for
    /// `Phase::CostModel` attribution. Host telemetry (§4f).
    cost_model_wall: Duration,
    tracer: Tracer,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("config", &self.config.name)
            .field("now", &self.now)
            .field("halted", &self.halted)
            .finish()
    }
}

impl Soc {
    /// Section magic guarding the SoC's snapshot region ("SOCS").
    pub const SNAP_SECTION: u32 = 0x534f_4353;

    /// Builds an SoC of the given configuration running `program`.
    pub fn new(config: SocConfig, program: Box<dyn TargetProgram>) -> Soc {
        Soc {
            cpu: CpuModel::new(config.cpu_config()),
            gemmini: config.gemmini.map(GemminiModel::new),
            mem: Hierarchy::new(config.mem),
            bridge: RoseBridgeHw::new(BridgeHwConfig::default()),
            program,
            now: 0,
            idle_cycles: 0,
            halted: false,
            pending: None,
            blocked: None,
            inbox: None,
            rx_timeout_quanta: 0,
            rx_blocked_quanta: 0,
            rx_timeout_fired: false,
            kernel_costs: BTreeMap::new(),
            conv_costs: BTreeMap::new(),
            matmul_costs: BTreeMap::new(),
            timing_cache: None,
            timing_fingerprint: 0,
            cost_model_wall: Duration::ZERO,
            tracer: Tracer::disabled(),
            config,
        }
    }

    /// Installs an event recorder; kernel, accelerator, MMIO, and stall
    /// activity is traced from the next grant on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The SoC's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains the SoC's recorded trace events.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.take_events()
    }

    /// The SoC configuration.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Current SoC cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// True once the program has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Host-side access to the bridge (for the synchronizer driver).
    pub fn bridge_mut(&mut self) -> &mut RoseBridgeHw {
        &mut self.bridge
    }

    /// Arms the blocked-`Recv` watchdog: after `quanta` consecutive
    /// synchronization quanta with an empty RX queue, the program is
    /// re-polled with [`ProgContext::rx_timed_out`] set instead of idling
    /// forever behind a message that was lost in flight. 0 disables the
    /// watchdog (the default). Responses normally arrive within one
    /// quantum, so any window of a few quanta is unreachable on a healthy
    /// link and this is behavior-neutral for clean runs.
    pub fn set_rx_timeout_quanta(&mut self, quanta: u64) {
        self.rx_timeout_quanta = quanta;
    }

    /// Attaches the cross-mission timing cache (DESIGN.md §4i),
    /// consulted on in-memory CPU-kernel cost misses. Structural, like
    /// `config`: the mission driver re-attaches it rather than the
    /// snapshot carrying it. Replays are bit-identical to cold expansion,
    /// so attaching a cache never changes mission results — only wall
    /// time.
    pub fn set_timing_cache(&mut self, cache: SharedTimingCache) {
        self.timing_fingerprint = SharedTimingCache::fingerprint(&self.config);
        self.timing_cache = Some(cache);
    }

    /// Drains the wall time spent in cost models (cold kernel expansion,
    /// kernel cache replays, accelerator timing) since the last call.
    /// Host telemetry for `Phase::CostModel` attribution; never enters
    /// simulated state (§4f).
    pub fn take_cost_model_wall(&mut self) -> Duration {
        std::mem::take(&mut self.cost_model_wall)
    }

    /// Execution statistics snapshot.
    pub fn stats(&self) -> SocStats {
        let mem = self.mem.counters();
        SocStats {
            cycles: self.now,
            idle_cycles: self.idle_cycles,
            accel_cycles: self.gemmini.as_ref().map_or(0, |g| g.total_cycles()),
            accel_macs: self.gemmini.as_ref().map_or(0, |g| g.total_macs()),
            cpu: self.cpu.stats(),
            l1: mem.l1d,
            l2: mem.l2,
            bridge: self.bridge.stats(),
        }
    }

    /// Serializes the SoC's complete dynamic state.
    ///
    /// The destructuring is exhaustive on purpose: adding a field to [`Soc`]
    /// without deciding how it snapshots becomes a compile error, upholding
    /// the no-hidden-state contract (DESIGN.md §4e). `config` is structural
    /// (rebuilt from `MissionConfig`-level data on resume); everything
    /// else — in-flight op position, cost caches, timing-model state, queue
    /// occupancy, and the trace prefix — round-trips through the snapshot.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Soc {
            config: _,
            cpu,
            gemmini,
            mem,
            bridge,
            program,
            now,
            idle_cycles,
            halted,
            pending,
            blocked,
            inbox,
            // Structural, like `config`: re-armed by the mission driver on
            // resume.
            rx_timeout_quanta: _,
            rx_blocked_quanta,
            rx_timeout_fired,
            kernel_costs,
            conv_costs,
            matmul_costs,
            // Structural, like `config`: the mission driver re-attaches
            // the cache handle on resume. Replays are bit-identical to
            // cold expansion, so presence or absence is digest-invisible.
            timing_cache: _,
            timing_fingerprint: _,
            tracer,
            // Host telemetry, not architectural state: a resumed run
            // re-observes only its own suffix (§4f).
            cost_model_wall: _,
        } = self;
        w.section(Soc::SNAP_SECTION);
        w.u64(*now);
        w.u64(*idle_cycles);
        w.bool(*halted);
        w.u64(*rx_blocked_quanta);
        w.bool(*rx_timeout_fired);
        w.opt(pending.as_ref(), |w, p| p.save_state(w));
        w.opt(blocked.as_ref(), |w, op| op.save_state(w));
        w.opt(inbox.as_deref(), SnapWriter::bytes);
        cpu.save_state(w);
        w.opt(gemmini.as_ref(), |w, g| g.save_state(w));
        mem.save_state(w);
        bridge.save_state(w);
        w.seq(kernel_costs, |w, (kernel, (cycles, instrs))| {
            kernel.save_state(w);
            w.u64(*cycles);
            w.u64(*instrs);
        });
        w.seq(conv_costs, |w, (shape, run)| {
            shape.save_state(w);
            run.save_state(w);
        });
        w.seq(matmul_costs, |w, (&(m, k, n), run)| {
            w.usize(m);
            w.usize(k);
            w.usize(n);
            run.save_state(w);
        });
        program.save_state(w);
        tracer.save_state(w);
    }

    /// Restores the SoC's dynamic state into a structurally identical SoC
    /// (same [`SocConfig`] and program type).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot, including a
    /// gemmini presence flag that contradicts this SoC's configuration.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section(Soc::SNAP_SECTION)?;
        self.now = r.u64()?;
        self.idle_cycles = r.u64()?;
        self.halted = r.bool()?;
        self.rx_blocked_quanta = r.u64()?;
        self.rx_timeout_fired = r.bool()?;
        self.pending = r.opt(Pending::restore_state)?;
        self.blocked = r.opt(TargetOp::restore_state)?;
        self.inbox = r.opt(SnapReader::bytes)?;
        self.cpu.restore_state(r)?;
        let has_gemmini = r.bool()?;
        match (&mut self.gemmini, has_gemmini) {
            (Some(g), true) => g.restore_state(r)?,
            (None, false) => {}
            (_, snapshot_has) => {
                return Err(SnapError::BadTag {
                    context: "Soc.gemmini presence mismatch",
                    tag: snapshot_has as u8,
                });
            }
        }
        self.mem.restore_state(r)?;
        self.bridge.restore_state(r)?;
        self.kernel_costs = r.seq(|r| {
            let kernel = Kernel::restore_state(r)?;
            Ok((kernel, (r.u64()?, r.u64()?)))
        })?;
        self.conv_costs =
            r.seq(|r| Ok((ConvShape::restore_state(r)?, AccelRun::restore_state(r)?)))?;
        self.matmul_costs = r.seq(|r| {
            let dims = (r.usize()?, r.usize()?, r.usize()?);
            Ok((dims, AccelRun::restore_state(r)?))
        })?;
        self.program.restore_state(r)?;
        self.tracer.restore_state(r)
    }

    /// Cost in cycles of moving `bytes` through the bridge MMIO registers
    /// (64-bit words, one uncached access each).
    fn mmio_cost(&self, bytes: usize) -> u64 {
        let words = bytes.div_ceil(8).max(1) as u64;
        words * self.mem.config().mmio_latency
    }

    /// Cycle cost of a CPU kernel (cached: dense kernels are
    /// data-independent, so each distinct shape is timed once; replays
    /// re-account cycles and instructions in the core's counters).
    ///
    /// In-memory misses consult the cross-mission timing cache
    /// before expanding cold ([`crate::timing_cache`]); the miss-path
    /// wall time accumulates for `Phase::CostModel` attribution.
    fn cpu_cost(&mut self, kernel: Kernel) -> u64 {
        if let Some(&(cycles, instrs)) = self.kernel_costs.get(&kernel) {
            self.cpu.add_cached(cycles, instrs);
            return cycles;
        }
        let sw = Stopwatch::start();
        let cycles = self.expand_cpu_kernel(kernel);
        self.cost_model_wall += sw.elapsed();
        cycles
    }

    /// The in-memory-miss path of [`Soc::cpu_cost`]: replay a recorded
    /// expansion when the timing cache holds one for this exact context
    /// (kernel, config fingerprint, the memory state timing reads, branch
    /// RNG) whose check hash matches the live pre-state and whose memory
    /// configuration matches the live one, expand cold — and record the
    /// result, replacing any entry that failed its check — otherwise. The
    /// context comes from [`Soc::timing_context`]. A hit adds the entry's
    /// counter gains and takes its post-state by reference, moving no
    /// cache contents; a cold expansion first copies in what an earlier
    /// hit left owed. Neither path touches the snapshot codec.
    fn expand_cpu_kernel(&mut self, kernel: Kernel) -> u64 {
        let ctx = self.timing_context();
        if let (Some(cache), Some((key, check))) = (&self.timing_cache, ctx) {
            let fp = self.timing_fingerprint;
            if let Some(entry) = cache.lookup_kernel(fp, &kernel, key, check, self.mem.config()) {
                self.cpu.replay_expansion(
                    entry.cycles,
                    entry.instrs,
                    entry.mispredicts,
                    entry.post_rng,
                );
                let cycles = entry.cycles.max(1);
                self.kernel_costs.insert(kernel, (cycles, entry.instrs));
                self.mem.replay(entry);
                return cycles;
            }
        }
        let mem = self.mem.contents();
        let before = self.cpu.stats();
        let mem_before = mem.counters();
        let cycles = self.cpu.run_kernel(&kernel, mem).max(1);
        let after = self.cpu.stats();
        let instrs = after.instrs - before.instrs;
        if let (Some(cache), Some((key, check))) = (&self.timing_cache, ctx) {
            let entry = KernelEntry::new(
                after.cycles - before.cycles,
                instrs,
                after.mispredicts - before.mispredicts,
                self.cpu.branch_rng(),
                check,
                mem.expansion_post(mem_before),
            );
            cache.insert_kernel(self.timing_fingerprint, kernel, key, entry);
        }
        self.kernel_costs.insert(kernel, (cycles, instrs));
        cycles
    }

    /// The expansion context `(key, check)` of the hierarchy and branch
    /// RNG, or `None` without a timing cache. Contents that a hit left
    /// owed are hashed by reference from the entry's memoised lanes;
    /// contents in the live arrays (a fresh SoC's, or what a cold
    /// expansion or a restore left) are walked
    /// ([`SharedTimingCache::mem_context_hash`]).
    /// Only the hierarchy's contents accessor hands the contents out to
    /// be changed, and it forgets the reference, so every lookup by
    /// reference takes the walk's pair; debug builds check it.
    fn timing_context(&self) -> Option<(u64, u64)> {
        self.timing_cache
            .is_some()
            .then(|| self.mem.context_hash(self.cpu.branch_rng()))
    }

    /// The accelerator, taken by field so callers can also borrow `mem`.
    fn accel(gemmini: &mut Option<GemminiModel>) -> &mut GemminiModel {
        gemmini
            .as_mut()
            // rose-lint: allow(PANIC002, programs with accel ops only compile for accel-equipped SocConfigs)
            .expect("program issued an accelerator op on an SoC without an accelerator")
    }

    fn conv_cost(&mut self, shape: ConvShape) -> AccelRun {
        if let Some(&run) = self.conv_costs.get(&shape) {
            // Re-account activity for the cached run.
            Soc::accel(&mut self.gemmini).add_activity(run.cycles, run.macs);
            return run;
        }
        let sw = Stopwatch::start();
        let (gemmini, mem) = (Soc::accel(&mut self.gemmini), self.mem.dma());
        let run = gemmini.conv(shape, mem);
        gemmini.release_bus(mem);
        self.conv_costs.insert(shape, run);
        self.cost_model_wall += sw.elapsed();
        run
    }

    fn matmul_cost(&mut self, m: usize, k: usize, n: usize) -> AccelRun {
        if let Some(&run) = self.matmul_costs.get(&(m, k, n)) {
            Soc::accel(&mut self.gemmini).add_activity(run.cycles, run.macs);
            return run;
        }
        let sw = Stopwatch::start();
        let (gemmini, mem) = (Soc::accel(&mut self.gemmini), self.mem.dma());
        let run = gemmini.matmul(m, k, n, mem);
        gemmini.release_bus(mem);
        self.matmul_costs.insert((m, k, n), run);
        self.cost_model_wall += sw.elapsed();
        run
    }

    /// Records one accelerator command stream as a `gemmini-tile` span
    /// occupying `[now, now + cost)` in simulated time.
    fn trace_accel(&mut self, run: AccelRun, cost: u64) {
        if self.tracer.is_enabled() {
            self.tracer.complete_cycles(
                Track::SocAccel,
                "gemmini-tile",
                self.now,
                self.now + cost,
                vec![
                    ("tiles", ArgValue::U64(run.tiles)),
                    ("macs", ArgValue::U64(run.macs)),
                    ("dma_bytes", ArgValue::U64(run.dma_bytes)),
                    ("compute_cycles", ArgValue::U64(run.compute_cycles)),
                ],
            );
        }
    }

    /// Advances the SoC by exactly `cycles`, gated through the bridge
    /// budget: grants the budget, then consumes it with
    /// [`Soc::run_granted`]. This is the synchronizer's cycle grant.
    pub fn run_cycles(&mut self, cycles: u64) {
        self.bridge.grant_cycles(cycles);
        self.run_granted();
    }

    /// Runs until the bridge budget is exhausted.
    pub fn run_granted(&mut self) {
        if self.tracer.is_enabled() {
            let budget = self.bridge.budget();
            self.tracer.span_begin_cycles(
                Track::SocCpu,
                "soc-grant",
                self.now,
                vec![("budget", ArgValue::U64(budget))],
            );
        }
        self.run_granted_inner();
        if self.tracer.is_enabled() {
            self.tracer
                .span_end_cycles(Track::SocCpu, "soc-grant", self.now);
        }
        // One counter sample per grant: the contention/occupancy curves
        // (L1/L2 misses, bridge RX depth, idle time) over simulated time.
        if self.tracer.is_enabled() {
            let now = self.now;
            let counters = self.mem.counters();
            let (l1, l2) = (counters.l1d, counters.l2);
            self.tracer
                .counter_cycles(Track::SocMem, "l1-misses", now, l1.misses as f64);
            self.tracer
                .counter_cycles(Track::SocMem, "l2-misses", now, l2.misses as f64);
            self.tracer
                .counter_cycles(Track::SocMem, "idle-cycles", now, self.idle_cycles as f64);
            self.tracer.counter_cycles(
                Track::Bridge,
                "rx-queue-depth",
                now,
                self.bridge.target_rx_depth() as f64,
            );
        }
    }

    fn run_granted_inner(&mut self) {
        loop {
            let budget = self.bridge.budget();
            if budget == 0 {
                return;
            }

            // Finish or continue an in-flight operation.
            if let Some(p) = &mut self.pending {
                let take = p.remaining.min(budget);
                p.remaining -= take;
                self.bridge.consume_budget(take);
                self.now += take;
                if p.idle {
                    self.idle_cycles += take;
                }
                if p.remaining > 0 {
                    return; // budget exhausted mid-op
                }
                // rose-lint: allow(PANIC002, remaining == 0 implies the pending op set above is present)
                let done = self.pending.take().expect("pending op");
                match done.effect {
                    Effect::None => {}
                    Effect::Deliver(msg) => self.inbox = Some(msg),
                    Effect::PushTx(msg) => {
                        if !self.bridge.target_send(msg.clone()) {
                            // TX backpressure: retry as a blocked op. The
                            // retry deliberately re-enters the `Send` arm
                            // and pays the full MMIO cost again on every
                            // attempt: a backpressured driver polls the
                            // TX-status register and re-stages the whole
                            // message through the data window, so each
                            // attempt is real (busy, not idle) bus work.
                            // Pinned by `tx_backpressure_retry_recharges_mmio`.
                            self.blocked = Some(TargetOp::Send(msg));
                        }
                    }
                }
                continue;
            }

            if self.halted {
                // Idle out the remaining budget.
                let take = self.bridge.consume_budget(budget);
                self.now += take;
                self.idle_cycles += take;
                return;
            }

            // Issue the next operation (a previously blocked one first).
            let op = match self.blocked.take() {
                Some(op) => op,
                None => {
                    let mut ctx = ProgContext::new(self.now, self.inbox.take())
                        .with_rx_available(self.bridge.target_rx_depth() > 0)
                        .with_rx_timed_out(std::mem::take(&mut self.rx_timeout_fired));
                    self.program.next_op(&mut ctx)
                }
            };
            // Ops are issued with their full cost up front, so each span
            // below occupies exactly `[now, now + cost)` in simulated time
            // regardless of how many grants it takes to consume.
            match op {
                TargetOp::CpuKernel(k) => {
                    let cost = self.cpu_cost(k);
                    if self.tracer.is_enabled() {
                        self.tracer.complete_cycles(
                            Track::SocCpu,
                            kernel_trace_name(&k),
                            self.now,
                            self.now + cost,
                            vec![("cycles", ArgValue::U64(cost))],
                        );
                    }
                    self.pending = Some(Pending {
                        remaining: cost,
                        idle: false,
                        effect: Effect::None,
                    });
                }
                TargetOp::AccelConv(shape) => {
                    let run = self.conv_cost(shape);
                    let cost = run.cycles.max(1);
                    self.trace_accel(run, cost);
                    self.pending = Some(Pending {
                        remaining: cost,
                        idle: false,
                        effect: Effect::None,
                    });
                }
                TargetOp::AccelMatmul { m, k, n } => {
                    let run = self.matmul_cost(m, k, n);
                    let cost = run.cycles.max(1);
                    self.trace_accel(run, cost);
                    self.pending = Some(Pending {
                        remaining: cost,
                        idle: false,
                        effect: Effect::None,
                    });
                }
                TargetOp::Recv => match self.bridge.target_try_recv() {
                    Some(msg) => {
                        self.rx_blocked_quanta = 0;
                        let cost = self.mmio_cost(msg.len());
                        if self.tracer.is_enabled() {
                            self.tracer.complete_cycles(
                                Track::SocCpu,
                                "mmio-recv",
                                self.now,
                                self.now + cost,
                                vec![("bytes", ArgValue::U64(msg.len() as u64))],
                            );
                        }
                        self.pending = Some(Pending {
                            remaining: cost,
                            idle: false,
                            effect: Effect::Deliver(msg),
                        });
                    }
                    None => {
                        self.rx_blocked_quanta += 1;
                        if self.rx_timeout_quanta > 0
                            && self.rx_blocked_quanta >= self.rx_timeout_quanta
                        {
                            // Watchdog: the message is presumed lost. Hand
                            // the decision back to the program with the
                            // timeout visible instead of re-blocking.
                            self.rx_blocked_quanta = 0;
                            self.rx_timeout_fired = true;
                            continue;
                        }
                        // Nothing can arrive within this quantum: the SoC
                        // spins on the empty-queue status register until
                        // the next synchronization (Section 5.5).
                        self.blocked = Some(TargetOp::Recv);
                        let take = self.bridge.consume_budget(budget);
                        if self.tracer.is_enabled() {
                            self.tracer.complete_cycles(
                                Track::SocCpu,
                                "stall:rx-empty",
                                self.now,
                                self.now + take,
                                Vec::new(),
                            );
                        }
                        self.now += take;
                        self.idle_cycles += take;
                        return;
                    }
                },
                TargetOp::Send(msg) => {
                    let cost = self.mmio_cost(msg.len());
                    if self.tracer.is_enabled() {
                        self.tracer.complete_cycles(
                            Track::SocCpu,
                            "mmio-send",
                            self.now,
                            self.now + cost,
                            vec![("bytes", ArgValue::U64(msg.len() as u64))],
                        );
                    }
                    self.pending = Some(Pending {
                        remaining: cost,
                        idle: false,
                        effect: Effect::PushTx(msg),
                    });
                }
                TargetOp::Sleep(cycles) => {
                    let cost = cycles.max(1);
                    if self.tracer.is_enabled() {
                        self.tracer.complete_cycles(
                            Track::SocCpu,
                            "sleep",
                            self.now,
                            self.now + cost,
                            Vec::new(),
                        );
                    }
                    self.pending = Some(Pending {
                        remaining: cost,
                        idle: true,
                        effect: Effect::None,
                    });
                }
                TargetOp::Halt => {
                    if self.tracer.is_enabled() {
                        self.tracer
                            .instant_cycles(Track::SocCpu, "halt", self.now, Vec::new());
                    }
                    self.halted = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::program::ScriptedProgram;

    fn scripted_soc(ops: Vec<TargetOp>) -> Soc {
        Soc::new(SocConfig::config_a(), Box::new(ScriptedProgram::new(ops)))
    }

    #[test]
    fn quantum_boundaries_are_respected() {
        let mut soc = scripted_soc(vec![TargetOp::Sleep(1000)]);
        soc.run_cycles(300);
        assert_eq!(soc.now(), 300);
        soc.run_cycles(300);
        assert_eq!(soc.now(), 600);
        soc.run_cycles(1000);
        assert_eq!(soc.now(), 1600);
        assert!(soc.halted());
    }

    #[test]
    fn recv_blocks_until_data_arrives() {
        let mut soc = scripted_soc(vec![TargetOp::Recv, TargetOp::Send(vec![42])]);
        soc.run_cycles(10_000);
        // No data: the whole quantum burned idle.
        assert_eq!(soc.now(), 10_000);
        assert!(soc.stats().idle_cycles >= 10_000);
        assert!(soc.bridge_mut().host_drain_tx().is_empty());

        // Deliver data; the SoC reads it and replies within the quantum.
        soc.bridge_mut().host_push_rx(vec![1, 2, 3, 4]);
        soc.run_cycles(10_000);
        let tx = soc.bridge_mut().host_drain_tx();
        assert_eq!(tx, vec![vec![42]]);
    }

    #[test]
    fn compute_spans_quanta() {
        let mut soc = scripted_soc(vec![
            TargetOp::CpuKernel(Kernel::Memcpy { bytes: 1 << 16 }),
            TargetOp::Send(vec![7]),
        ]);
        // Small quanta: the kernel takes multiple grants to finish.
        let mut quanta = 0;
        while soc.bridge_mut().host_drain_tx().is_empty() && quanta < 10_000 {
            soc.run_cycles(1_000);
            quanta += 1;
        }
        assert!(quanta > 2, "memcpy of 64 KiB should span >2k cycles");
        assert!(!soc.halted() || quanta < 10_000);
    }

    /// Two identical matmuls: the first expands cold, the second replays
    /// the per-mission memo, and together they book exactly twice what one
    /// cold `GemminiModel::matmul` adds to its `total_cycles`. The conv
    /// half of that claim does not hold: `GemminiModel::conv` books its
    /// unclamped cycles on the cold call, while the memo replays the
    /// clamped `run.cycles` (ROADMAP item 1).
    #[test]
    fn accel_ops_accumulate_activity() {
        let mut soc = scripted_soc(vec![
            TargetOp::AccelMatmul {
                m: 64,
                k: 64,
                n: 64,
            },
            TargetOp::AccelMatmul {
                m: 64,
                k: 64,
                n: 64,
            },
        ]);
        soc.run_cycles(50_000_000);
        let stats = soc.stats();
        assert_eq!(stats.accel_macs, 2 * 64 * 64 * 64);
        assert!(stats.accel_cycles > 0);
        assert!(stats.activity_factor() > 0.0);
        let config = SocConfig::config_a();
        let mut cold = GemminiModel::new(config.gemmini.unwrap());
        cold.matmul(64, 64, 64, &mut crate::mem::MemSystem::new(config.mem));
        assert_eq!(stats.accel_cycles, 2 * cold.total_cycles());
    }

    #[test]
    fn cached_kernel_costs_are_stable() {
        let k = Kernel::Memcpy { bytes: 4096 };
        let mut soc = scripted_soc(vec![
            TargetOp::CpuKernel(k),
            TargetOp::Send(vec![1]),
            TargetOp::CpuKernel(k),
            TargetOp::Send(vec![2]),
        ]);
        soc.run_cycles(1_000_000);
        assert!(soc.halted());
        // Both invocations completed.
        assert_eq!(soc.bridge_mut().host_drain_tx().len(), 2);
    }

    #[test]
    #[should_panic(expected = "without an accelerator")]
    fn accel_op_on_cpu_only_soc_panics() {
        let mut soc = Soc::new(
            SocConfig::config_c(),
            Box::new(ScriptedProgram::new(vec![TargetOp::AccelMatmul {
                m: 4,
                k: 4,
                n: 4,
            }])),
        );
        soc.run_cycles(1000);
    }

    #[test]
    fn halted_soc_idles() {
        let mut soc = scripted_soc(vec![]);
        soc.run_cycles(500);
        assert!(soc.halted());
        assert_eq!(soc.stats().idle_cycles, 500);
    }

    #[test]
    fn tx_backpressure_retry_recharges_mmio() {
        // Fill the bridge TX queue (depth 64) without the host draining
        // it; the 65th send backpressures and spends the rest of the
        // quantum in the poll-and-retry loop.
        let sends: Vec<TargetOp> = (0..65u8).map(|i| TargetOp::Send(vec![i; 8])).collect();
        let mut soc = scripted_soc(sends);
        soc.run_cycles(100_000);
        let stats = soc.stats();
        assert_eq!(stats.bridge.tx_msgs, 64);
        // Intended semantics (see the `Effect::PushTx` arm): every retry
        // re-stages the message through the TX MMIO window and is charged
        // the full MMIO cost as *busy* work — so the whole quantum is
        // consumed with zero idle cycles.
        assert_eq!(stats.cycles, 100_000);
        assert_eq!(stats.idle_cycles, 0);

        // Draining the queue lets the retry land: the message is
        // delivered exactly once, despite the many charged attempts.
        assert_eq!(soc.bridge_mut().host_drain_tx().len(), 64);
        soc.run_cycles(100_000);
        let tx = soc.bridge_mut().host_drain_tx();
        assert_eq!(tx, vec![vec![64u8; 8]]);
        assert_eq!(soc.stats().bridge.tx_msgs, 65);
    }

    #[test]
    fn cached_accel_runs_trace_identically_to_cold() {
        // Two identical accelerator ops: the first is timed cold, the
        // second replays from the in-memory cost cache. Their tile spans
        // must be indistinguishable (same name, duration, and args).
        let mut soc = scripted_soc(vec![
            TargetOp::AccelMatmul {
                m: 64,
                k: 64,
                n: 64,
            },
            TargetOp::AccelMatmul {
                m: 64,
                k: 64,
                n: 64,
            },
        ]);
        soc.set_tracer(Tracer::enabled(rose_trace::TraceClock::default()));
        soc.run_cycles(50_000_000);
        let events = soc.take_trace_events();
        let tiles: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "gemmini-tile").collect();
        assert_eq!(tiles.len(), 2, "one tile span per accelerator op");
        let (cold, cached) = (tiles[0], tiles[1]);
        assert_eq!(format!("{:?}", cold.kind), format!("{:?}", cached.kind));
        assert_eq!(format!("{:?}", cold.args), format!("{:?}", cached.args));
        assert!(cached.ts_us > cold.ts_us);
    }

    /// A program mixing CPU kernels with accelerator ops, for the
    /// timing-cache tests.
    fn cache_ops() -> Vec<TargetOp> {
        vec![
            TargetOp::CpuKernel(Kernel::Memcpy { bytes: 32 << 10 }),
            TargetOp::AccelConv(ConvShape {
                in_c: 3,
                out_c: 8,
                out_h: 14,
                out_w: 14,
                ksize: 3,
            }),
            TargetOp::AccelMatmul {
                m: 48,
                k: 48,
                n: 48,
            },
            TargetOp::Send(vec![9]),
            TargetOp::CpuKernel(Kernel::Memcpy { bytes: 32 << 10 }),
        ]
    }

    fn state(soc: &Soc) -> Vec<u8> {
        let mut w = SnapWriter::new();
        soc.save_state(&mut w);
        w.into_bytes()
    }

    fn mem_bytes(soc: &Soc) -> Vec<u8> {
        let mut w = SnapWriter::new();
        soc.mem.save_state(&mut w);
        w.into_bytes()
    }

    /// Flies `ops` to the end, with `cache` attached if given.
    fn fly(ops: &[TargetOp], cache: Option<&SharedTimingCache>) -> Soc {
        let mut soc = scripted_soc(ops.to_vec());
        if let Some(cache) = cache {
            soc.set_timing_cache(cache.clone());
        }
        soc.run_cycles(1_000_000_000);
        assert!(soc.halted());
        soc
    }

    #[test]
    fn warm_timing_cache_replays_bit_identically() {
        // Populate: a first mission expands everything cold into the
        // shared cache. Only CPU kernels are recorded, and the second
        // Memcpy hits the SoC's own memo, so one kernel entry lands in the
        // shared cache; the conv and matmul are timed afresh on every run.
        let cache = SharedTimingCache::in_memory();
        let mut warmup = scripted_soc(cache_ops());
        warmup.set_timing_cache(cache.clone());
        warmup.run_cycles(100_000_000);
        assert!(warmup.halted());
        assert_eq!(cache.len(), 1);

        // A cacheless run and a warm-cache run of the same mission must
        // finish in bit-identical states: counters, caches, bus, RNG,
        // queues — the §4i digest-invisibility contract at SoC scope.
        let mut cold = scripted_soc(cache_ops());
        cold.run_cycles(100_000_000);
        let mut warm = scripted_soc(cache_ops());
        warm.set_timing_cache(cache.clone());
        warm.run_cycles(100_000_000);
        let (hits, _) = cache.counters();
        assert_eq!(hits, 1, "warm run should replay the kernel entry");
        assert_eq!(cold.stats(), warm.stats());
        assert_eq!(state(&cold), state(&warm));
        // And the warmup run itself matches too (cold-with-recording).
        assert_eq!(state(&cold), state(&warmup));
    }

    /// An entry's counters, check and post-state bytes, for comparison.
    fn entry_fields(e: &KernelEntry) -> (u64, u64, u64, u64, u64, Vec<u8>) {
        let mut w = SnapWriter::new();
        e.post_mem.save_state(&mut w);
        let post_mem = w.into_bytes();
        (
            e.cycles,
            e.instrs,
            e.mispredicts,
            e.post_rng,
            e.check,
            post_mem,
        )
    }

    /// Plants `plant(check)` under the live key of `cache_ops()`'s first
    /// kernel, whose expansion context is the fresh SoC's memory state and
    /// branch RNG, and flies the program. The planted entry must be a
    /// miss: the run ends in the cold state, and the cold expansion
    /// replaces the entry with the one a recording run makes.
    fn assert_planted_entry_expands_cold(plant: impl FnOnce(u64) -> KernelEntry) {
        let mut fresh = scripted_soc(cache_ops());
        let fp = SharedTimingCache::fingerprint(&fresh.config);
        let kernel = Kernel::Memcpy { bytes: 32 << 10 };
        let rng = fresh.cpu.branch_rng();
        let (key, check) = SharedTimingCache::mem_context_hash(fresh.mem.contents(), rng);
        let cache = SharedTimingCache::in_memory();
        cache.insert_kernel(fp, kernel, key, plant(check));

        let mut cold = scripted_soc(cache_ops());
        cold.run_cycles(100_000_000);
        let mut planted = scripted_soc(cache_ops());
        planted.set_timing_cache(cache.clone());
        planted.run_cycles(100_000_000);
        assert!(planted.halted());
        assert!(
            state(&cold) == state(&planted),
            "a planted entry must not reach the SoC state"
        );
        assert_eq!(cache.counters(), (0, 1), "a planted entry is a miss");

        let recorded = SharedTimingCache::in_memory();
        let mut recorder = scripted_soc(cache_ops());
        recorder.set_timing_cache(recorded.clone());
        recorder.run_cycles(100_000_000);
        assert_eq!(cache.len(), 1);
        let live = fresh.mem.config();
        let replaced = cache.lookup_kernel(fp, &kernel, key, check, live);
        let expected = recorded.lookup_kernel(fp, &kernel, key, check, live);
        assert_eq!(
            replaced.map(|e| entry_fields(&e)),
            expected.map(|e| entry_fields(&e)),
            "the cold expansion replaced the planted entry"
        );
    }

    #[test]
    fn forged_timing_cache_entry_fails_its_check_and_expands_cold() {
        // A wrong check, and a well-formed post-state taken from a
        // different memory state. Were the check not compared, this
        // replay would copy it in and diverge.
        let mut other = scripted_soc(vec![TargetOp::CpuKernel(Kernel::Memcpy { bytes: 1 << 10 })]);
        other.run_cycles(1_000_000);
        assert!(other.halted());
        assert_ne!(mem_bytes(&other), mem_bytes(&scripted_soc(cache_ops())));
        assert_planted_entry_expands_cold(|check| {
            let post = other.mem.contents().clone();
            KernelEntry::new(1, 1, 0, other.cpu.branch_rng(), !check, post)
        });
    }

    #[test]
    fn timing_cache_entry_of_another_geometry_expands_cold() {
        // The right check, but a post-state of another memory geometry:
        // copying it in would change the SoC's caches under it.
        let mut small = SocConfig::config_a().mem;
        small.l2.size_bytes /= 2;
        assert_planted_entry_expands_cold(|check| {
            KernelEntry::new(1, 1, 0, 0, check, crate::mem::MemSystem::new(small))
        });
    }

    /// A scripted op: one of four CPU kernel families or an accelerator
    /// conv or matmul, sized small enough to expand in milliseconds.
    fn random_op((sel, a, b): (u8, usize, usize)) -> TargetOp {
        use crate::kernel::ElemKind;
        match sel % 6 {
            0 => TargetOp::CpuKernel(Kernel::Memcpy {
                bytes: 256 * (1 + a),
            }),
            1 => TargetOp::CpuKernel(Kernel::Elementwise {
                n: 64 * (1 + a),
                kind: [ElemKind::Relu, ElemKind::Add][b % 2],
            }),
            2 => TargetOp::CpuKernel(Kernel::MatMul {
                m: 2 + a,
                k: 2 + b,
                n: 8,
            }),
            3 => TargetOp::CpuKernel(Kernel::Control { ops: 64 * (1 + a) }),
            4 => TargetOp::AccelConv(ConvShape {
                in_c: 1 + a,
                out_c: 8,
                out_h: 4 + b,
                out_w: 4 + b,
                ksize: 3,
            }),
            _ => TargetOp::AccelMatmul {
                m: 8 * (1 + a),
                k: 16,
                n: 8 * (1 + b),
            },
        }
    }

    proptest::proptest! {
        #[test]
        fn timing_cache_replays_random_programs_bit_identically(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..6, 0usize..4),
                1..8,
            ),
        ) {
            // Cold, recording and warm flights of one program end in the
            // same state. The warm flight replays every distinct CPU
            // kernel the recording flight expanded, each from the memory
            // state the accelerator ops before it left.
            let ops: Vec<TargetOp> = ops.into_iter().map(random_op).collect();
            let fly = |cache: Option<&SharedTimingCache>| {
                let mut soc = scripted_soc(ops.clone());
                if let Some(cache) = cache {
                    soc.set_timing_cache(cache.clone());
                }
                soc.run_cycles(1_000_000_000);
                (soc.halted(), soc.stats(), state(&soc))
            };
            let cache = SharedTimingCache::in_memory();
            let cold = fly(None);
            proptest::prop_assert!(cold.0, "the program halts");
            let recording = fly(Some(&cache));
            let (recorded_hits, _) = cache.counters();
            let warm = fly(Some(&cache));
            let (warm_hits, _) = cache.counters();
            proptest::prop_assert_eq!(recorded_hits, 0);
            proptest::prop_assert_eq!(warm_hits, cache.len() as u64);
            proptest::prop_assert_eq!(recording.1, cold.1);
            proptest::prop_assert_eq!(warm.1, cold.1);
            proptest::prop_assert!(recording.2 == cold.2, "recording diverged");
            proptest::prop_assert!(warm.2 == cold.2, "warm replay diverged");
        }
    }

    proptest::proptest! {
        #[test]
        fn lookups_by_reference_take_the_walks_context(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..6, 0usize..4),
                1..8,
            ),
        ) {
            // Each prefix of the program flies twice with the cache and
            // halts where the whole program looks up its next CPU kernel.
            // The first flight records what the prefix expands, so the
            // second, a fresh SoC, replays every kernel by reference. Its
            // lookup there is by reference, from the last replayed entry,
            // unless the prefix looked nothing up and the fresh contents
            // are walked. Either way the pair must be the walk's of the
            // hierarchy with its contents copied in. Once the contents are
            // taken to be changed, the next lookup walks them.
            let ops: Vec<TargetOp> = ops.into_iter().map(random_op).collect();
            let cache = SharedTimingCache::in_memory();
            for (i, op) in ops.iter().enumerate() {
                let TargetOp::CpuKernel(kernel) = op else {
                    continue;
                };
                fly(&ops[..i], Some(&cache));
                let (hits, misses) = cache.counters();
                let mut soc = fly(&ops[..i], Some(&cache));
                if soc.kernel_costs.contains_key(kernel) {
                    continue; // an in-memory hit looks nothing up
                }
                let (replayed, missed) = cache.counters();
                proptest::prop_assert_eq!(missed, misses);
                proptest::prop_assert_eq!(soc.mem.by_reference(), replayed > hits);
                let by_reference = soc.timing_context();
                let rng = soc.cpu.branch_rng();
                let walked = SharedTimingCache::mem_context_hash(soc.mem.contents(), rng);
                proptest::prop_assert_eq!(by_reference, Some(walked));
                proptest::prop_assert!(!soc.mem.by_reference());
                // An access no kernel makes moves the contents: the
                // context is the new walk's.
                soc.mem.contents().access(0x7000_0000, true);
                let walked = SharedTimingCache::mem_context_hash(soc.mem.contents(), rng);
                proptest::prop_assert_eq!(soc.timing_context(), Some(walked));
            }
        }
    }

    /// Two CPU kernels whose expansions depend on the contents before them.
    const FIRST: TargetOp = TargetOp::CpuKernel(Kernel::Memcpy { bytes: 32 << 10 });
    const SECOND: TargetOp = TargetOp::CpuKernel(Kernel::Memcpy { bytes: 16 << 10 });

    #[test]
    fn cold_expansion_after_a_hit_copies_the_contents_in() {
        // The cache holds the first kernel only. The warm flight replays
        // it by reference and expands the second cold, which must run on
        // the first's post-state, not on the stale empty arrays.
        let cache = SharedTimingCache::in_memory();
        fly(&[FIRST], Some(&cache));
        let warm = fly(&[FIRST, SECOND], Some(&cache));
        assert_eq!(cache.counters(), (1, 2));
        let cold = fly(&[FIRST, SECOND], None);
        assert!(
            state(&warm) == state(&cold),
            "the cold expansion ran on stale contents"
        );
    }

    #[test]
    fn restore_forgets_the_replayed_entry() {
        // A warm SoC that replayed the first kernel by reference is
        // restored to a fresh SoC's state. Its flight from there must be
        // the cold one: the restored contents, not the entry's, feed the
        // next lookup and the next cold expansion.
        let ops = [FIRST, SECOND];
        let cache = SharedTimingCache::in_memory();
        fly(&[FIRST], Some(&cache));
        let mut warm = scripted_soc(ops.to_vec());
        warm.set_timing_cache(cache.clone());
        warm.run_cycles(1);
        assert_eq!(cache.counters(), (1, 1), "the first kernel replayed");
        let fresh = state(&scripted_soc(ops.to_vec()));
        warm.restore_state(&mut SnapReader::new(&fresh)).unwrap();
        warm.run_cycles(1_000_000_000);
        let cold = fly(&ops, None);
        assert!(
            state(&warm) == state(&cold),
            "the restore kept the replayed entry"
        );
    }

    #[test]
    fn snapshot_writes_the_owed_contents() {
        // Just after a replay by reference the live arrays are stale; the
        // snapshot must hold the entry's contents, as a cold SoC's does.
        let ops = vec![FIRST, TargetOp::Send(vec![1])];
        let cache = SharedTimingCache::in_memory();
        fly(&ops, Some(&cache));
        let mut warm = scripted_soc(ops.clone());
        warm.set_timing_cache(cache.clone());
        warm.run_cycles(1);
        assert_eq!(cache.counters(), (1, 1), "the kernel replayed");
        let mut cold = scripted_soc(ops);
        cold.run_cycles(1);
        assert!(
            state(&warm) == state(&cold),
            "the snapshot wrote stale contents"
        );
    }

    #[test]
    fn accelerator_ops_leave_the_contents_untouched() {
        // The accelerator's route to the hierarchy never copies owed
        // contents in, so its ops must neither read nor write them.
        use crate::mem::test_support::contents_of;
        let mut soc = scripted_soc(vec![]);
        soc.cpu_cost(Kernel::Memcpy { bytes: 32 << 10 });
        let before = contents_of(soc.mem.contents());
        let bus_bytes = soc.mem.counters().bus_bytes;
        soc.conv_cost(ConvShape {
            in_c: 3,
            out_c: 8,
            out_h: 14,
            out_w: 14,
            ksize: 3,
        });
        soc.matmul_cost(48, 48, 48);
        assert!(
            soc.mem.counters().bus_bytes > bus_bytes,
            "the ops moved DMA traffic"
        );
        assert_eq!(contents_of(soc.mem.contents()), before);
    }

    #[test]
    fn mmio_cost_is_one_latency_per_word() {
        // The default 40-cycle word latency, per started 64-bit word, and
        // at least one word.
        let soc = scripted_soc(Vec::new());
        let costs = [0, 1, 8, 9, 8192].map(|bytes| soc.mmio_cost(bytes));
        assert_eq!(costs, [40, 40, 40, 80, 40 * 1024]);
    }

    #[test]
    fn mmio_cost_scales_with_message_size() {
        // Send a large and a small message; the large one takes longer.
        let mut soc_small = scripted_soc(vec![TargetOp::Send(vec![0; 8])]);
        soc_small.run_cycles(1_000_000);
        let mut soc_large = scripted_soc(vec![TargetOp::Send(vec![0; 8192])]);
        soc_large.run_cycles(1_000_000);
        // Compare non-idle time.
        let busy_small = soc_small.stats().cycles - soc_small.stats().idle_cycles;
        let busy_large = soc_large.stats().cycles - soc_large.stats().idle_cycles;
        assert!(
            busy_large > busy_small * 100,
            "large {busy_large} vs small {busy_small}"
        );
    }
}
