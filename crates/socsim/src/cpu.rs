//! CPU core timing models.
//!
//! Two core classes are modeled after the paper's Table 2 (Section 4.2.1):
//!
//! * **Rocket-class** ([`CpuConfig::rocket`]): a 5-stage in-order scalar
//!   core. Issue is strictly in order at one instruction per cycle;
//!   dependent instructions stall until their producer completes.
//! * **BOOM-class** ([`CpuConfig::boom`]): a 3-wide superscalar
//!   out-of-order core with a reorder-buffer-bounded window; independent
//!   instructions (including cache misses) overlap.
//!
//! Both time instruction streams against the shared [`MemSystem`], so cache
//! behavior and bus contention feed directly into timing. Branch outcomes
//! are drawn from a deterministic per-run LCG, with distinct accuracies for
//! loop back-edges and data-dependent branches.

use crate::kernel::{Instr, InstrClass, InstrSink, Kernel, KernelTrace, SAMPLE_BUDGET};
use crate::mem::MemSystem;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// Microarchitectural parameters of a core timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Dispatch width (instructions per cycle).
    pub width: usize,
    /// Reorder-buffer size (in-flight instruction window). `1` for a
    /// strictly in-order core.
    pub window: usize,
    /// True for in-order issue (dependent stall blocks younger instrs).
    pub in_order: bool,
    /// Integer ALU latency.
    pub int_latency: u64,
    /// FP add latency.
    pub fp_add_latency: u64,
    /// FP multiply / FMA latency.
    pub fp_mul_latency: u64,
    /// FP divide (and transcendental approximation) latency.
    pub fp_div_latency: u64,
    /// Pipeline refill penalty on a branch mispredict.
    pub mispredict_penalty: u64,
    /// Mispredict probability for well-structured (loop) branches.
    pub easy_branch_miss: f64,
    /// Mispredict probability for data-dependent branches.
    pub hard_branch_miss: f64,
    /// Load/store issue ports (at most [`MAX_PORTS`]).
    pub mem_ports: usize,
    /// Floating-point issue ports (at most [`MAX_PORTS`]).
    pub fp_ports: usize,
}

/// The most issue ports of one kind a [`CpuConfig`] may declare.
pub const MAX_PORTS: usize = 8;

impl CpuConfig {
    /// The in-order Rocket-class configuration.
    pub fn rocket() -> CpuConfig {
        CpuConfig {
            width: 1,
            window: 1,
            in_order: true,
            int_latency: 1,
            fp_add_latency: 4,
            fp_mul_latency: 4,
            fp_div_latency: 22,
            mispredict_penalty: 3,
            easy_branch_miss: 0.01,
            hard_branch_miss: 0.12,
            mem_ports: 1,
            fp_ports: 1,
        }
    }

    /// The 3-wide out-of-order BOOM-class configuration.
    pub fn boom() -> CpuConfig {
        CpuConfig {
            width: 3,
            window: 96,
            in_order: false,
            int_latency: 1,
            fp_add_latency: 4,
            fp_mul_latency: 4,
            fp_div_latency: 22,
            mispredict_penalty: 12,
            easy_branch_miss: 0.004,
            hard_branch_miss: 0.07,
            mem_ports: 2,
            fp_ports: 2,
        }
    }

    /// Execution latency per [`InstrClass`], indexed by its discriminant.
    /// Loads and stores are costed by the memory system instead.
    fn latencies(&self) -> [u64; CLASSES] {
        let mut table = [0; CLASSES];
        for (class, latency) in [
            (InstrClass::IntAlu, self.int_latency),
            (InstrClass::Branch, self.int_latency),
            (InstrClass::FpAdd, self.fp_add_latency),
            (InstrClass::FpMul, self.fp_mul_latency),
            (InstrClass::FpDiv, self.fp_div_latency),
        ] {
            table[class as usize] = latency;
        }
        table
    }
}

/// The number of [`InstrClass`] variants, whose discriminants index the
/// per-class latency table.
const CLASSES: usize = 7;

/// The integer form of a mispredict probability `p`: a draw `m` of
/// [`next_draw`] mispredicts when `m < miss_threshold(p)`,
/// exactly when the float draw `m / 2^53 < p` would. Scaling by `2^53`
/// is exact, and an integer is below a real `x` exactly when it is below
/// `ceil(x)`; the saturating cast sends NaN and `p <= 0` to 0 (never) and
/// `p >= 1` to at least `2^53` (always).
fn miss_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Aggregate execution counters for one core.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CpuStats {
    /// Dynamic instructions executed (scaled for sampled kernels).
    pub instrs: u64,
    /// Cycles consumed (scaled).
    pub cycles: u64,
    /// Branch mispredictions observed in simulated (unscaled) portions.
    pub mispredicts: u64,
}

impl CpuStats {
    /// Achieved instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// A CPU core timing model instance.
#[derive(Debug, Clone)]
pub struct CpuModel {
    config: CpuConfig,
    stats: CpuStats,
    branch_rng: u64,
}

impl CpuModel {
    /// Creates a core with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration declares more than [`MAX_PORTS`] memory
    /// or floating-point issue ports.
    pub fn new(config: CpuConfig) -> CpuModel {
        assert!(
            config.mem_ports <= MAX_PORTS && config.fp_ports <= MAX_PORTS,
            "a core may declare at most {MAX_PORTS} issue ports of each kind"
        );
        CpuModel {
            config,
            stats: CpuStats::default(),
            branch_rng: 0x1234_5678_9abc_def0,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Accumulated execution counters.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Re-accounts a cached kernel execution (same shape replayed from the
    /// SoC's cost cache) so instruction/cycle counters stay faithful.
    pub fn add_cached(&mut self, cycles: u64, instrs: u64) {
        self.stats.cycles += cycles;
        self.stats.instrs += instrs;
    }

    /// The branch-predictor RNG position (part of the persisted timing
    /// cache's expansion-context key).
    pub fn branch_rng(&self) -> u64 {
        self.branch_rng
    }

    /// Replays a kernel expansion recorded in the persisted timing cache:
    /// re-applies the cold run's counter deltas and fast-forwards the
    /// branch RNG to where that run left it. Expansion is a pure function
    /// of (kernel, the memory state timing reads, RNG position, core
    /// config) — all covered by the cache key — and never reads a
    /// counter, so this is bit-identical to re-running it.
    pub fn replay_expansion(&mut self, cycles: u64, instrs: u64, mispredicts: u64, post_rng: u64) {
        self.stats.cycles += cycles;
        self.stats.instrs += instrs;
        self.stats.mispredicts += mispredicts;
        self.branch_rng = post_rng;
    }

    /// Serializes the core's dynamic state: execution counters and the
    /// branch-predictor noise stream. The configuration is structural.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let CpuModel {
            config: _,
            stats,
            branch_rng,
        } = self;
        w.u64(stats.instrs);
        w.u64(stats.cycles);
        w.u64(stats.mispredicts);
        w.u64(*branch_rng);
    }

    /// Restores the core's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats.instrs = r.u64()?;
        self.stats.cycles = r.u64()?;
        self.stats.mispredicts = r.u64()?;
        self.branch_rng = r.u64()?;
        Ok(())
    }

    /// Times a materialized trace against `mem`, returning the (scaled)
    /// cycle cost: the trace's instructions are pushed, in order, through
    /// the same pipeline step that [`CpuModel::run_kernel`] streams a
    /// kernel into, so the two agree bit for bit.
    pub fn run_trace(&mut self, trace: &KernelTrace, mem: &mut MemSystem) -> u64 {
        let mut pipe = Pipeline::new(self, mem);
        for &instr in &trace.instrs {
            pipe.push(instr);
        }
        pipe.finish(trace.scale)
    }

    /// Expands `kernel` and times it against `mem`, returning the (scaled)
    /// cycle cost. The kernel generator streams its (sampled) instructions
    /// straight into the pipeline step, so no trace is materialized.
    pub fn run_kernel(&mut self, kernel: &Kernel, mem: &mut MemSystem) -> u64 {
        let mut pipe = Pipeline::new(self, mem);
        let scale = kernel.emit(&mut pipe, SAMPLE_BUDGET);
        pipe.finish(scale)
    }
}

/// Advances the branch-predictor noise stream `state` (xorshift64*) and
/// returns its next 53-bit draw, compared against a [`miss_threshold`].
fn next_draw(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11
}

/// Completion-time ring of the pipeline step: a power of two no smaller
/// than the largest reorder buffer [`CpuConfig::window`] is clamped to.
const RING: usize = 512;

/// The per-instruction pipeline step, as an [`InstrSink`]: each pushed
/// instruction is dispatched, issued, costed, and retired on arrival.
///
/// Loads and stores call [`MemSystem::access`] inline, in program order.
/// An access depends only on the instruction's `(addr, write)` pair, never
/// on pipeline state, so the memory system sees exactly the access stream
/// it would see if the trace were costed up front.
struct Pipeline<'a> {
    cpu: &'a mut CpuModel,
    mem: &'a mut MemSystem,
    cfg: CpuConfig,
    /// [`CpuConfig::latencies`].
    latency: [u64; CLASSES],
    /// [`miss_threshold`] of the easy and hard mispredict probabilities.
    easy_miss: u64,
    hard_miss: u64,
    /// Reorder-buffer size, clamped to `1..=RING`.
    window: usize,
    /// Completion time of instruction `i` at `completed[i % RING]`.
    completed: [u64; RING],
    /// Instructions pushed so far.
    count: usize,
    dispatch_cycle: u64,
    slots_used: usize,
    last_issue: u64,
    max_completion: u64,
    /// Structural hazards: next-free cycle per issue port (the first
    /// `mem_ports` / `fp_ports` entries are live).
    mem_port_free: [u64; MAX_PORTS],
    fp_port_free: [u64; MAX_PORTS],
    mem_ports: usize,
    fp_ports: usize,
}

impl<'a> Pipeline<'a> {
    fn new(cpu: &'a mut CpuModel, mem: &'a mut MemSystem) -> Pipeline<'a> {
        let cfg = cpu.config;
        Pipeline {
            cpu,
            mem,
            cfg,
            latency: cfg.latencies(),
            easy_miss: miss_threshold(cfg.easy_branch_miss),
            hard_miss: miss_threshold(cfg.hard_branch_miss),
            window: cfg.window.clamp(1, RING),
            completed: [0; RING],
            count: 0,
            dispatch_cycle: 0,
            slots_used: 0,
            last_issue: 0,
            max_completion: 0,
            mem_port_free: [0; MAX_PORTS],
            fp_port_free: [0; MAX_PORTS],
            mem_ports: cfg.mem_ports.max(1),
            fp_ports: cfg.fp_ports.max(1),
        }
    }

    /// Charges the timed instructions to the core, scaled by the sampling
    /// factor, and returns the scaled cycle cost (0 for an empty stream).
    fn finish(self, scale: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let raw_cycles = self.max_completion.max(1);
        let scaled = (raw_cycles as f64 * scale).round() as u64;
        self.cpu.stats.cycles += scaled;
        self.cpu.stats.instrs += (self.count as f64 * scale).round() as u64;
        scaled
    }
}

impl InstrSink for Pipeline<'_> {
    #[inline(always)]
    fn push(&mut self, instr: Instr) {
        let cfg = &self.cfg;
        // Dispatch slot accounting.
        if self.slots_used >= cfg.width {
            self.dispatch_cycle += 1;
            self.slots_used = 0;
        }
        // ROB full: stall dispatch until the oldest in-flight retires.
        let in_flight = self.count.min(self.window);
        if in_flight == self.window {
            let oldest = self.completed[(self.count - self.window) % RING];
            if oldest > self.dispatch_cycle {
                self.dispatch_cycle = oldest;
                self.slots_used = 0;
            }
        }

        // Operand readiness from dependency distances (only producers
        // still in the window are tracked).
        let mut ready = self.dispatch_cycle;
        for dep in [instr.dep1, instr.dep2] {
            let dep = usize::from(dep);
            if dep > 0 && dep <= in_flight {
                ready = ready.max(self.completed[(self.count - dep) % RING]);
            }
        }

        // Issue.
        let mut start = if cfg.in_order {
            let s = ready.max(self.last_issue).max(self.dispatch_cycle);
            self.last_issue = s;
            // In-order issue consumes the pipeline slot at `s`.
            self.dispatch_cycle = s;
            s
        } else {
            ready.max(self.dispatch_cycle)
        };

        // Structural hazard: claim the earliest-free issue port (the
        // lowest-numbered one on a tie).
        let ports = match instr.class {
            InstrClass::Load | InstrClass::Store => &mut self.mem_port_free[..self.mem_ports],
            InstrClass::FpAdd | InstrClass::FpMul | InstrClass::FpDiv => {
                &mut self.fp_port_free[..self.fp_ports]
            }
            InstrClass::IntAlu | InstrClass::Branch => &mut [],
        };
        if !ports.is_empty() {
            let mut idx = 0;
            for i in 1..ports.len() {
                if ports[i] < ports[idx] {
                    idx = i;
                }
            }
            start = start.max(ports[idx]);
            ports[idx] = start + 1;
        }

        // Execution latency; loads and stores are costed here, in order.
        let latency = match instr.class {
            InstrClass::Load => {
                // rose-lint: allow(PANIC002, the trace generator sets addr on every Load/Store)
                let addr = instr.addr.expect("load without address");
                self.mem.access(addr, false)
            }
            InstrClass::Store => {
                // Stores retire through a store buffer: the cache state
                // change is accounted but does not stall the pipeline.
                // rose-lint: allow(PANIC002, the trace generator sets addr on every Load/Store)
                let addr = instr.addr.expect("store without address");
                self.mem.access(addr, true);
                1
            }
            c => self.latency[c as usize],
        };
        let completion = start + latency.max(1);

        // Branch resolution.
        if instr.class == InstrClass::Branch {
            let threshold = if instr.hard_to_predict {
                self.hard_miss
            } else {
                self.easy_miss
            };
            if next_draw(&mut self.cpu.branch_rng) < threshold {
                self.cpu.stats.mispredicts += 1;
                let redirect = completion + cfg.mispredict_penalty;
                if redirect > self.dispatch_cycle {
                    self.dispatch_cycle = redirect;
                    self.slots_used = 0;
                }
            }
        }

        self.slots_used += 1;
        self.completed[self.count % RING] = completion;
        self.count += 1;
        self.max_completion = self.max_completion.max(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ElemKind, Kernel};
    use crate::mem::MemConfig;

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::default())
    }

    #[test]
    fn boom_beats_rocket_on_matmul() {
        let k = Kernel::MatMul {
            m: 32,
            k: 32,
            n: 32,
        };
        let mut mem_r = mem();
        let mut mem_b = mem();
        let rocket = CpuModel::new(CpuConfig::rocket()).run_kernel(&k, &mut mem_r);
        let boom = CpuModel::new(CpuConfig::boom()).run_kernel(&k, &mut mem_b);
        assert!(
            boom * 3 < rocket * 2,
            "BOOM ({boom}) should be >1.5x faster than Rocket ({rocket})"
        );
    }

    #[test]
    fn ipc_in_plausible_ranges() {
        let k = Kernel::Elementwise {
            n: 20_000,
            kind: ElemKind::BatchNorm,
        };
        let mut m1 = mem();
        let mut rocket = CpuModel::new(CpuConfig::rocket());
        rocket.run_kernel(&k, &mut m1);
        let ipc_r = rocket.stats().ipc();
        assert!(
            (0.2..=1.0).contains(&ipc_r),
            "Rocket IPC {ipc_r} out of range"
        );

        let mut m2 = mem();
        let mut boom = CpuModel::new(CpuConfig::boom());
        boom.run_kernel(&k, &mut m2);
        let ipc_b = boom.stats().ipc();
        assert!(
            (0.8..=3.0).contains(&ipc_b),
            "BOOM IPC {ipc_b} out of range"
        );
        assert!(ipc_b > ipc_r);
    }

    #[test]
    fn cost_scales_with_kernel_size() {
        let mut m = mem();
        let mut cpu = CpuModel::new(CpuConfig::boom());
        let small = cpu.run_kernel(&Kernel::Memcpy { bytes: 4 << 10 }, &mut m);
        let large = cpu.run_kernel(&Kernel::Memcpy { bytes: 4 << 20 }, &mut m);
        let ratio = large as f64 / small as f64;
        assert!(
            (500.0..2100.0).contains(&ratio),
            "1024x data should be ~1024x cycles, got {ratio}"
        );
    }

    #[test]
    fn pointer_chasing_is_slower_than_streaming() {
        // Same instruction count, different locality.
        let mut m1 = mem();
        let mut m2 = mem();
        let mut cpu1 = CpuModel::new(CpuConfig::rocket());
        let mut cpu2 = CpuModel::new(CpuConfig::rocket());
        let stream = cpu1.run_kernel(&Kernel::Memcpy { bytes: 80_000 }, &mut m1);
        let chase = cpu2.run_kernel(&Kernel::FrameworkNode { tensors: 22 }, &mut m2);
        // ~10k iterations each (4 vs 8 instrs/iter); normalize per instr.
        let per_instr_stream = stream as f64 / cpu1.stats().instrs as f64;
        let per_instr_chase = chase as f64 / cpu2.stats().instrs as f64;
        assert!(
            per_instr_chase > 1.5 * per_instr_stream,
            "chase CPI {per_instr_chase} vs stream CPI {per_instr_stream}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let k = Kernel::FrameworkNode { tensors: 3 };
        let run = || {
            let mut m = mem();
            CpuModel::new(CpuConfig::boom()).run_kernel(&k, &mut m)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_trace_is_free() {
        let t = KernelTrace {
            instrs: vec![],
            scale: 1.0,
        };
        let mut m = mem();
        assert_eq!(CpuModel::new(CpuConfig::boom()).run_trace(&t, &mut m), 0);
    }

    #[test]
    fn integer_branch_threshold_agrees_with_the_float_draw() {
        // The draw the thresholds replaced: the same 53-bit integer as a
        // fraction of 2^53, compared against the probability as a float.
        let float_miss = |m: u64, p: f64| (m as f64 / (1u64 << 53) as f64) < p;
        let (rocket, boom) = (CpuConfig::rocket(), CpuConfig::boom());
        let probabilities = [
            rocket.easy_branch_miss,
            rocket.hard_branch_miss,
            boom.easy_branch_miss,
            boom.hard_branch_miss,
            0.0,
            -0.0,
            1.0,
            1.5,
            -0.25,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0,
        ];
        let mut rng = CpuModel::new(boom).branch_rng();
        let draws: Vec<u64> = (0..1_000_000).map(|_| next_draw(&mut rng)).collect();
        for p in probabilities {
            let threshold = miss_threshold(p);
            let edges = [0, threshold.saturating_sub(1), threshold, (1 << 53) - 1];
            for m in draws.iter().copied().chain(edges) {
                if m < 1 << 53 {
                    assert_eq!(m < threshold, float_miss(m, p), "p = {p}, draw {m}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 8 issue ports")]
    fn more_ports_than_the_pipeline_holds_are_rejected() {
        CpuModel::new(CpuConfig {
            fp_ports: MAX_PORTS + 1,
            ..CpuConfig::boom()
        });
    }

    #[test]
    fn contention_slows_cpu_kernels() {
        let k = Kernel::Memcpy { bytes: 1 << 20 };
        let mut quiet_mem = mem();
        let quiet = CpuModel::new(CpuConfig::boom()).run_kernel(&k, &mut quiet_mem);
        let mut busy_mem = mem();
        busy_mem.bus_mut().set_dma_utilization(0.85);
        let busy = CpuModel::new(CpuConfig::boom()).run_kernel(&k, &mut busy_mem);
        assert!(busy > quiet, "busy {busy} vs quiet {quiet}");
    }
}

/// Pinned cost-model outputs and the streamed/materialized equivalence.
#[cfg(test)]
mod golden_tests {
    use super::*;
    use crate::kernel::ElemKind;
    use crate::mem::test_support::{set_counters, state_bytes, warmed};
    use proptest::prelude::*;
    use rose_sim_core::fnv::fnv64;

    /// One kernel of each variant; the MatMul, Im2col, Elementwise, Pool
    /// and Control shapes exceed [`SAMPLE_BUDGET`] and are sampled.
    const KERNELS: [Kernel; 8] = [
        Kernel::MatMul {
            m: 40,
            k: 40,
            n: 40,
        },
        Kernel::Im2col {
            channels: 3,
            ksize: 3,
            out_elems: 1024,
        },
        Kernel::Elementwise {
            n: 50_000,
            kind: ElemKind::Add,
        },
        Kernel::Pool {
            out_elems: 4096,
            window: 3,
        },
        Kernel::Softmax { n: 5000 },
        Kernel::Memcpy { bytes: 200_000 },
        Kernel::FrameworkNode { tensors: 6 },
        Kernel::Control { ops: 40_000 },
    ];

    /// A core's name and its configuration constructor.
    type Core = (&'static str, fn() -> CpuConfig);

    const CORES: [Core; 3] = [
        ("Rocket", CpuConfig::rocket),
        ("BOOM", CpuConfig::boom),
        ("Wide", wide),
    ];

    /// A core wider than BOOM: four-wide, with three memory and three FP
    /// ports, so the port claim breaks ties among more than two ports.
    fn wide() -> CpuConfig {
        CpuConfig {
            width: 4,
            mem_ports: 3,
            fp_ports: 3,
            ..CpuConfig::boom()
        }
    }

    /// The five outputs of one expansion: cycles, instructions,
    /// mispredicts, the branch RNG afterwards, and an FNV of the memory
    /// system's state afterwards.
    type Outcome = (u64, u64, u64, u64, u64);

    fn outcome(cpu: &CpuModel, cycles: u64, mem: &MemSystem) -> Outcome {
        let s = cpu.stats();
        assert_eq!(s.cycles, cycles);
        (
            cycles,
            s.instrs,
            s.mispredicts,
            cpu.branch_rng(),
            fnv64(&state_bytes(mem)),
        )
    }

    /// The same warmed memory state starts every row.
    fn start(geometry: usize) -> MemSystem {
        warmed(geometry, 0x5EED, 30)
    }

    /// `(kernel, core, geometry, cycles, instrs, mispredicts, post-RNG,
    /// post-memory FNV)`.
    type GoldenRow = (usize, usize, usize, u64, u64, u64, u64, u64);

    /// The Rocket and BOOM rows were recorded from the
    /// materialize-then-cost pipeline that predates streaming; the wide
    /// core's from the streamed pipeline whose port claim was a
    /// `min_by_key` and whose branch draw was a float compare.
    #[rustfmt::skip]
    const GOLDEN: [GoldenRow; 96] = [
        (0, 0, 0, 726088, 385602, 177, 0x6cf0bfe28a5a96be, 0x20f5518977ae55d3),
        (0, 0, 1, 932760, 385602, 177, 0x6cf0bfe28a5a96be, 0x727fb9d626937912),
        (0, 0, 2, 775818, 385602, 177, 0x6cf0bfe28a5a96be, 0x1d6a1bdc2aa5b65f),
        (0, 0, 3, 1126018, 385602, 177, 0x6cf0bfe28a5a96be, 0xd664f475e2f515b6),
        (0, 1, 0, 263587, 385602, 73, 0x6cf0bfe28a5a96be, 0x20f5518977ae55d3),
        (0, 1, 1, 343155, 385602, 73, 0x6cf0bfe28a5a96be, 0x727fb9d626937912),
        (0, 1, 2, 287739, 385602, 73, 0x6cf0bfe28a5a96be, 0x1d6a1bdc2aa5b65f),
        (0, 1, 3, 370772, 385602, 73, 0x6cf0bfe28a5a96be, 0xd664f475e2f515b6),
        (1, 0, 0, 1093417, 193536, 2196, 0x6754085be04e8b21, 0x66dc3267a5985d89),
        (1, 0, 1, 3304280, 193536, 2196, 0x6754085be04e8b21, 0xfa47073d41450e11),
        (1, 0, 2, 3387224, 193536, 2196, 0x6754085be04e8b21, 0x117830299945a18b),
        (1, 0, 3, 769420, 193536, 2196, 0x6754085be04e8b21, 0xf9fd5a8b9fd5b142),
        (1, 1, 0, 472874, 193536, 1240, 0x6754085be04e8b21, 0x66dc3267a5985d89),
        (1, 1, 1, 1580325, 193536, 1240, 0x6754085be04e8b21, 0xfa47073d41450e11),
        (1, 1, 2, 1621869, 193536, 1240, 0x6754085be04e8b21, 0x117830299945a18b),
        (1, 1, 3, 310354, 193536, 1240, 0x6754085be04e8b21, 0xf9fd5a8b9fd5b142),
        (2, 0, 0, 626324, 225000, 58, 0xe5f97278cb6d7377, 0xd1a5129aa3ab687d),
        (2, 0, 1, 963779, 225000, 58, 0xe5f97278cb6d7377, 0x04031cc88233ec69),
        (2, 0, 2, 1188149, 225000, 58, 0xe5f97278cb6d7377, 0x3b02f8093ab8fb3b),
        (2, 0, 3, 1346591, 225000, 58, 0xe5f97278cb6d7377, 0xdb02284c4f79f30c),
        (2, 1, 0, 125279, 225000, 25, 0xe5f97278cb6d7377, 0xd1a5129aa3ab687d),
        (2, 1, 1, 193992, 225000, 25, 0xe5f97278cb6d7377, 0x04031cc88233ec69),
        (2, 1, 2, 250152, 225000, 25, 0xe5f97278cb6d7377, 0x3b02f8093ab8fb3b),
        (2, 1, 3, 332949, 225000, 25, 0xe5f97278cb6d7377, 0xdb02284c4f79f30c),
        (3, 0, 0, 295264, 122880, 35, 0x99b7ed34a79d8b49, 0x4c5c9dae2e1c46d1),
        (3, 0, 1, 313693, 122880, 35, 0x99b7ed34a79d8b49, 0xa55beeb6ca58a14a),
        (3, 0, 2, 387332, 122880, 35, 0x99b7ed34a79d8b49, 0xae5ac09b068212eb),
        (3, 0, 3, 300838, 122880, 35, 0x99b7ed34a79d8b49, 0x8e9c83d63c1bfd98),
        (3, 1, 0, 41255, 122880, 14, 0x99b7ed34a79d8b49, 0x4c5c9dae2e1c46d1),
        (3, 1, 1, 41249, 122880, 14, 0x99b7ed34a79d8b49, 0xa55beeb6ca58a14a),
        (3, 1, 2, 130070, 122880, 14, 0x99b7ed34a79d8b49, 0xae5ac09b068212eb),
        (3, 1, 3, 46712, 122880, 14, 0x99b7ed34a79d8b49, 0x8e9c83d63c1bfd98),
        (4, 0, 0, 293170, 50000, 97, 0xdfe79d8c9d878a72, 0xe3bbe5af672220eb),
        (4, 0, 1, 377533, 50000, 97, 0xdfe79d8c9d878a72, 0xfa5cd0309832299f),
        (4, 0, 2, 321070, 50000, 97, 0xdfe79d8c9d878a72, 0xf110dd53a3c71aaf),
        (4, 0, 3, 407001, 50000, 97, 0xdfe79d8c9d878a72, 0x2d0895b6d91184ff),
        (4, 1, 0, 133160, 50000, 42, 0xdfe79d8c9d878a72, 0xe3bbe5af672220eb),
        (4, 1, 1, 217523, 50000, 42, 0xdfe79d8c9d878a72, 0xfa5cd0309832299f),
        (4, 1, 2, 161060, 50000, 42, 0xdfe79d8c9d878a72, 0xf110dd53a3c71aaf),
        (4, 1, 3, 246991, 50000, 42, 0xdfe79d8c9d878a72, 0x2d0895b6d91184ff),
        (5, 0, 0, 201168, 100000, 247, 0x92cbec61a3f78878, 0xe9fb833e7ea49937),
        (5, 0, 1, 257418, 100000, 247, 0x92cbec61a3f78878, 0x53bdd2abd3254e88),
        (5, 0, 2, 482238, 100000, 247, 0x92cbec61a3f78878, 0x6b879b14159a081a),
        (5, 0, 3, 610993, 100000, 247, 0x92cbec61a3f78878, 0xe406f81b21db02d5),
        (5, 1, 0, 75093, 100000, 102, 0x92cbec61a3f78878, 0xe9fb833e7ea49937),
        (5, 1, 1, 103216, 100000, 102, 0x92cbec61a3f78878, 0x53bdd2abd3254e88),
        (5, 1, 2, 215673, 100000, 102, 0x92cbec61a3f78878, 0x6b879b14159a081a),
        (5, 1, 3, 280005, 100000, 102, 0x92cbec61a3f78878, 0xe406f81b21db02d5),
        (6, 0, 0, 402630, 25600, 412, 0x9dd6c29cb55e3e05, 0x50871639dddde395),
        (6, 0, 1, 422124, 25600, 412, 0x9dd6c29cb55e3e05, 0x932fe49f218a48da),
        (6, 0, 2, 468870, 25600, 412, 0x9dd6c29cb55e3e05, 0x1fe1a37dc3344c4a),
        (6, 0, 3, 411078, 25600, 412, 0x9dd6c29cb55e3e05, 0xe144c7d5ca797c07),
        (6, 1, 0, 357255, 25600, 222, 0x9dd6c29cb55e3e05, 0x50871639dddde395),
        (6, 1, 1, 364345, 25600, 222, 0x9dd6c29cb55e3e05, 0x932fe49f218a48da),
        (6, 1, 2, 358272, 25600, 222, 0x9dd6c29cb55e3e05, 0x1fe1a37dc3344c4a),
        (6, 1, 3, 374543, 25600, 222, 0x9dd6c29cb55e3e05, 0xe144c7d5ca797c07),
        (7, 0, 0, 228952, 160000, 3870, 0x5e18a843784b8a05, 0xf4c5e0f09f74626c),
        (7, 0, 1, 432440, 160000, 3870, 0x5e18a843784b8a05, 0x974194d9c6148cc0),
        (7, 0, 2, 259552, 160000, 3870, 0x5e18a843784b8a05, 0x6ec59f3c08d5862b),
        (7, 0, 3, 267637, 160000, 3870, 0x5e18a843784b8a05, 0x669691b044092c54),
        (7, 1, 0, 94996, 160000, 2145, 0x5e18a843784b8a05, 0xf4c5e0f09f74626c),
        (7, 1, 1, 110281, 160000, 2145, 0x5e18a843784b8a05, 0x974194d9c6148cc0),
        (7, 1, 2, 103257, 160000, 2145, 0x5e18a843784b8a05, 0x6ec59f3c08d5862b),
        (7, 1, 3, 98104, 160000, 2145, 0x5e18a843784b8a05, 0x669691b044092c54),
        (0, 2, 0, 175882, 385602, 73, 0x6cf0bfe28a5a96be, 0x20f5518977ae55d3),
        (0, 2, 1, 232068, 385602, 73, 0x6cf0bfe28a5a96be, 0x727fb9d626937912),
        (0, 2, 2, 210690, 385602, 73, 0x6cf0bfe28a5a96be, 0x1d6a1bdc2aa5b65f),
        (0, 2, 3, 250153, 385602, 73, 0x6cf0bfe28a5a96be, 0xd664f475e2f515b6),
        (1, 2, 0, 316288, 193536, 1240, 0x6754085be04e8b21, 0x66dc3267a5985d89),
        (1, 2, 1, 1056387, 193536, 1240, 0x6754085be04e8b21, 0xfa47073d41450e11),
        (1, 2, 2, 1084141, 193536, 1240, 0x6754085be04e8b21, 0x117830299945a18b),
        (1, 2, 3, 208758, 193536, 1240, 0x6754085be04e8b21, 0xf9fd5a8b9fd5b142),
        (2, 2, 0, 98744, 225000, 25, 0xe5f97278cb6d7377, 0xd1a5129aa3ab687d),
        (2, 2, 1, 131436, 225000, 25, 0xe5f97278cb6d7377, 0x04031cc88233ec69),
        (2, 2, 2, 217462, 225000, 25, 0xe5f97278cb6d7377, 0x3b02f8093ab8fb3b),
        (2, 2, 3, 244731, 225000, 25, 0xe5f97278cb6d7377, 0xdb02284c4f79f30c),
        (3, 2, 0, 36069, 122880, 14, 0x99b7ed34a79d8b49, 0x4c5c9dae2e1c46d1),
        (3, 2, 1, 33047, 122880, 14, 0x99b7ed34a79d8b49, 0xa55beeb6ca58a14a),
        (3, 2, 2, 128016, 122880, 14, 0x99b7ed34a79d8b49, 0xae5ac09b068212eb),
        (3, 2, 3, 40514, 122880, 14, 0x99b7ed34a79d8b49, 0x8e9c83d63c1bfd98),
        (4, 2, 0, 86610, 50000, 42, 0xdfe79d8c9d878a72, 0xe3bbe5af672220eb),
        (4, 2, 1, 115034, 50000, 42, 0xdfe79d8c9d878a72, 0xfa5cd0309832299f),
        (4, 2, 2, 96265, 50000, 42, 0xdfe79d8c9d878a72, 0xf110dd53a3c71aaf),
        (4, 2, 3, 128437, 50000, 42, 0xdfe79d8c9d878a72, 0x2d0895b6d91184ff),
        (5, 2, 0, 50080, 100000, 102, 0x92cbec61a3f78878, 0xe9fb833e7ea49937),
        (5, 2, 1, 68819, 100000, 102, 0x92cbec61a3f78878, 0x53bdd2abd3254e88),
        (5, 2, 2, 143790, 100000, 102, 0x92cbec61a3f78878, 0x6b879b14159a081a),
        (5, 2, 3, 186677, 100000, 102, 0x92cbec61a3f78878, 0xe406f81b21db02d5),
        (6, 2, 0, 357255, 25600, 222, 0x9dd6c29cb55e3e05, 0x50871639dddde395),
        (6, 2, 1, 364345, 25600, 222, 0x9dd6c29cb55e3e05, 0x932fe49f218a48da),
        (6, 2, 2, 358269, 25600, 222, 0x9dd6c29cb55e3e05, 0x1fe1a37dc3344c4a),
        (6, 2, 3, 374543, 25600, 222, 0x9dd6c29cb55e3e05, 0xe144c7d5ca797c07),
        (7, 2, 0, 80848, 160000, 2145, 0x5e18a843784b8a05, 0xf4c5e0f09f74626c),
        (7, 2, 1, 96644, 160000, 2145, 0x5e18a843784b8a05, 0x974194d9c6148cc0),
        (7, 2, 2, 89808, 160000, 2145, 0x5e18a843784b8a05, 0x6ec59f3c08d5862b),
        (7, 2, 3, 84072, 160000, 2145, 0x5e18a843784b8a05, 0x669691b044092c54),
    ];

    #[test]
    fn golden_cost_table() {
        for &(k, c, g, cycles, instrs, mispredicts, rng, mem_fnv) in &GOLDEN {
            let mut mem = start(g);
            let mut cpu = CpuModel::new(CORES[c].1());
            let got = cpu.run_kernel(&KERNELS[k], &mut mem);
            assert_eq!(
                outcome(&cpu, got, &mem),
                (cycles, instrs, mispredicts, rng, mem_fnv),
                "{:?} on {} with memory geometry {g}",
                KERNELS[k],
                CORES[c].0
            );
        }
    }

    fn small_kernel(variant: usize, size: usize) -> Kernel {
        match variant {
            0 => Kernel::MatMul {
                m: size % 9 + 1,
                k: size % 13 + 1,
                n: size % 17 + 1,
            },
            1 => Kernel::Im2col {
                channels: size % 3 + 1,
                ksize: 3,
                out_elems: size,
            },
            2 => Kernel::Elementwise {
                n: size * 8,
                kind: [
                    ElemKind::Relu,
                    ElemKind::BatchNorm,
                    ElemKind::Add,
                    ElemKind::Bias,
                ][size % 4],
            },
            3 => Kernel::Pool {
                out_elems: size,
                window: size % 3 + 1,
            },
            4 => Kernel::Softmax { n: size },
            5 => Kernel::Memcpy { bytes: size * 16 },
            6 => Kernel::FrameworkNode { tensors: size % 5 },
            _ => Kernel::Control { ops: size * 4 },
        }
    }

    proptest! {
        #[test]
        fn streamed_kernel_matches_its_materialized_trace(
            variant in 0usize..8,
            size in 0usize..1500,
            boom in proptest::any::<bool>(),
            geometry in 0usize..4,
            warm_seed in 0u64..u64::MAX,
            util_pct in 0u64..90,
        ) {
            let kernel = small_kernel(variant, size);
            let core = if boom { CpuConfig::boom() } else { CpuConfig::rocket() };
            let mut streamed_mem = warmed(geometry, warm_seed, util_pct);
            let mut traced_mem = streamed_mem.clone();
            let mut streamed = CpuModel::new(core);
            let mut traced = CpuModel::new(core);
            let a = streamed.run_kernel(&kernel, &mut streamed_mem);
            let b = traced.run_trace(&kernel.trace(), &mut traced_mem);
            prop_assert_eq!(
                outcome(&streamed, a, &streamed_mem),
                outcome(&traced, b, &traced_mem)
            );
        }

        #[test]
        fn timing_never_reads_a_counter(
            variant in 0usize..8,
            size in 0usize..1500,
            boom in proptest::any::<bool>(),
            geometry in 0usize..4,
            warm_seed in 0u64..u64::MAX,
            util_pct in 0u64..90,
            counters in proptest::collection::vec(0u64..1 << 62, 8..9),
        ) {
            // The timing cache keys an expansion by what it reads and
            // replays the memory counters as gains, so a twin whose cache,
            // bus and prefetch counters hold arbitrary values must take the
            // same cycles, draw the same branches and leave the same tags,
            // streams and counter gains.
            let kernel = small_kernel(variant, size);
            let core = if boom { CpuConfig::boom() } else { CpuConfig::rocket() };
            let mut plain_mem = warmed(geometry, warm_seed, util_pct);
            let mut twin_mem = plain_mem.clone();
            set_counters(&mut twin_mem, &counters);
            let (plain_pre, twin_pre) = (plain_mem.counters(), twin_mem.counters());
            let mut replayed = twin_mem.clone();
            let mut plain = CpuModel::new(core);
            let mut twin = CpuModel::new(core);
            let a = plain.run_kernel(&kernel, &mut plain_mem);
            let b = twin.run_kernel(&kernel, &mut twin_mem);
            prop_assert_eq!(
                (a, plain.stats(), plain.branch_rng()),
                (b, twin.stats(), twin.branch_rng())
            );
            let recorded = plain_mem.expansion_post(plain_pre);
            prop_assert_eq!(
                state_bytes(&recorded),
                state_bytes(&twin_mem.expansion_post(twin_pre))
            );
            // And the plain run's record, replayed on the twin, leaves it
            // where its own cold run did.
            replayed.replay_expansion(&recorded);
            prop_assert_eq!(state_bytes(&replayed), state_bytes(&twin_mem));
        }
    }
}

/// SMARTS-style sampling checked against the unsampled model.
#[cfg(test)]
mod sampling_tests {
    use super::*;
    use crate::kernel::ElemKind;
    use crate::mem::MemConfig;

    /// Cycles of the whole kernel, every instruction timed: the pipeline
    /// sink holds no trace, so an unbounded budget costs no memory.
    fn unsampled(kernel: &Kernel, core: CpuConfig) -> u64 {
        let mut cpu = CpuModel::new(core);
        let mut mem = MemSystem::new(MemConfig::default());
        let mut pipe = Pipeline::new(&mut cpu, &mut mem);
        let scale = kernel.emit(&mut pipe, usize::MAX);
        assert_eq!(scale, 1.0, "{kernel:?} was sampled");
        assert!(
            (2 * SAMPLE_BUDGET..=6 * SAMPLE_BUDGET).contains(&pipe.count),
            "{kernel:?} emits {} instructions, outside 2-6x the sample budget",
            pipe.count
        );
        pipe.finish(scale)
    }

    #[test]
    fn sampled_cycles_stay_within_pinned_error_of_unsampled() {
        // (kernel, |relative error| bound in %): each bound is about 1.5x
        // the worse of Rocket and BOOM as measured (DESIGN.md §4).
        let cases = [
            (
                Kernel::MatMul {
                    m: 40,
                    k: 40,
                    n: 40,
                },
                1.5,
            ),
            (
                Kernel::Im2col {
                    channels: 3,
                    ksize: 3,
                    out_elems: 2048,
                },
                0.1,
            ),
            (
                Kernel::Elementwise {
                    n: 100_000,
                    kind: ElemKind::Add,
                },
                0.3,
            ),
            (
                Kernel::Pool {
                    out_elems: 12_288,
                    window: 3,
                },
                0.1,
            ),
            (Kernel::Softmax { n: 40_000 }, 0.2),
            (Kernel::Memcpy { bytes: 800_000 }, 0.2),
            (Kernel::FrameworkNode { tensors: 100 }, 5.0),
            (Kernel::Control { ops: 100_000 }, 2.5),
        ];
        for (kernel, bound_pct) in cases {
            for core in [CpuConfig::rocket(), CpuConfig::boom()] {
                let full = unsampled(&kernel, core);
                let mut mem = MemSystem::new(MemConfig::default());
                let sampled = CpuModel::new(core).run_kernel(&kernel, &mut mem);
                let err_pct = (sampled as f64 / full as f64 - 1.0) * 100.0;
                assert!(
                    err_pct.abs() <= bound_pct,
                    "{kernel:?} (window {}): sampled {sampled} vs unsampled {full} cycles, \
                     error {err_pct:+.3}% exceeds {bound_pct}%",
                    core.window
                );
            }
        }
    }
}
