//! Workload kernels and the instruction streams they expand to.
//!
//! The CPU timing models are trace-driven: a [`Kernel`] describes a loop
//! nest (matmul, im2col, elementwise ops, framework overhead, ...) and
//! expands to a stream of [`Instr`]s with concrete memory addresses and
//! register-dependency distances. Large kernels are sampled: a
//! representative prefix of the iteration space is simulated in detail and
//! scaled (SMARTS-style systematic sampling), which keeps multi-second
//! CPU-only inferences tractable while preserving cache locality patterns.

use rose_sim_core::cycles::widen;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};

/// Functional-unit class of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer ALU op (address arithmetic, compares, logicals).
    IntAlu,
    /// Floating-point add/sub.
    FpAdd,
    /// Floating-point multiply or fused multiply-add.
    FpMul,
    /// Long-latency floating-point op (divide, exp approximation).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
}

/// One dynamic instruction in a kernel trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Functional unit used.
    pub class: InstrClass,
    /// Effective address for loads/stores.
    pub addr: Option<u64>,
    /// Distance (in dynamic instructions) back to the producer of the
    /// first source operand; 0 = no register dependency.
    pub dep1: u8,
    /// Distance back to the second source's producer; 0 = none.
    pub dep2: u8,
    /// True for data-dependent branches the predictor struggles with.
    pub hard_to_predict: bool,
}

impl Instr {
    /// An ALU op depending on the instruction `dep` slots back.
    pub fn alu(dep: u8) -> Instr {
        Instr {
            class: InstrClass::IntAlu,
            addr: None,
            dep1: dep,
            dep2: 0,
            hard_to_predict: false,
        }
    }

    /// A load from `addr`.
    pub fn load(addr: u64) -> Instr {
        Instr {
            class: InstrClass::Load,
            addr: Some(addr),
            dep1: 0,
            dep2: 0,
            hard_to_predict: false,
        }
    }

    /// A load whose address depends on the instruction `dep` slots back
    /// (pointer chasing).
    pub fn load_dep(addr: u64, dep: u8) -> Instr {
        Instr {
            dep1: dep,
            ..Instr::load(addr)
        }
    }

    /// A store to `addr` depending on a value produced `dep` slots back.
    pub fn store(addr: u64, dep: u8) -> Instr {
        Instr {
            class: InstrClass::Store,
            addr: Some(addr),
            dep1: dep,
            dep2: 0,
            hard_to_predict: false,
        }
    }

    /// A floating-point op of the given class with two source dependencies.
    pub fn fp(class: InstrClass, dep1: u8, dep2: u8) -> Instr {
        Instr {
            class,
            addr: None,
            dep1,
            dep2,
            hard_to_predict: false,
        }
    }

    /// A well-predicted loop back-edge.
    pub fn loop_branch() -> Instr {
        Instr {
            class: InstrClass::Branch,
            addr: None,
            dep1: 1,
            dep2: 0,
            hard_to_predict: false,
        }
    }

    /// A data-dependent branch.
    pub fn data_branch(dep: u8) -> Instr {
        Instr {
            class: InstrClass::Branch,
            addr: None,
            dep1: dep,
            dep2: 0,
            hard_to_predict: true,
        }
    }
}

/// Elementwise operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ElemKind {
    /// `max(0, x)`.
    Relu,
    /// Per-channel scale + shift (inference-time batchnorm).
    BatchNorm,
    /// Elementwise addition of two tensors (residual connections).
    Add,
    /// Bias addition.
    Bias,
}

rose_sim_core::snap_tag!(ElemKind {
    Relu = 0,
    BatchNorm = 1,
    Add = 2,
    Bias = 3,
});

/// A CPU workload kernel.
///
/// Kernels are descriptors: the cycle cost is obtained by expanding the
/// kernel to an instruction stream and running it through a CPU timing
/// model against the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kernel {
    /// Dense f32 matrix multiply `C[m×n] += A[m×k] · B[k×n]`, naive ikj
    /// order (the CPU fallback path for accelerator-less SoCs).
    MatMul {
        /// Rows of A/C.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of B/C.
        n: usize,
    },
    /// im2col patch extraction for conv lowering.
    Im2col {
        /// Input channels.
        channels: usize,
        /// Kernel size (square).
        ksize: usize,
        /// Output spatial elements (out_h × out_w).
        out_elems: usize,
    },
    /// Elementwise op over `n` f32 values.
    Elementwise {
        /// Element count.
        n: usize,
        /// Operation.
        kind: ElemKind,
    },
    /// 2-D max/avg pooling producing `out_elems` values from `window²`
    /// inputs each.
    Pool {
        /// Output element count across all channels.
        out_elems: usize,
        /// Pooling window edge length.
        window: usize,
    },
    /// Softmax over `n` values (exp + normalize).
    Softmax {
        /// Element count.
        n: usize,
    },
    /// Bulk copy of `bytes` (word loop).
    Memcpy {
        /// Bytes to copy.
        bytes: usize,
    },
    /// Framework (ONNX-Runtime-like) per-node overhead: graph traversal,
    /// shape checks, allocator — branchy, pointer-chasing integer code.
    FrameworkNode {
        /// Number of tensors the node touches.
        tensors: usize,
    },
    /// Generic scalar control logic (`ops` abstract operations).
    Control {
        /// Abstract operation count.
        ops: usize,
    },
}

impl Kernel {
    /// Serializes the kernel descriptor (tag byte plus dimension fields).
    pub fn save_state(&self, w: &mut SnapWriter) {
        match *self {
            Kernel::MatMul { m, k, n } => {
                w.u8(0);
                w.usize(m);
                w.usize(k);
                w.usize(n);
            }
            Kernel::Im2col {
                channels,
                ksize,
                out_elems,
            } => {
                w.u8(1);
                w.usize(channels);
                w.usize(ksize);
                w.usize(out_elems);
            }
            Kernel::Elementwise { n, kind } => {
                w.u8(2);
                w.usize(n);
                w.tag(&kind);
            }
            Kernel::Pool { out_elems, window } => {
                w.u8(3);
                w.usize(out_elems);
                w.usize(window);
            }
            Kernel::Softmax { n } => {
                w.u8(4);
                w.usize(n);
            }
            Kernel::Memcpy { bytes } => {
                w.u8(5);
                w.usize(bytes);
            }
            Kernel::FrameworkNode { tensors } => {
                w.u8(6);
                w.usize(tensors);
            }
            Kernel::Control { ops } => {
                w.u8(7);
                w.usize(ops);
            }
        }
    }

    /// Restores a kernel descriptor.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<Kernel, SnapError> {
        match r.u8()? {
            0 => Ok(Kernel::MatMul {
                m: r.usize()?,
                k: r.usize()?,
                n: r.usize()?,
            }),
            1 => Ok(Kernel::Im2col {
                channels: r.usize()?,
                ksize: r.usize()?,
                out_elems: r.usize()?,
            }),
            2 => Ok(Kernel::Elementwise {
                n: r.usize()?,
                kind: r.tag()?,
            }),
            3 => Ok(Kernel::Pool {
                out_elems: r.usize()?,
                window: r.usize()?,
            }),
            4 => Ok(Kernel::Softmax { n: r.usize()? }),
            5 => Ok(Kernel::Memcpy { bytes: r.usize()? }),
            6 => Ok(Kernel::FrameworkNode {
                tensors: r.usize()?,
            }),
            7 => Ok(Kernel::Control { ops: r.usize()? }),
            tag => Err(SnapError::BadTag {
                context: "Kernel",
                tag,
            }),
        }
    }
}

/// Base virtual addresses for kernel buffers (distinct 256 MiB regions so
/// different buffers never alias in the cache model).
mod region {
    pub const A: u64 = 0x1000_0000;
    pub const B: u64 = 0x2000_0000;
    pub const C: u64 = 0x3000_0000;
    pub const SCRATCH: u64 = 0x4000_0000;
    pub const HEAP: u64 = 0x5000_0000;
}

/// An expanded (possibly sampled) kernel trace.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// The sampled instruction stream.
    pub instrs: Vec<Instr>,
    /// Multiplier mapping sampled cycles/instructions to the full kernel.
    pub scale: f64,
}

impl KernelTrace {
    /// Estimated dynamic instruction count of the full kernel.
    pub fn total_instrs(&self) -> u64 {
        // rose-lint: allow(CAST001, sampled instruction counts are bounded by SAMPLE_BUDGET * scale << 2^53; round-to-u64 is the sampling contract)
        (self.instrs.len() as f64 * self.scale).round() as u64
    }
}

/// A consumer of a kernel's instruction stream, fed in program order.
///
/// `Vec<Instr>` collects a [`KernelTrace`]; the CPU pipeline model is a
/// sink too, so a cold expansion times each instruction as it is generated
/// without materializing the stream.
pub trait InstrSink {
    /// Accepts the next dynamic instruction.
    fn push(&mut self, instr: Instr);
}

impl InstrSink for Vec<Instr> {
    fn push(&mut self, instr: Instr) {
        Vec::push(self, instr);
    }
}

/// Maximum instructions emitted per trace before sampling kicks in.
pub const SAMPLE_BUDGET: usize = 120_000;

impl Kernel {
    /// Total f32 multiply-accumulate count, when meaningful.
    pub fn macs(&self) -> u64 {
        match *self {
            Kernel::MatMul { m, k, n } => widen(m * k * n),
            _ => 0,
        }
    }

    /// Expands the kernel to a trace, sampling down to
    /// [`SAMPLE_BUDGET`] instructions if the full trace would be larger.
    pub fn trace(&self) -> KernelTrace {
        let mut instrs = Vec::new();
        let scale = self.emit(&mut instrs, SAMPLE_BUDGET);
        KernelTrace { instrs, scale }
    }

    /// Streams up to `budget` instructions into `out` in program order,
    /// returning the scale factor (total / emitted iterations).
    pub(crate) fn emit<S: InstrSink>(&self, out: &mut S, budget: usize) -> f64 {
        match *self {
            Kernel::MatMul { m, k, n } => {
                // ikj loop: inner loop streams B[k][..] and C[i][..].
                // Per inner element: load B, load C, fma, store C, 2 addr
                // ops, branch ≈ 7 instrs.
                let per_iter = 7;
                let total_iters = widen(m * k * n);
                let max_iters = widen(budget / per_iter);
                let iters = total_iters.min(max_iters);
                let mut count = 0u64;
                'outer: for i in 0..m {
                    for kk in 0..k {
                        // load A[i][kk] hoisted out of inner loop
                        out.push(Instr::load(region::A + widen((i * k + kk) * 4)));
                        for j in 0..n {
                            let b_addr = region::B + widen((kk * n + j) * 4);
                            let c_addr = region::C + widen((i * n + j) * 4);
                            out.push(Instr::load(b_addr));
                            out.push(Instr::load(c_addr));
                            out.push(Instr::fp(InstrClass::FpMul, 1, 2)); // fma
                            out.push(Instr::store(c_addr, 1));
                            out.push(Instr::alu(0)); // index increment
                            out.push(Instr::loop_branch());
                            count += 1;
                            if count >= iters {
                                break 'outer;
                            }
                        }
                    }
                }
                total_iters as f64 / count.max(1) as f64
            }
            Kernel::Im2col {
                channels,
                ksize,
                out_elems,
            } => {
                // Per output patch element: index math (3 ALU), bounds
                // check branch, load src, store dst ≈ 7 instrs.
                let total_iters = widen(channels * ksize * ksize * out_elems);
                let iters = total_iters.min(widen(budget / 7));
                for it in 0..iters {
                    out.push(Instr::alu(0));
                    out.push(Instr::alu(1));
                    out.push(Instr::alu(1));
                    // Source walks the input image with a strided gather;
                    // destination is a streaming store.
                    let src = region::A + (it.wrapping_mul(68) % (1 << 22));
                    let dst = region::SCRATCH + it * 4;
                    out.push(Instr::data_branch(1)); // padding bounds check
                    out.push(Instr::load(src));
                    out.push(Instr::store(dst, 1));
                    out.push(Instr::loop_branch());
                }
                total_iters as f64 / iters.max(1) as f64
            }
            Kernel::Elementwise { n, kind } => {
                // Compiled elementwise loops are unrolled: four elements per
                // iteration so dependent FP ops sit far enough apart for an
                // in-order pipeline to hide FP latency.
                const UNROLL: u64 = 4;
                let (fp_ops, extra_load) = match kind {
                    ElemKind::Relu => (1u8, false),
                    ElemKind::Bias => (1, false),
                    ElemKind::BatchNorm => (2, false),
                    ElemKind::Add => (1, true),
                };
                let per_chunk =
                    // rose-lint: allow(CAST001, UNROLL (4) and u8 op counts widen into usize)
                    (UNROLL as usize) * (2 + fp_ops as usize + extra_load as usize) + 2;
                let total_chunks = widen(n).div_ceil(UNROLL);
                let chunks = total_chunks.min(widen(budget / per_chunk)).max(1);
                for c in 0..chunks.min(total_chunks) {
                    let base = c * UNROLL;
                    for u in 0..UNROLL {
                        out.push(Instr::load(region::A + (base + u) * 4));
                    }
                    if extra_load {
                        for u in 0..UNROLL {
                            out.push(Instr::load(region::B + (base + u) * 4));
                        }
                    }
                    // First FP pass: each op depends on its own load,
                    // UNROLL (or 2*UNROLL with the extra stream) back.
                    // rose-lint: allow(CAST001, load distances are at most 2 * UNROLL = 8, far inside u8)
                    let load_dist = if extra_load { 2 * UNROLL } else { UNROLL } as u8;
                    for _ in 0..UNROLL {
                        out.push(Instr::fp(InstrClass::FpAdd, load_dist, 0));
                    }
                    for _ in 1..fp_ops {
                        for _ in 0..UNROLL {
                            // rose-lint: allow(CAST001, UNROLL is 4, far inside u8)
                            out.push(Instr::fp(InstrClass::FpAdd, UNROLL as u8, 0));
                        }
                    }
                    for u in 0..UNROLL {
                        // rose-lint: allow(CAST001, UNROLL is 4, far inside u8)
                        out.push(Instr::store(region::C + (base + u) * 4, UNROLL as u8));
                    }
                    out.push(Instr::alu(0));
                    out.push(Instr::loop_branch());
                }
                total_chunks as f64 / chunks.min(total_chunks).max(1) as f64
            }
            Kernel::Pool { out_elems, window } => {
                let per_iter = window * window * 3 + 3;
                let total_iters = widen(out_elems);
                let iters = total_iters.min(widen((budget / per_iter).max(1)));
                for it in 0..iters {
                    for w in 0..(window * window) {
                        out.push(Instr::load(region::A + it * 16 + widen(w * 4)));
                        out.push(Instr::fp(InstrClass::FpAdd, 1, 2)); // max/add
                        out.push(Instr::alu(0));
                    }
                    out.push(Instr::store(region::C + it * 4, 1));
                    out.push(Instr::alu(0));
                    out.push(Instr::loop_branch());
                }
                total_iters as f64 / iters.max(1) as f64
            }
            Kernel::Softmax { n } => {
                // Pass 1: exp (long-latency) + sum. Pass 2: divide.
                let total_iters = widen(n);
                let iters = total_iters.min(widen(budget / 10)).max(1);
                for it in 0..iters.min(total_iters) {
                    let a = region::A + it * 4;
                    out.push(Instr::load(a));
                    out.push(Instr::fp(InstrClass::FpDiv, 1, 0)); // exp approx
                    out.push(Instr::fp(InstrClass::FpAdd, 1, 3)); // running sum
                    out.push(Instr::store(region::SCRATCH + it * 4, 2));
                    out.push(Instr::loop_branch());
                    out.push(Instr::load(region::SCRATCH + it * 4));
                    out.push(Instr::fp(InstrClass::FpDiv, 1, 0));
                    out.push(Instr::store(region::C + it * 4, 1));
                    out.push(Instr::alu(0));
                    out.push(Instr::loop_branch());
                }
                total_iters as f64 / iters.min(total_iters).max(1) as f64
            }
            Kernel::Memcpy { bytes } => {
                // 8-byte word loop: load, store, index, branch.
                let total_iters = widen((bytes / 8).max(1));
                let iters = total_iters.min(widen(budget / 4)).max(1);
                for it in 0..iters.min(total_iters) {
                    out.push(Instr::load(region::A + it * 8));
                    out.push(Instr::store(region::C + it * 8, 1));
                    out.push(Instr::alu(0));
                    out.push(Instr::loop_branch());
                }
                total_iters as f64 / iters.min(total_iters).max(1) as f64
            }
            Kernel::FrameworkNode { tensors } => {
                // Pointer-chasing over session metadata: dependent loads
                // scattered across the heap, data-dependent branches.
                let total_iters = widen(800 + 400 * tensors);
                let iters = total_iters.min(widen(budget / 8)).max(1);
                let mut ptr = region::HEAP;
                for it in 0..iters.min(total_iters) {
                    // Hash-scatter the next pointer (deterministic). The
                    // chase is dependency-serialized: the address arithmetic
                    // depends on the previous iteration's chase load (8
                    // instructions back), and the load depends on it — no
                    // core can overlap these misses.
                    ptr =
                        region::HEAP + (ptr.wrapping_mul(2654435761).wrapping_add(it) % (1 << 21));
                    out.push(Instr::alu(7)); // next-pointer arithmetic (dep: prev chase load)
                    out.push(Instr::load_dep(ptr, 1)); // chase load
                    out.push(Instr::load_dep(ptr + 16, 2)); // field load
                    out.push(Instr::data_branch(1));
                    out.push(Instr::alu(0));
                    out.push(Instr::alu(1));
                    out.push(Instr::store(region::SCRATCH + (it % 4096) * 8, 1));
                    out.push(Instr::loop_branch());
                }
                total_iters as f64 / iters.min(total_iters).max(1) as f64
            }
            Kernel::Control { ops } => {
                let total_iters = widen(ops);
                let iters = total_iters.min(widen(budget / 4)).max(1);
                for it in 0..iters.min(total_iters) {
                    out.push(Instr::alu(1));
                    out.push(Instr::load(region::HEAP + (it % 2048) * 8));
                    out.push(Instr::data_branch(1));
                    out.push(Instr::loop_branch());
                }
                total_iters as f64 / iters.min(total_iters).max(1) as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_kernels_are_not_sampled() {
        let t = Kernel::MatMul { m: 4, k: 4, n: 4 }.trace();
        assert_eq!(t.scale, 1.0);
        assert!(!t.instrs.is_empty());
    }

    #[test]
    fn large_kernels_sample_and_scale() {
        let k = Kernel::MatMul {
            m: 256,
            k: 256,
            n: 256,
        };
        let t = k.trace();
        assert!(t.instrs.len() <= SAMPLE_BUDGET + 16);
        assert!(t.scale > 1.0);
        // Total instruction estimate ≈ 7 per MAC.
        let est = t.total_instrs() as f64;
        let expect = k.macs() as f64 * 7.0;
        assert!(
            (est / expect - 1.0).abs() < 0.2,
            "est {est} vs expect {expect}"
        );
    }

    #[test]
    fn matmul_macs() {
        assert_eq!(
            Kernel::MatMul {
                m: 10,
                k: 20,
                n: 30
            }
            .macs(),
            6000
        );
        assert_eq!(Kernel::Softmax { n: 10 }.macs(), 0);
    }

    #[test]
    fn elementwise_instr_count_scales_with_n() {
        let small = Kernel::Elementwise {
            n: 100,
            kind: ElemKind::Relu,
        }
        .trace();
        let large = Kernel::Elementwise {
            n: 1000,
            kind: ElemKind::Relu,
        }
        .trace();
        assert!(large.total_instrs() > 8 * small.total_instrs());
    }

    #[test]
    fn traces_are_deterministic() {
        let k = Kernel::FrameworkNode { tensors: 5 };
        assert_eq!(k.trace(), k.trace());
    }

    #[test]
    fn memcpy_word_loop() {
        let t = Kernel::Memcpy { bytes: 64 }.trace();
        // 8 words * 4 instrs.
        assert_eq!(t.instrs.len(), 32);
        assert_eq!(t.scale, 1.0);
    }

    #[test]
    fn framework_node_has_irregular_loads() {
        let t = Kernel::FrameworkNode { tensors: 2 }.trace();
        let loads: Vec<u64> = t
            .instrs
            .iter()
            .filter(|i| i.class == InstrClass::Load)
            .map(|i| i.addr.unwrap())
            .collect();
        // Pointer chase: consecutive load addresses are not sequential.
        let sequential = loads
            .windows(2)
            .filter(|w| w[1] == w[0] + 8 || w[1] == w[0] + 4)
            .count();
        assert!(sequential < loads.len() / 4, "too regular: {sequential}");
    }
}
