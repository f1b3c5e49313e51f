//! Cycle-level SoC simulator for the RoSÉ reproduction — the
//! FireSim/Chipyard substitute.
//!
//! The paper evaluates pre-silicon SoCs by compiling Chipyard RTL to FPGA
//! bitstreams and simulating them cycle-exactly in FireSim. No FPGA is
//! available here, so this crate provides a deterministic **cycle-level
//! microarchitectural simulator** that exercises the same co-simulation
//! contract:
//!
//! * the SoC advances in bounded cycle quanta programmed by the RoSÉ
//!   BRIDGE (lockstep token semantics),
//! * I/O happens through memory-mapped queues on the system bus
//!   ([`bridge`]), and the SoC stalls when polling an empty queue,
//! * compute latencies are data- and configuration-dependent, produced by
//!   real timing models rather than constants.
//!
//! Components:
//!
//! * [`config`] — SoC configurations, including the paper's Table 2
//!   configs A (BOOM+Gemmini), B (Rocket+Gemmini), and C (BOOM only).
//! * [`mem`] — set-associative caches, DRAM, and a shared system bus with
//!   bandwidth contention between CPU misses and accelerator DMA.
//! * [`kernel`] — workload kernels that expand to instruction streams with
//!   concrete memory access patterns.
//! * [`cpu`] — in-order ("Rocket-class") and 3-wide out-of-order
//!   ("BOOM-class") CPU timing models driven by those streams.
//! * [`gemmini`] — a weight-stationary systolic-array accelerator model
//!   (4×4 FP32 mesh, 256 KiB scratchpad, 64 KiB accumulator) with DMA
//!   through the shared bus.
//! * [`bridge`] — the RoSÉ BRIDGE hardware: RX/TX queues exposed as MMIO
//!   registers plus the control unit that throttles execution.
//! * [`program`] — the target-program abstraction: applications run on the
//!   simulated SoC by issuing receive/compute/send operations whose costs
//!   come from the timing models.
//! * [`soc`] — [`soc::Soc`], the top level tying everything together.
//! * [`timing_cache`] — the persisted cross-run timing cache that lets a
//!   sweep expand each kernel once per machine instead of once per
//!   mission (DESIGN.md §4i).

#![deny(missing_docs)]

pub mod bridge;
pub mod config;
pub mod cpu;
pub mod energy;
pub mod gemmini;
pub mod kernel;
pub mod mem;
pub mod multitenant;
pub mod program;
pub mod soc;
pub mod timing_cache;

pub use config::{CoreKind, SocConfig};
pub use program::{TargetOp, TargetProgram};
pub use soc::{Soc, SocStats};
pub use timing_cache::SharedTimingCache;
