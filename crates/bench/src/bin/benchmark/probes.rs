//! Micro-probes: one pass of calls into the public functions behind the
//! cost model and the snapshot codec, each timed over a few repetitions
//! and reported as the median repetition.

use rose::mission::MissionConfig;
use rose::snapshot::Mission;
use rose_sim_core::rng::SimRng;
use rose_sim_core::snap::{SnapReader, SnapWriter};
use rose_socsim::cpu::CpuModel;
use rose_socsim::gemmini::GemminiModel;
use rose_socsim::kernel::Kernel;
use rose_socsim::mem::MemSystem;
use rose_socsim::{SharedTimingCache, SocConfig};
use rose_trace::Stopwatch;
use std::hint::black_box;

use crate::stats::median;

/// Repetitions per probe; the median repetition is reported.
const REPS: usize = 7;

/// The micro-probe results.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `Kernel::trace`, ns per emitted instruction.
    pub kernel_trace_ns_per_instr: f64,
    /// `CpuModel::run_trace`, ns per emitted instruction.
    pub cpu_ns_per_instr: f64,
    /// `MemSystem::access`, ns per access (strided and random halves).
    pub mem_ns_per_access: f64,
    /// `GemminiModel::matmul` of a 64×64×64 tile, µs per call.
    pub gemmini_matmul_us: f64,
    /// `SharedTimingCache::context_hash` over a memory-system snapshot,
    /// ns per KiB.
    pub context_hash_ns_per_kib: f64,
    /// `MemSystem::save_state`, MB/s.
    pub mem_save_mb_per_s: f64,
    /// `MemSystem::restore_state`, MB/s.
    pub mem_restore_mb_per_s: f64,
    /// `Mission::snapshot` one simulated second in, µs.
    pub mission_snapshot_us: f64,
    /// `MissionSnapshot::resume` of that snapshot, µs.
    pub mission_resume_us: f64,
}

/// Median over [`REPS`] repetitions of `calls` back-to-back calls of `f`,
/// in ns per call per `units`. Batching keeps sub-microsecond calls above
/// the clock's resolution.
fn per_call(calls: u32, units: f64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let watch = Stopwatch::start();
            for _ in 0..calls {
                f();
            }
            watch.elapsed().as_nanos() as f64 / f64::from(calls) / units
        })
        .collect();
    median(&samples)
}

/// Runs every probe once.
pub fn run() -> Result<Probes, String> {
    let soc = SocConfig::config_a();
    let kernel = Kernel::MatMul {
        m: 48,
        k: 48,
        n: 48,
    };
    let trace = kernel.trace();
    let instrs = trace.instrs.len() as f64;
    let kernel_trace_ns_per_instr = per_call(4, instrs, || {
        black_box(black_box(kernel).trace());
    });
    let mut cpu = CpuModel::new(soc.cpu_config());
    let mut mem = MemSystem::new(soc.mem);
    let cpu_ns_per_instr = per_call(4, instrs, || {
        black_box(cpu.run_trace(black_box(&trace), &mut mem));
    });

    const ACCESSES: u64 = 1 << 16;
    let mut rng = SimRng::new(0x5EED);
    let random: Vec<u64> = (0..ACCESSES / 2).map(|_| rng.below(64 << 20)).collect();
    let mut accessed = MemSystem::new(soc.mem);
    let mem_ns_per_access = per_call(1, ACCESSES as f64, || {
        for i in 0..ACCESSES / 2 {
            black_box(accessed.access(0x1000_0000 + i * 64, i % 4 == 0));
        }
        for &addr in &random {
            black_box(accessed.access(addr, false));
        }
    });

    let gemmini = soc.gemmini.ok_or("config A has no accelerator")?;
    let mut model = GemminiModel::new(gemmini);
    let mut dma = MemSystem::new(soc.mem);
    let gemmini_matmul_us = per_call(1000, 1e3, || {
        black_box(model.matmul(64, 64, 64, &mut dma));
    });

    // The memory system the CPU probe warmed, so its snapshot is realistic.
    let mut w = SnapWriter::new();
    mem.save_state(&mut w);
    let state = w.into_bytes();
    let kib = state.len() as f64 / 1024.0;
    let context_hash_ns_per_kib = per_call(50, kib, || {
        black_box(SharedTimingCache::context_hash(black_box(&state), 7));
    });
    let mb = state.len() as f64 / 1e6;
    let mem_save_mb_per_s = 1e9
        / per_call(20, mb, || {
            let mut w = SnapWriter::new();
            mem.save_state(&mut w);
            black_box(w.into_bytes());
        });
    let mut target = MemSystem::new(soc.mem);
    let mut restore_error = None;
    let mem_restore_mb_per_s = 1e9
        / per_call(20, mb, || {
            if let Err(e) = target.restore_state(&mut SnapReader::new(&state)) {
                restore_error = Some(e.to_string());
            }
        });
    if let Some(e) = restore_error {
        return Err(format!("memory-state restore: {e}"));
    }

    let mut mission = Mission::start(&MissionConfig {
        timing_cache: Some(SharedTimingCache::in_memory()),
        ..MissionConfig::default()
    });
    mission.run_syncs(60);
    let snapshot = mission.snapshot();
    let mission_snapshot_us = per_call(20, 1e3, || {
        black_box(mission.snapshot());
    });
    let mut resume_error = None;
    let mission_resume_us = per_call(10, 1e3, || {
        if let Err(e) = black_box(snapshot.resume()) {
            resume_error = Some(e.to_string());
        }
    });
    if let Some(e) = resume_error {
        return Err(format!("mission resume: {e}"));
    }

    Ok(Probes {
        kernel_trace_ns_per_instr,
        cpu_ns_per_instr,
        mem_ns_per_access,
        gemmini_matmul_us,
        context_hash_ns_per_kib,
        mem_save_mb_per_s,
        mem_restore_mb_per_s,
        mission_snapshot_us,
        mission_resume_us,
    })
}
