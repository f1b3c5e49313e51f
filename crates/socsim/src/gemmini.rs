//! The Gemmini-class systolic-array accelerator timing model.
//!
//! Configured as in Section 4.2.1: because the evaluated DNNs use
//! floating-point datatypes, the mesh is a 4×4 FP32 weight-stationary
//! systolic array (matching Gemmini's 128-bit maximum memory bus width)
//! with a 256 KiB scratchpad and a 64 KiB accumulator.
//!
//! The model simulates a tiled matmul at block granularity: the operand
//! space is partitioned into scratchpad-resident tiles; for each weight
//! tile the mesh is preloaded (one column per cycle) and activation rows
//! are streamed through (one row per cycle). DMA traffic moves through the
//! shared [`MemSystem`] bus, is overlapped with compute via double
//! buffering, and raises the bus utilization seen by concurrent CPU misses.

use crate::mem::MemSystem;
use rose_sim_core::cycles::widen;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};

/// Systolic array dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Weights resident in the mesh; activations stream through.
    WeightStationary,
    /// Outputs resident; used for comparison studies.
    OutputStationary,
}

rose_sim_core::snap_tag!(Dataflow { WeightStationary = 0, OutputStationary = 1 });

/// Accelerator generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemminiConfig {
    /// Mesh rows (PEs).
    pub mesh_rows: usize,
    /// Mesh columns (PEs).
    pub mesh_cols: usize,
    /// Scratchpad capacity in bytes.
    pub scratchpad_bytes: usize,
    /// Accumulator capacity in bytes.
    pub accumulator_bytes: usize,
    /// Dataflow (the paper uses weight-stationary to match the workload).
    pub dataflow: Dataflow,
    /// Cycles to issue one RoCC command from the CPU.
    pub cmd_overhead: u64,
}

impl Default for GemminiConfig {
    /// The paper's configuration: 4×4 FP32, 256 KiB + 64 KiB.
    fn default() -> GemminiConfig {
        GemminiConfig {
            mesh_rows: 4,
            mesh_cols: 4,
            scratchpad_bytes: 256 * 1024,
            accumulator_bytes: 64 * 1024,
            dataflow: Dataflow::WeightStationary,
            cmd_overhead: 40,
        }
    }
}

impl GemminiConfig {
    /// Multiply-accumulates per cycle at full mesh utilization.
    pub fn peak_macs_per_cycle(&self) -> u64 {
        widen(self.mesh_rows * self.mesh_cols)
    }

    /// Serializes the generator parameters.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let GemminiConfig {
            mesh_rows,
            mesh_cols,
            scratchpad_bytes,
            accumulator_bytes,
            dataflow,
            cmd_overhead,
        } = self;
        w.usize(*mesh_rows);
        w.usize(*mesh_cols);
        w.usize(*scratchpad_bytes);
        w.usize(*accumulator_bytes);
        w.tag(dataflow);
        w.u64(*cmd_overhead);
    }

    /// Restores generator parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot; a zero mesh
    /// dimension is rejected as [`SnapError::BadTag`]: the tile model
    /// divides by the rows, and utilization by rows × columns.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<GemminiConfig, SnapError> {
        let config = GemminiConfig {
            mesh_rows: r.usize()?,
            mesh_cols: r.usize()?,
            scratchpad_bytes: r.usize()?,
            accumulator_bytes: r.usize()?,
            dataflow: r.tag()?,
            cmd_overhead: r.u64()?,
        };
        if config.mesh_rows == 0 || config.mesh_cols == 0 {
            return Err(SnapError::BadTag {
                context: "GemminiConfig mesh dimension",
                tag: 0,
            });
        }
        Ok(config)
    }
}

/// A convolution shape (NCHW, square kernels, `same`-style padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConvShape {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Kernel edge length.
    pub ksize: usize,
}

impl ConvShape {
    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        widen(self.out_h * self.out_w * self.out_c * self.in_c * self.ksize * self.ksize)
    }

    /// The implicit-GEMM dimensions `(m, k, n)`.
    pub fn as_gemm(&self) -> (usize, usize, usize) {
        (
            self.out_h * self.out_w,
            self.in_c * self.ksize * self.ksize,
            self.out_c,
        )
    }

    /// Serializes the shape.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let ConvShape {
            in_c,
            out_c,
            out_h,
            out_w,
            ksize,
        } = self;
        w.usize(*in_c);
        w.usize(*out_c);
        w.usize(*out_h);
        w.usize(*out_w);
        w.usize(*ksize);
    }

    /// Restores a shape.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<ConvShape, SnapError> {
        Ok(ConvShape {
            in_c: r.usize()?,
            out_c: r.usize()?,
            out_h: r.usize()?,
            out_w: r.usize()?,
            ksize: r.usize()?,
        })
    }
}

/// The timing result of one accelerator command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccelRun {
    /// Wall-clock cycles the accelerator run occupied (compute ∪ DMA).
    pub cycles: u64,
    /// Cycles the mesh was actively computing.
    pub compute_cycles: u64,
    /// Bytes moved by the DMA engine.
    pub dma_bytes: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// Mesh-resident tile executions (weight tiles preloaded and streamed
    /// under weight-stationary dataflow; output tiles otherwise).
    pub tiles: u64,
}

impl AccelRun {
    /// Mesh utilization achieved in `[0, 1]`.
    pub fn utilization(&self, config: &GemminiConfig) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * config.peak_macs_per_cycle() as f64)
    }

    /// Serializes the run record.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let AccelRun {
            cycles,
            compute_cycles,
            dma_bytes,
            macs,
            tiles,
        } = self;
        w.u64(*cycles);
        w.u64(*compute_cycles);
        w.u64(*dma_bytes);
        w.u64(*macs);
        w.u64(*tiles);
    }

    /// Restores a run record.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<AccelRun, SnapError> {
        Ok(AccelRun {
            cycles: r.u64()?,
            compute_cycles: r.u64()?,
            dma_bytes: r.u64()?,
            macs: r.u64()?,
            tiles: r.u64()?,
        })
    }

    fn merge(&mut self, other: AccelRun) {
        self.merge_scaled(other, 1);
    }

    /// Accumulates `count` identical blocks: every field is an associative
    /// sum, so multiplying is bit-identical to merging `count` copies.
    fn merge_scaled(&mut self, other: AccelRun, count: u64) {
        self.cycles += count * other.cycles;
        self.compute_cycles += count * other.compute_cycles;
        self.dma_bytes += count * other.dma_bytes;
        self.macs += count * other.macs;
        self.tiles += count * other.tiles;
    }
}

/// The accelerator model instance, accumulating activity counters.
#[derive(Debug, Clone)]
pub struct GemminiModel {
    config: GemminiConfig,
    /// Total cycles across all runs (for the activity factor).
    total_cycles: u64,
    total_macs: u64,
}

impl GemminiModel {
    /// Creates an idle accelerator.
    pub fn new(config: GemminiConfig) -> GemminiModel {
        GemminiModel {
            config,
            total_cycles: 0,
            total_macs: 0,
        }
    }

    /// Generator parameters.
    pub fn config(&self) -> &GemminiConfig {
        &self.config
    }

    /// Total busy cycles across the accelerator's lifetime.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total MACs across the accelerator's lifetime.
    pub fn total_macs(&self) -> u64 {
        self.total_macs
    }

    /// Serializes the accelerator's lifetime activity counters.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let GemminiModel {
            config: _,
            total_cycles,
            total_macs,
        } = self;
        w.u64(*total_cycles);
        w.u64(*total_macs);
    }

    /// Restores the accelerator's lifetime activity counters.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.total_cycles = r.u64()?;
        self.total_macs = r.u64()?;
        Ok(())
    }

    /// Times a tiled matmul `C[m×n] = A[m×k] · B[k×n]` in FP32.
    ///
    /// Costing is closed-form: interior blocks of the tiled loop nest are
    /// all identical, so each distinct `(cur_m, cur_k, last-k)` block class
    /// is priced once and multiplied by its occurrence count instead of
    /// iterating `blocks_m × blocks_k × blocks_n`. Every side effect of the
    /// reference loop ([`GemminiModel::matmul_looped`]) is an associative
    /// sum of per-block values, so the result — [`AccelRun`], bus traffic,
    /// DMA utilization, and activity counters — is bit-identical; debug
    /// builds assert this against the looped path on every call.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn matmul(&mut self, m: usize, k: usize, n: usize, mem: &mut MemSystem) -> AccelRun {
        #[cfg(debug_assertions)]
        let (self_before, mem_before) = (self.clone(), mem.clone());
        let run = self.matmul_closed(m, k, n, mem);
        #[cfg(debug_assertions)]
        {
            let mut g = self_before;
            let mut lm = mem_before;
            let looped = g.matmul_looped(m, k, n, &mut lm);
            debug_assert_eq!(run, looped, "closed-form vs looped run for {m}x{k}x{n}");
            debug_assert_eq!(
                g.total_cycles, self.total_cycles,
                "activity cycles {m}x{k}x{n}"
            );
            debug_assert_eq!(g.total_macs, self.total_macs, "activity macs {m}x{k}x{n}");
            debug_assert_eq!(
                lm.bus().total_bytes(),
                mem.bus().total_bytes(),
                "bus bytes for {m}x{k}x{n}"
            );
            debug_assert_eq!(
                lm.bus().dma_utilization().to_bits(),
                mem.bus().dma_utilization().to_bits(),
                "dma utilization for {m}x{k}x{n}"
            );
        }
        run
    }

    /// The tile sizing shared by the closed-form and looped paths.
    fn tile_shape(&self, m: usize, k: usize, n: usize) -> (usize, usize, usize) {
        let cfg = self.config;
        let dim = cfg.mesh_rows; // square mesh assumed
        let elem = 4; // FP32

        // Tile sizing: B tiles (k×n) and A tiles (m×k) live in scratchpad
        // halves; C tiles (m×n) must fit the accumulator.
        let spad_half_elems = cfg.scratchpad_bytes / (2 * elem);
        let acc_elems = cfg.accumulator_bytes / elem;
        let tile_n = n.min(128).min(acc_elems / dim.max(1)).max(dim);
        let tile_k = k.min(spad_half_elems / tile_n).max(dim).min(k.max(dim));
        let tile_m = m
            .min(spad_half_elems / tile_k.max(1))
            .min(acc_elems / tile_n.max(1))
            .max(dim);
        (tile_m, tile_k, tile_n)
    }

    fn matmul_closed(&mut self, m: usize, k: usize, n: usize, mem: &mut MemSystem) -> AccelRun {
        assert!(m > 0 && k > 0 && n > 0, "degenerate matmul {m}x{k}x{n}");
        let cfg = self.config;
        let dim = cfg.mesh_rows;
        let elem = 4;
        let (tile_m, tile_k, tile_n) = self.tile_shape(m, k, n);
        let blocks_m = m.div_ceil(tile_m);
        let blocks_k = k.div_ceil(tile_k);
        let blocks_n = n.div_ceil(tile_n);
        // Edge-block extents: the final block in each dimension (equal to
        // the tile when the dimension divides evenly).
        let m_rem = m - (blocks_m - 1) * tile_m;
        let k_rem = k - (blocks_k - 1) * tile_k;
        let n_rem = n - (blocks_n - 1) * tile_n;

        // Compute-stream cycles and mesh-tile count for one (cur_k, cur_n)
        // inner step of a block with cur_m rows.
        let stream_tiles = |cur_m: usize, cur_k: usize, cur_n: usize| -> (u64, u64) {
            let weight_tiles = widen(cur_k.div_ceil(dim) * cur_n.div_ceil(dim));
            match cfg.dataflow {
                Dataflow::WeightStationary => {
                    (weight_tiles * (widen(dim) + widen(cur_m)), weight_tiles)
                }
                Dataflow::OutputStationary => {
                    let out_tiles = widen(cur_m.div_ceil(dim) * cur_n.div_ceil(dim));
                    (out_tiles * (widen(dim) + widen(cur_k)), out_tiles)
                }
            }
        };

        // Price one (cur_m, cur_k, last-k) block class: the inner n loop is
        // itself closed-form, (blocks_n - 1) interior steps plus one edge.
        let block_class = |cur_m: usize, cur_k: usize, last_k: bool| -> AccelRun {
            let a_bytes = widen(cur_m * cur_k * elem);
            let mut dma_cycles = mem.dma_latency(a_bytes);
            let (interior_stream, interior_tiles) = stream_tiles(cur_m, cur_k, tile_n);
            let (edge_stream, edge_tiles) = stream_tiles(cur_m, cur_k, n_rem);
            let interior_n = widen(blocks_n - 1);
            dma_cycles += interior_n * mem.dma_latency(widen(cur_k * tile_n * elem))
                + mem.dma_latency(widen(cur_k * n_rem * elem));
            let mut block = AccelRun {
                // A tile once, B tiles spanning all n columns.
                dma_bytes: a_bytes + widen(cur_k * n * elem),
                compute_cycles: interior_n * interior_stream + edge_stream,
                macs: widen(cur_m * cur_k * n),
                tiles: interior_n * interior_tiles + edge_tiles,
                cycles: 0,
            };
            if last_k {
                // Writeback of the C stripe on the last k block.
                let c_bytes = widen(cur_m * n * elem);
                block.dma_bytes += c_bytes;
                dma_cycles += mem.dma_latency(c_bytes);
            }
            // Double buffering overlaps DMA with compute.
            block.cycles = block.compute_cycles.max(dma_cycles) + cfg.cmd_overhead;
            block
        };

        // The (bm, bk) grid has at most four block classes: interior/edge m
        // crossed with interior/last k. Sum count-many copies of each.
        let mut run = AccelRun::default();
        for (cur_m, cur_k, last_k, count) in [
            (
                tile_m,
                tile_k,
                false,
                widen((blocks_m - 1) * (blocks_k - 1)),
            ),
            (tile_m, k_rem, true, widen(blocks_m - 1)),
            (m_rem, tile_k, false, widen(blocks_k - 1)),
            (m_rem, k_rem, true, 1u64),
        ] {
            if count == 0 {
                continue;
            }
            let block = block_class(cur_m, cur_k, last_k);
            run.merge_scaled(block, count);
        }
        // The looped path records every tile's DMA transfer on the bus;
        // the totals are an associative sum, recorded here in one call.
        mem.bus_mut().record_bytes(run.dma_bytes);

        // Report background DMA pressure to the bus for the duration of
        // this run (consumed by concurrent CPU traffic modeling).
        let util = if run.cycles > 0 {
            run.dma_bytes as f64 / (run.cycles as f64 * mem.config().bus_bytes_per_cycle)
        } else {
            0.0
        };
        mem.bus_mut().set_dma_utilization(util);

        self.total_cycles += run.cycles;
        self.total_macs += run.macs;
        run
    }

    /// The reference block-by-block matmul costing loop.
    ///
    /// Kept as the executable specification for [`GemminiModel::matmul`]:
    /// debug builds assert the closed-form path against it on every call,
    /// and the proptest equivalence suite exercises both across random
    /// shapes and configurations. Prefer [`GemminiModel::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn matmul_looped(&mut self, m: usize, k: usize, n: usize, mem: &mut MemSystem) -> AccelRun {
        assert!(m > 0 && k > 0 && n > 0, "degenerate matmul {m}x{k}x{n}");
        let cfg = self.config;
        let dim = cfg.mesh_rows;
        let elem = 4;
        let (tile_m, tile_k, tile_n) = self.tile_shape(m, k, n);
        let blocks_m = m.div_ceil(tile_m);
        let blocks_k = k.div_ceil(tile_k);
        let blocks_n = n.div_ceil(tile_n);

        let mut run = AccelRun::default();
        // Loop order: m-blocks outer, then k, then n. A tiles are loaded
        // once per (m,k); B tiles are re-fetched for every m pass.
        for bm in 0..blocks_m {
            let cur_m = tile_m.min(m - bm * tile_m);
            for bk in 0..blocks_k {
                let cur_k = tile_k.min(k - bk * tile_k);
                // A tile DMA.
                let a_bytes = widen(cur_m * cur_k * elem);
                let mut block = AccelRun {
                    dma_bytes: a_bytes,
                    ..AccelRun::default()
                };
                let mut dma_cycles = mem.dma_cycles(a_bytes);
                for bn in 0..blocks_n {
                    let cur_n = tile_n.min(n - bn * tile_n);
                    // B tile DMA.
                    let b_bytes = widen(cur_k * cur_n * elem);
                    block.dma_bytes += b_bytes;
                    dma_cycles += mem.dma_cycles(b_bytes);
                    // Weight-stationary compute: for each DIM×DIM weight
                    // tile, preload (dim cycles) then stream cur_m rows.
                    let weight_tiles = widen(cur_k.div_ceil(dim) * cur_n.div_ceil(dim));
                    let stream = match cfg.dataflow {
                        Dataflow::WeightStationary => weight_tiles * (widen(dim) + widen(cur_m)),
                        // Output-stationary keeps C resident: one pass per
                        // (m,n) tile streaming k.
                        Dataflow::OutputStationary => {
                            widen(cur_m.div_ceil(dim) * cur_n.div_ceil(dim))
                                * (widen(dim) + widen(cur_k))
                        }
                    };
                    block.compute_cycles += stream;
                    block.macs += widen(cur_m * cur_k * cur_n);
                    block.tiles += match cfg.dataflow {
                        Dataflow::WeightStationary => weight_tiles,
                        Dataflow::OutputStationary => {
                            widen(cur_m.div_ceil(dim) * cur_n.div_ceil(dim))
                        }
                    };
                }
                // Writeback of the C stripe on the last k block.
                if bk == blocks_k - 1 {
                    let c_bytes = widen(cur_m * n * elem);
                    block.dma_bytes += c_bytes;
                    dma_cycles += mem.dma_cycles(c_bytes);
                }
                // Double buffering overlaps DMA with compute.
                block.cycles = block.compute_cycles.max(dma_cycles) + cfg.cmd_overhead;
                run.merge(block);
            }
        }

        // Report background DMA pressure to the bus for the duration of
        // this run (consumed by concurrent CPU traffic modeling).
        let util = if run.cycles > 0 {
            run.dma_bytes as f64 / (run.cycles as f64 * mem.config().bus_bytes_per_cycle)
        } else {
            0.0
        };
        mem.bus_mut().set_dma_utilization(util);

        self.total_cycles += run.cycles;
        self.total_macs += run.macs;
        run
    }

    /// Times a convolution executed as an implicit GEMM on the mesh.
    ///
    /// Input reuse inside the ksize×ksize window cuts activation DMA
    /// relative to a materialized im2col: the activation tile is fetched
    /// once and windows are formed on the fly (Gemmini's native conv), so
    /// the A-operand traffic is scaled by `1/ksize` (one row of overlap
    /// re-fetch remains).
    pub fn conv(&mut self, shape: ConvShape, mem: &mut MemSystem) -> AccelRun {
        let (m, k, n) = shape.as_gemm();
        let mut run = self.matmul(m, k, n, mem);
        if shape.ksize > 1 {
            // Remove the im2col duplication from DMA accounting.
            let saved = run.dma_bytes - run.dma_bytes / widen(shape.ksize);
            let bw = mem
                .config()
                .bus_bytes_per_cycle
                .min(mem.config().dram_bytes_per_cycle);
            // rose-lint: allow(CAST001, DMA byte counts stay far below 2^53, so the f64 quotient is exact enough; floor-to-u64 is the overlap model's rounding contract)
            let saved_cycles = (saved as f64 / bw * 0.5) as u64; // half was overlapped anyway
            run.dma_bytes -= saved;
            run.cycles = run
                .cycles
                .saturating_sub(saved_cycles)
                .max(run.compute_cycles);
            self.total_cycles = self.total_cycles.saturating_sub(saved_cycles);
        }
        run
    }

    /// Accounts additional activity, used when a previously-timed command
    /// stream (same shape) is replayed from the SoC's cost cache.
    pub fn add_activity(&mut self, cycles: u64, macs: u64) {
        self.total_cycles += cycles;
        self.total_macs += macs;
    }

    /// Marks the end of an accelerator-active region: background bus
    /// pressure from DMA returns to zero.
    pub fn release_bus(&self, mem: &mut MemSystem) {
        mem.bus_mut().set_dma_utilization(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemConfig, MemSystem};

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::default())
    }

    fn model() -> GemminiModel {
        GemminiModel::new(GemminiConfig::default())
    }

    #[test]
    fn peak_rate() {
        assert_eq!(GemminiConfig::default().peak_macs_per_cycle(), 16);
    }

    #[test]
    fn large_matmul_approaches_peak_utilization() {
        let mut g = model();
        let mut m = mem();
        let run = g.matmul(512, 512, 512, &mut m);
        assert_eq!(run.macs, 512 * 512 * 512);
        let util = run.utilization(g.config());
        assert!(
            util > 0.5,
            "large matmul should be >50% utilized, got {util}"
        );
        // Never more cycles of compute than MACs/peak would allow... i.e.
        // utilization cannot exceed 1.
        assert!(util <= 1.0);
    }

    #[test]
    fn tiny_matmul_pays_overheads() {
        let mut g = model();
        let mut m = mem();
        let run = g.matmul(4, 4, 4, &mut m);
        let util = run.utilization(g.config());
        assert!(util < 0.2, "tiny matmul should be overhead-bound: {util}");
        assert!(run.cycles >= GemminiConfig::default().cmd_overhead);
    }

    #[test]
    fn cycles_scale_with_work() {
        let mut g = model();
        let mut m = mem();
        let small = g.matmul(64, 64, 64, &mut m).cycles;
        let big = g.matmul(256, 64, 64, &mut m).cycles;
        let ratio = big as f64 / small as f64;
        assert!((2.0..8.0).contains(&ratio), "4x work ratio {ratio}");
    }

    #[test]
    fn conv_saves_dma_vs_materialized_gemm() {
        let shape = ConvShape {
            in_c: 32,
            out_c: 64,
            out_h: 32,
            out_w: 32,
            ksize: 3,
        };
        let (m, k, n) = shape.as_gemm();
        let mut g1 = model();
        let mut m1 = mem();
        let gemm = g1.matmul(m, k, n, &mut m1);
        let mut g2 = model();
        let mut m2 = mem();
        let conv = g2.conv(shape, &mut m2);
        assert_eq!(conv.macs, shape.macs());
        assert!(conv.dma_bytes < gemm.dma_bytes);
        assert!(conv.cycles <= gemm.cycles);
    }

    #[test]
    fn run_raises_bus_utilization() {
        let mut g = model();
        let mut m = mem();
        g.matmul(64, 2048, 64, &mut m); // DMA-heavy shape
        assert!(m.bus().dma_utilization() > 0.0);
        g.release_bus(&mut m);
        assert_eq!(m.bus().dma_utilization(), 0.0);
    }

    #[test]
    fn activity_counters_accumulate() {
        let mut g = model();
        let mut m = mem();
        g.matmul(32, 32, 32, &mut m);
        g.matmul(32, 32, 32, &mut m);
        assert_eq!(g.total_macs(), 2 * 32 * 32 * 32);
        assert!(g.total_cycles() > 0);
    }

    #[test]
    fn output_stationary_differs() {
        let mut ws = model();
        let mut os = GemminiModel::new(GemminiConfig {
            dataflow: Dataflow::OutputStationary,
            ..GemminiConfig::default()
        });
        let mut m1 = mem();
        let mut m2 = mem();
        // Tall-skinny shape favors one dataflow over the other.
        let a = ws.matmul(1024, 16, 16, &mut m1).compute_cycles;
        let b = os.matmul(1024, 16, 16, &mut m2).compute_cycles;
        assert_ne!(a, b, "dataflows should time differently");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_dim_panics() {
        model().matmul(0, 4, 4, &mut mem());
    }
}

#[cfg(test)]
mod closed_form_tests {
    use super::*;
    use crate::mem::{MemConfig, MemSystem};
    use proptest::prelude::*;

    /// Runs both costing paths from identical initial state and asserts
    /// every observable — the run record, activity counters, bus traffic,
    /// and DMA utilization — is bit-identical.
    fn assert_equivalent(cfg: GemminiConfig, m: usize, k: usize, n: usize) {
        let mut g_closed = GemminiModel::new(cfg);
        let mut g_looped = GemminiModel::new(cfg);
        let mut mem_closed = MemSystem::new(MemConfig::default());
        let mut mem_looped = MemSystem::new(MemConfig::default());
        let closed = g_closed.matmul_closed(m, k, n, &mut mem_closed);
        let looped = g_looped.matmul_looped(m, k, n, &mut mem_looped);
        assert_eq!(closed, looped, "run for {m}x{k}x{n} {cfg:?}");
        assert_eq!(g_closed.total_cycles(), g_looped.total_cycles());
        assert_eq!(g_closed.total_macs(), g_looped.total_macs());
        assert_eq!(
            mem_closed.bus().total_bytes(),
            mem_looped.bus().total_bytes()
        );
        assert_eq!(
            mem_closed.bus().dma_utilization().to_bits(),
            mem_looped.bus().dma_utilization().to_bits()
        );
    }

    /// Builds a configuration from drawn selector indices (the shim has no
    /// value-mapping combinators).
    fn config_from(sel: (usize, usize, usize, usize)) -> GemminiConfig {
        let dim = [2, 4, 8, 16][sel.0 % 4];
        GemminiConfig {
            mesh_rows: dim,
            mesh_cols: dim,
            scratchpad_bytes: [64 * 1024, 256 * 1024, 1024 * 1024][sel.1 % 3],
            accumulator_bytes: [16 * 1024, 64 * 1024, 256 * 1024][sel.2 % 3],
            dataflow: if sel.3.is_multiple_of(2) {
                Dataflow::WeightStationary
            } else {
                Dataflow::OutputStationary
            },
            cmd_overhead: 40,
        }
    }

    proptest! {
        #[test]
        fn closed_form_matches_looped_matmul(
            sel in (0usize..4, 0usize..3, 0usize..3, 0usize..2),
            m in 1usize..2048,
            k in 1usize..512,
            n in 1usize..512,
        ) {
            assert_equivalent(config_from(sel), m, k, n);
        }

        #[test]
        fn closed_form_matches_looped_conv(
            sel in (0usize..4, 0usize..3, 0usize..3, 0usize..2),
            in_c in 1usize..96,
            out_c in 1usize..96,
            out_h in 1usize..64,
            out_w in 1usize..64,
            ksize in 1usize..6,
        ) {
            let cfg = config_from(sel);
            let shape = ConvShape { in_c, out_c, out_h, out_w, ksize };
            let (m, k, n) = shape.as_gemm();
            assert_equivalent(cfg, m, k, n);
            // The conv wrapper's post-processing is a deterministic
            // function of the matmul run, so the closed-form matmul
            // equality above carries over; spot-check the invariants.
            let mut g1 = GemminiModel::new(cfg);
            let mut m1 = MemSystem::new(MemConfig::default());
            let conv = g1.conv(shape, &mut m1);
            prop_assert_eq!(conv.macs, shape.macs());
        }
    }

    #[test]
    fn exact_tile_multiples_have_single_block_class() {
        // Shapes that divide the tiles exactly exercise the rem == tile
        // degenerate classes.
        assert_equivalent(GemminiConfig::default(), 128, 128, 128);
        assert_equivalent(GemminiConfig::default(), 4, 4, 4);
        assert_equivalent(GemminiConfig::default(), 1, 1, 1);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::mem::{MemConfig, MemSystem};

    #[test]
    fn non_multiple_of_mesh_dims_account_all_macs() {
        let mut g = GemminiModel::new(GemminiConfig::default());
        let mut m = MemSystem::new(MemConfig::default());
        // 7x13x5: none divisible by the 4-wide mesh.
        let run = g.matmul(7, 13, 5, &mut m);
        assert_eq!(run.macs, 7 * 13 * 5);
        assert!(run.cycles > 0);
        // Padding waste: utilization strictly below peak.
        assert!(run.utilization(g.config()) < 1.0);
    }

    #[test]
    fn one_by_one_conv_is_a_plain_gemm() {
        let shape = ConvShape {
            in_c: 64,
            out_c: 64,
            out_h: 10,
            out_w: 10,
            ksize: 1,
        };
        let mut g1 = GemminiModel::new(GemminiConfig::default());
        let mut m1 = MemSystem::new(MemConfig::default());
        let conv = g1.conv(shape, &mut m1);
        let (m, k, n) = shape.as_gemm();
        let mut g2 = GemminiModel::new(GemminiConfig::default());
        let mut m2 = MemSystem::new(MemConfig::default());
        let gemm = g2.matmul(m, k, n, &mut m2);
        assert_eq!(conv.cycles, gemm.cycles, "ksize=1 saves nothing");
        assert_eq!(conv.dma_bytes, gemm.dma_bytes);
    }

    #[test]
    fn bigger_mesh_is_faster_on_big_work() {
        let mut small = GemminiModel::new(GemminiConfig::default());
        let mut big = GemminiModel::new(GemminiConfig {
            mesh_rows: 16,
            mesh_cols: 16,
            ..GemminiConfig::default()
        });
        let mut m1 = MemSystem::new(MemConfig::default());
        let mut m2 = MemSystem::new(MemConfig::default());
        let a = small.matmul(512, 512, 512, &mut m1).compute_cycles;
        let b = big.matmul(512, 512, 512, &mut m2).compute_cycles;
        assert!(b * 4 < a, "16x16 ({b}) should be >4x faster than 4x4 ({a})");
    }
}
