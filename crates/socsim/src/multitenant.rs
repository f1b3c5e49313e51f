//! Multi-tenant execution: two target programs time-sharing one core.
//!
//! The paper motivates end-to-end evaluation partly by multi-tenancy:
//! "the performance of each individual accelerator can be heavily impacted
//! by system-level resource contentions where multiple general-purpose
//! cores and accelerators are running together" (§1, citing MoCA).
//! [`TimeShared`] schedules a latency-critical foreground program (the
//! control loop) against a best-effort background program (telemetry
//! compression, logging) on one simulated core:
//!
//! * round-robin interleaving at operation granularity, with a
//!   context-switch kernel charged on every task switch;
//! * **work-conserving blocking**: when the foreground wants to `Recv` and
//!   the bridge RX queue is empty, the background runs instead of letting
//!   the core idle.
//!
//! Bridge I/O belongs to the foreground: delivered messages are routed to
//! it alone (the background is a pure compute task).

use crate::kernel::{ElemKind, Kernel};
use crate::program::{ProgContext, TargetOp, TargetProgram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Scheduling parameters for [`TimeShared`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSharedConfig {
    /// Background ops interleaved per foreground op.
    pub background_ops_per_fg: u32,
    /// Abstract operations charged per context switch.
    pub switch_ops: usize,
}

impl Default for TimeSharedConfig {
    fn default() -> TimeSharedConfig {
        TimeSharedConfig {
            background_ops_per_fg: 1,
            switch_ops: 3_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Foreground,
    Background,
}

/// Two programs time-sharing the core.
pub struct TimeShared {
    foreground: Box<dyn TargetProgram>,
    background: Box<dyn TargetProgram>,
    config: TimeSharedConfig,
    /// Message stashed for the foreground (it owns bridge I/O).
    fg_inbox: Option<Vec<u8>>,
    /// The foreground asked to Recv while the queue was empty.
    fg_wants_recv: bool,
    /// Ops queued by the scheduler (context switches).
    queued: VecDeque<TargetOp>,
    last_task: Task,
    bg_budget: u32,
    /// Count of work-conserving steals (background ran during a would-be
    /// foreground stall).
    steals: u64,
}

impl std::fmt::Debug for TimeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeShared")
            .field("config", &self.config)
            .field("fg_wants_recv", &self.fg_wants_recv)
            .field("steals", &self.steals)
            .finish()
    }
}

impl TimeShared {
    /// Combines a foreground and a background program.
    pub fn new(
        foreground: Box<dyn TargetProgram>,
        background: Box<dyn TargetProgram>,
        config: TimeSharedConfig,
    ) -> TimeShared {
        TimeShared {
            foreground,
            background,
            config,
            fg_inbox: None,
            fg_wants_recv: false,
            queued: VecDeque::new(),
            last_task: Task::Foreground,
            bg_budget: 0,
            steals: 0,
        }
    }

    /// Times the background ran during a foreground stall.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    fn switch_to(&mut self, task: Task) {
        if task != self.last_task && self.config.switch_ops > 0 {
            self.queued.push_back(TargetOp::CpuKernel(Kernel::Control {
                ops: self.config.switch_ops,
            }));
        }
        self.last_task = task;
    }

    fn run_foreground(&mut self, now: u64, rx_available: bool) -> TargetOp {
        let mut ctx = ProgContext::new(now, self.fg_inbox.take()).with_rx_available(rx_available);
        let op = self.foreground.next_op(&mut ctx);
        // Un-consumed message goes back to the stash.
        if let Some(msg) = ctx.take_message() {
            self.fg_inbox = Some(msg);
        }
        op
    }

    fn run_background(&mut self, now: u64) -> TargetOp {
        let mut ctx = ProgContext::new(now, None);
        self.background.next_op(&mut ctx)
    }
}

impl TargetProgram for TimeShared {
    fn next_op(&mut self, ctx: &mut ProgContext) -> TargetOp {
        // Messages from the bridge are foreground property.
        if let Some(msg) = ctx.take_message() {
            self.fg_inbox = Some(msg);
            self.fg_wants_recv = false;
        }
        if let Some(op) = self.queued.pop_front() {
            return op;
        }

        // Deferred foreground Recv: commit once data is actually there.
        if self.fg_wants_recv {
            if ctx.rx_available() {
                self.fg_wants_recv = false;
                self.switch_to(Task::Foreground);
                if let Some(op) = self.queued.pop_front() {
                    self.queued.push_back(TargetOp::Recv);
                    return op;
                }
                return TargetOp::Recv;
            }
            // Work-conserving: let the background use the stall.
            self.steals += 1;
            self.switch_to(Task::Background);
            let op = self.run_background(ctx.now());
            if let Some(queued) = self.queued.pop_front() {
                self.queued.push_back(op);
                return queued;
            }
            return op;
        }

        // Round-robin slice: background gets its budget after each
        // foreground op.
        if self.bg_budget > 0 {
            self.bg_budget -= 1;
            self.switch_to(Task::Background);
            let op = self.run_background(ctx.now());
            if let Some(queued) = self.queued.pop_front() {
                self.queued.push_back(op);
                return queued;
            }
            return op;
        }

        self.switch_to(Task::Foreground);
        let op = self.run_foreground(ctx.now(), ctx.rx_available());
        self.bg_budget = self.config.background_ops_per_fg;
        let op = match op {
            TargetOp::Recv if !ctx.rx_available() => {
                // Don't commit the core to a blocking read yet.
                self.fg_wants_recv = true;
                self.steals += 1;
                self.switch_to(Task::Background);
                self.run_background(ctx.now())
            }
            other => other,
        };
        if let Some(queued) = self.queued.pop_front() {
            self.queued.push_back(op);
            return queued;
        }
        op
    }

    fn name(&self) -> &str {
        "time-shared"
    }
}

/// A best-effort telemetry task: an endless loop compressing and flushing
/// sensor logs (the kind of housekeeping a companion computer runs beside
/// its control loop).
#[derive(Debug)]
pub struct TelemetryTask {
    ops: [TargetOp; 3],
    cursor: usize,
    loops: Arc<AtomicU64>,
}

impl TelemetryTask {
    /// Creates the task; `block_bytes` sets the log block size per loop.
    /// Returns the task and a shared loop counter (its throughput metric).
    pub fn new(block_bytes: usize) -> (TelemetryTask, Arc<AtomicU64>) {
        let loops = Arc::new(AtomicU64::new(0));
        (
            TelemetryTask {
                ops: [
                    TargetOp::CpuKernel(Kernel::Elementwise {
                        n: block_bytes / 4,
                        kind: ElemKind::Add,
                    }),
                    TargetOp::CpuKernel(Kernel::Control {
                        ops: block_bytes / 8,
                    }),
                    TargetOp::CpuKernel(Kernel::Memcpy { bytes: block_bytes }),
                ],
                cursor: 0,
                loops: Arc::clone(&loops),
            },
            loops,
        )
    }
}

impl TargetProgram for TelemetryTask {
    fn next_op(&mut self, _ctx: &mut ProgContext) -> TargetOp {
        let op = self.ops[self.cursor].clone();
        self.cursor = (self.cursor + 1) % self.ops.len();
        if self.cursor == 0 {
            self.loops.fetch_add(1, Ordering::Relaxed);
        }
        op
    }

    fn name(&self) -> &str {
        "telemetry"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocConfig;
    use crate::program::ScriptedProgram;
    use crate::soc::Soc;

    #[test]
    fn telemetry_task_loops_forever() {
        let (mut task, loops) = TelemetryTask::new(4096);
        let mut ctx = ProgContext::default();
        for _ in 0..9 {
            let op = task.next_op(&mut ctx);
            assert!(matches!(op, TargetOp::CpuKernel(_)));
        }
        assert_eq!(loops.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn background_fills_foreground_stalls() {
        // Foreground: recv (no data ever arrives) — alone, the core would
        // be 100% idle; with a background task, it computes instead.
        let fg = ScriptedProgram::new(vec![TargetOp::Recv]);
        let (bg, loops) = TelemetryTask::new(4096);
        let shared = TimeShared::new(Box::new(fg), Box::new(bg), TimeSharedConfig::default());
        let mut soc = Soc::new(SocConfig::config_a(), Box::new(shared));
        soc.run_cycles(20_000_000);
        let stats = soc.stats();
        assert!(
            loops.load(Ordering::Relaxed) > 10,
            "telemetry should run during the stall"
        );
        assert!(
            (stats.idle_cycles as f64) < 0.2 * stats.cycles as f64,
            "core should be mostly busy: idle {} of {}",
            stats.idle_cycles,
            stats.cycles
        );
    }

    #[test]
    fn foreground_io_still_works_under_sharing() {
        let fg = ScriptedProgram::new(vec![TargetOp::Recv, TargetOp::Send(vec![42])]);
        let (bg, _) = TelemetryTask::new(4096);
        let shared = TimeShared::new(Box::new(fg), Box::new(bg), TimeSharedConfig::default());
        let mut soc = Soc::new(SocConfig::config_a(), Box::new(shared));
        soc.run_cycles(5_000_000);
        assert!(soc.bridge_mut().host_drain_tx().is_empty());
        soc.bridge_mut().host_push_rx(vec![1, 2, 3]);
        soc.run_cycles(20_000_000);
        let tx = soc.bridge_mut().host_drain_tx();
        assert_eq!(tx, vec![vec![42]], "foreground reply should surface");
    }

    #[test]
    fn context_switches_are_charged() {
        let fg = ScriptedProgram::new(vec![
            TargetOp::Sleep(10),
            TargetOp::Sleep(10),
            TargetOp::Sleep(10),
        ]);
        let (bg, _) = TelemetryTask::new(1024);
        let shared = TimeShared::new(
            Box::new(fg),
            Box::new(bg),
            TimeSharedConfig {
                background_ops_per_fg: 1,
                switch_ops: 10_000,
            },
        );
        let mut soc = Soc::new(SocConfig::config_a(), Box::new(shared));
        soc.run_cycles(50_000_000);
        // With large switch costs the core burns real cycles on switching:
        // CPU instruction count far exceeds the telemetry/Sleep work alone.
        assert!(soc.stats().cpu.instrs > 50_000);
    }
}
