//! Host wall-clock self-profiler: scoped, phase-keyed time attribution.
//!
//! A speed-up needs a target, and a slow run needs an explanation: where
//! does *host* time go — the environment, the RTL grant loop, the SoC's
//! cost model, fault recovery, or the tracing layer itself? This module
//! answers that with a fixed-size per-phase accumulator, cheap enough to
//! leave always on. The synchronizer times each period as three laps of
//! one [`Stopwatch`] (env-step, rtl-grant, trace-overhead) and carves
//! `recovery` and `cost-model` out of the grant, so the phases add up to
//! the wall time of the synchronization periods
//! (`profile_mission --profile` prints the table).
//!
//! # The digest-exclusion contract
//!
//! Wall-clock readings are host-dependent and **never** enter the
//! determinism digest or a mission snapshot (DESIGN.md §4d/§4f) — the
//! same contract the sync-quantum span args already follow. To keep that
//! auditable, the `DET001` lint flags every direct `std::time::Instant`
//! / `SystemTime` read outside this module: all wall-clock sampling
//! funnels through [`Stopwatch`], whose readings are digest-excluded by
//! construction.

use std::fmt;
use std::time::{Duration, Instant};

/// A host-time attribution phase. One bucket per major co-simulation
/// cost center.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The environment simulator's work: stepping its frames (dynamics,
    /// physics substeps), and draining and answering the SoC's packets
    /// at the sync boundary (camera render, sensor reads).
    EnvStep,
    /// The RTL grant: queueing the boundary's data towards the SoC and
    /// running it for one quantum's worth of cycles (for a remote SoC,
    /// the transport's round trips too).
    RtlGrant,
    /// Trace recording and quantum bookkeeping overhead.
    TraceOverhead,
    /// Transport-fault recovery: retries, reconnects, and resync
    /// handshakes absorbed by the synchronizer's recovery policy (carved
    /// out of the RTL grant it interrupted).
    Recovery,
    /// Timing-model evaluation inside the SoC: kernel expansion,
    /// closed-form accelerator costing, and timing-cache lookups (carved
    /// out of the RTL grant that triggered it, so `rtl-grant` is left
    /// measuring pure cycle-loop work).
    CostModel,
}

/// Number of phases (array backing size).
const PHASES: usize = 5;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASES] = [
        Phase::EnvStep,
        Phase::RtlGrant,
        Phase::TraceOverhead,
        Phase::Recovery,
        Phase::CostModel,
    ];

    /// The phase's stable display name (also the bench-JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::EnvStep => "env-step",
            Phase::RtlGrant => "rtl-grant",
            Phase::TraceOverhead => "trace-overhead",
            Phase::Recovery => "recovery",
            Phase::CostModel => "cost-model",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::EnvStep => 0,
            Phase::RtlGrant => 1,
            Phase::TraceOverhead => 2,
            Phase::Recovery => 3,
            Phase::CostModel => 4,
        }
    }
}

/// A started wall-clock measurement. The **only** sanctioned way to read
/// host time — see the module docs and the `DET001` lint.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Wall time elapsed since [`start`](Stopwatch::start).
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Wall time since the previous lap (or the start), restarting the
    /// measurement from now. Consecutive laps tile the timeline: no
    /// instant between two laps goes unmeasured or is counted twice.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.0;
        self.0 = now;
        lap
    }
}

/// Per-phase host wall-time totals and call counts.
///
/// Plain data, deliberately *not* scope-guard based: the co-simulation's
/// phases interleave across closures and threads, so call sites measure
/// a [`Stopwatch`] and attribute the `Duration` explicitly with
/// [`add`](Profiler::add). The accumulator
/// itself is telemetry: excluded from snapshots and the determinism
/// digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profiler {
    totals: [Duration; PHASES],
    counts: [u64; PHASES],
}

impl Profiler {
    /// An empty profile.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Attributes `wall` to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, wall: Duration) {
        let i = phase.index();
        self.totals[i] += wall;
        self.counts[i] += 1;
    }

    /// Total wall time attributed to `phase`.
    pub fn total(&self, phase: Phase) -> Duration {
        self.totals[phase.index()]
    }

    /// Number of attributions made to `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Wall time summed over every phase.
    pub fn total_wall(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// True when nothing has been attributed.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Renders the per-phase attribution table shown by
    /// `profile_mission --profile`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let total = self.total_wall().as_secs_f64();
        out.push_str("phase           total-ms      calls     avg-us    share\n");
        for phase in Phase::ALL {
            let t = self.total(phase).as_secs_f64();
            let n = self.count(phase);
            let avg_us = if n == 0 { 0.0 } else { t * 1e6 / n as f64 };
            let share = if total > 0.0 { t / total * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "{:<15} {:>8.3} {:>10} {:>10.1} {:>7.1}%\n",
                phase.name(),
                t * 1e3,
                n,
                avg_us,
                share
            ));
        }
        out.push_str(&format!("{:<15} {:>8.3}\n", "total", total * 1e3));
        out
    }
}

impl fmt::Display for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_independently() {
        let mut p = Profiler::new();
        assert!(p.is_empty());
        p.add(Phase::EnvStep, Duration::from_micros(100));
        p.add(Phase::EnvStep, Duration::from_micros(50));
        p.add(Phase::TraceOverhead, Duration::from_micros(25));
        assert_eq!(p.total(Phase::EnvStep), Duration::from_micros(150));
        assert_eq!(p.count(Phase::EnvStep), 2);
        assert_eq!(p.total(Phase::TraceOverhead), Duration::from_micros(25));
        assert_eq!(p.total(Phase::RtlGrant), Duration::ZERO);
        assert_eq!(p.total_wall(), Duration::from_micros(175));
        assert!(!p.is_empty());
    }

    #[test]
    fn laps_tile_the_elapsed_time() {
        let total = Stopwatch::start();
        let mut laps = total;
        let first = laps.lap();
        std::thread::sleep(Duration::from_millis(2));
        let second = laps.lap();
        assert!(second >= Duration::from_millis(2));
        // Every lap ends where the next begins, so the laps never add up
        // to more than one reading of the whole span.
        assert!(first + second <= total.elapsed());
    }

    #[test]
    fn table_lists_every_phase_with_shares() {
        let mut p = Profiler::new();
        p.add(Phase::EnvStep, Duration::from_millis(3));
        p.add(Phase::RtlGrant, Duration::from_millis(1));
        let table = p.render_table();
        for phase in Phase::ALL {
            assert!(table.contains(phase.name()), "missing {}", phase.name());
        }
        assert!(table.contains("75.0%"));
        assert!(table.contains("25.0%"));
        // Display goes through the same renderer.
        assert_eq!(p.to_string(), table);
    }
}
