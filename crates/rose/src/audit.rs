//! The cross-run determinism auditor.
//!
//! RoSÉ's evaluation methodology rests on repeatability: "FireSim itself
//! is deterministic" (Artifact §A.7), and every stochastic element of this
//! reproduction draws from the seeded [`SimRng`](rose_sim_core::SimRng)
//! streams, so the same [`MissionConfig`] must reproduce the same mission
//! **bit-exactly** — including in deployments that put the SoC behind a
//! transport: served inline under fault injection
//! ([`run_mission_with_faults`](crate::mission::run_mission_with_faults))
//! or from its own thread ([`run_remote_mission`](crate::mission::run_remote_mission)).
//! The static `rose-lint` pass catches the violations a lexer can see
//! (wall-clock reads, hash-map iteration, truncating casts); this module
//! is the dynamic complement that catches what it cannot: real data races,
//! unsynchronized accumulation order, or allocator-address leakage would
//! all perturb the digest of one run out of two.
//!
//! The audit runs the same config twice with tracing enabled and compares
//! FNV-1a digests of three independent surfaces:
//!
//! 1. the **trajectory** (every `f64` by bit pattern),
//! 2. the **SoC counters** ([`SocStats`], every architectural event count),
//! 3. the **merged trace log's simulated-time ordering** (track, name,
//!    timestamp, kind — deliberately *excluding* event args, which carry
//!    wall-clock measurements that legitimately differ between runs).

use crate::mission::{run_mission, MissionConfig, MissionReport};
use rose_sim_core::fnv::Fnv64;
use rose_socsim::soc::SocStats;
use rose_trace::{EventKind, TraceLog};

/// The per-surface digests of one mission run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissionDigest {
    /// FNV-1a over the per-frame trajectory (bit-exact floats).
    pub trajectory: u64,
    /// FNV-1a over the SoC's architectural counters.
    pub soc: u64,
    /// FNV-1a over the merged trace log's simulated-time ordering.
    pub trace: u64,
}

impl MissionDigest {
    /// Digests one finished mission report.
    pub fn of(report: &MissionReport) -> MissionDigest {
        MissionDigest {
            trajectory: trajectory_digest(report),
            soc: soc_digest(&report.soc_stats),
            trace: report.trace.as_ref().map_or(0, trace_digest),
        }
    }

    /// The three surfaces folded into one value (what the CLI prints).
    pub fn combined(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.trajectory)
            .write_u64(self.soc)
            .write_u64(self.trace);
        h.finish()
    }
}

/// Digest of the flight path: time, position, velocity, yaw, and collision
/// state of every frame, all by IEEE-754 bit pattern.
fn trajectory_digest(report: &MissionReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(report.trajectory.len() as u64);
    for p in &report.trajectory {
        h.write_f64(p.t)
            .write_f64(p.position.x)
            .write_f64(p.position.y)
            .write_f64(p.position.z)
            .write_f64(p.velocity.x)
            .write_f64(p.velocity.y)
            .write_f64(p.velocity.z)
            .write_f64(p.yaw)
            .write_u64(p.in_collision as u64);
    }
    h.finish()
}

/// Digest of every architectural counter the SoC exposes.
fn soc_digest(stats: &SocStats) -> u64 {
    let mut h = Fnv64::new();
    for v in [
        stats.cycles,
        stats.idle_cycles,
        stats.accel_cycles,
        stats.accel_macs,
        stats.cpu.instrs,
        stats.cpu.cycles,
        stats.cpu.mispredicts,
        stats.l1.hits,
        stats.l1.misses,
        stats.l1.writebacks,
        stats.l2.hits,
        stats.l2.misses,
        stats.l2.writebacks,
        stats.bridge.rx_msgs,
        stats.bridge.rx_bytes,
        stats.bridge.tx_msgs,
        stats.bridge.tx_bytes,
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// Digest of the merged trace log's simulated-time ordering: track, name,
/// timestamp, and kind of every event, in merged order.
///
/// Event **args are excluded on purpose**: `sync-quantum` spans carry
/// `env_wall_us`/`rtl_wall_us` measurements that differ between runs by
/// design (they time the host, not the simulation). Everything else about
/// an event — where it landed on the simulated timeline and what it was —
/// must be identical.
fn trace_digest(log: &TraceLog) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(log.len() as u64);
    for event in log.events() {
        h.write_u64(event.track.tid() as u64);
        h.write_str(event.name);
        h.write_f64(event.ts_us);
        match event.kind {
            EventKind::Complete { dur_us } => {
                h.write_u64(1).write_f64(dur_us);
            }
            EventKind::Begin => {
                h.write_u64(2);
            }
            EventKind::End => {
                h.write_u64(3);
            }
            EventKind::Instant => {
                h.write_u64(4);
            }
            EventKind::Counter { value } => {
                h.write_u64(5).write_f64(value);
            }
        }
    }
    h.finish()
}

/// The outcome of a two-run determinism audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Digests of the first run.
    pub first: MissionDigest,
    /// Digests of the second run.
    pub second: MissionDigest,
}

impl AuditOutcome {
    /// True when every surface digested bit-identically.
    pub fn identical(&self) -> bool {
        self.first == self.second
    }

    /// Names of the surfaces that diverged (empty when identical).
    pub fn diverged_surfaces(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.first.trajectory != self.second.trajectory {
            out.push("trajectory");
        }
        if self.first.soc != self.second.soc {
            out.push("soc-stats");
        }
        if self.first.trace != self.second.trace {
            out.push("trace-ordering");
        }
        out
    }
}

/// Runs `config` twice (tracing forced on so the trace surface is always
/// audited) and compares the digests. Any divergence is a determinism bug:
/// same seed, same config, different bits.
pub fn audit_determinism(config: &MissionConfig) -> AuditOutcome {
    let traced = MissionConfig {
        trace: true,
        ..config.clone()
    };
    let first = MissionDigest::of(&run_mission(&traced));
    let second = MissionDigest::of(&run_mission(&traced));
    AuditOutcome { first, second }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(config: MissionConfig) -> MissionConfig {
        // 2 simulated seconds: long enough for seeded sensor noise to
        // accumulate into a visibly different flight (the seed-divergence
        // test below needs that), short enough to stay cheap.
        MissionConfig {
            max_sim_seconds: 2.0,
            trace: true,
            ..config
        }
    }

    #[test]
    fn identical_runs_digest_identically() {
        let config = short(MissionConfig::default());
        let a = MissionDigest::of(&run_mission(&config));
        let b = MissionDigest::of(&run_mission(&config));
        assert_eq!(a, b);
        assert_eq!(a.combined(), b.combined());
    }

    #[test]
    fn different_seeds_digest_differently() {
        let base = short(MissionConfig::default());
        let a = MissionDigest::of(&run_mission(&base));
        let b = MissionDigest::of(&run_mission(&MissionConfig { seed: 1234, ..base }));
        assert_ne!(a.trajectory, b.trajectory, "seed must perturb the flight");
    }

    #[test]
    fn timing_cache_is_digest_invisible() {
        // The §4i contract end to end: a cold mission, a recording
        // mission (cold expansion + disk writes), and a fully warm replay
        // from a reloaded cache file must digest bit-identically.
        use rose_socsim::SharedTimingCache;

        let path = std::env::temp_dir().join(format!(
            "rose-audit-timing-cache-{}.snap",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let base = short(MissionConfig::default());
        let cold = MissionDigest::of(&run_mission(&base));

        let recording = SharedTimingCache::load(&path);
        let populated = MissionDigest::of(&run_mission(&MissionConfig {
            timing_cache: Some(recording.clone()),
            ..base.clone()
        }));
        assert!(!recording.is_empty(), "cold run should record entries");
        recording.persist().expect("cache file writes");

        let reloaded = SharedTimingCache::load(&path);
        assert_eq!(reloaded.len(), recording.len());
        let warm = MissionDigest::of(&run_mission(&MissionConfig {
            timing_cache: Some(reloaded.clone()),
            ..base
        }));
        let (hits, _) = reloaded.counters();
        assert!(hits > 0, "warm run should replay cached entries");

        assert_eq!(cold, populated, "recording must not perturb");
        assert_eq!(cold, warm, "replay must not perturb");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn accelerator_design_points_share_timing_cache_entries() {
        // The fingerprint leaves the Gemmini parameters out, and the key
        // leaves out the counters an accelerator op moves, so a second
        // design point replays every CPU-kernel expansion the first one
        // recorded — it expands nothing cold and adds no entry — and
        // still flies exactly its own cold mission.
        use rose_socsim::{SharedTimingCache, SocConfig};

        let base = short(MissionConfig::default());
        let cache = SharedTimingCache::in_memory();
        run_mission(&MissionConfig {
            soc: SocConfig::config_a().with_mesh(4),
            timing_cache: Some(cache.clone()),
            ..base.clone()
        });
        assert!(!cache.is_empty(), "mesh-4 run should record entries");
        let entries = cache.len();
        let (hits_before, misses_before) = cache.counters();

        let point = MissionConfig {
            soc: SocConfig::config_a()
                .with_mesh(16)
                .with_scratchpad(128 * 1024),
            ..base
        };
        let cold = MissionDigest::of(&run_mission(&point));
        let shared = MissionDigest::of(&run_mission(&MissionConfig {
            timing_cache: Some(cache.clone()),
            ..point
        }));
        let (hits, misses) = cache.counters();
        assert!(
            hits > hits_before,
            "mesh-16 run should replay mesh-4 entries"
        );
        assert_eq!(misses, misses_before, "mesh-16 run expanded a kernel cold");
        assert_eq!(cache.len(), entries, "mesh-16 run added an entry");
        assert_eq!(cold, shared, "shared entries must not perturb");
    }

    #[test]
    fn diverged_surfaces_name_the_difference() {
        let config = short(MissionConfig::default());
        let a = MissionDigest::of(&run_mission(&config));
        let mut b = a;
        b.trajectory ^= 1;
        let outcome = AuditOutcome {
            first: a,
            second: b,
        };
        assert!(!outcome.identical());
        assert_eq!(outcome.diverged_surfaces(), vec!["trajectory"]);
    }
}
