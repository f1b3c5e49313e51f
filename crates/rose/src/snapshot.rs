//! Mission snapshot and resume (DESIGN.md §4e).
//!
//! A [`MissionSnapshot`] is a compact, versioned, dependency-free
//! serialization of the **entire** co-simulation state at a quantum
//! boundary: the environment (UAV pose, dynamics integrator, sensor RNG
//! streams), the SoC (CPU/cache/accelerator counters, cost caches, the
//! in-flight program position), the bridge queues, the synchronizer
//! position, and every component's trace prefix. Resuming a snapshot and
//! running to completion produces a [`crate::audit::MissionDigest`]
//! **bit-identical** to the straight run, which is the correctness gate
//! the determinism auditor enforces.
//!
//! # Format
//!
//! ```text
//! section "ROSE" | u16 version | MissionConfig | CoSimEnv | SocRtl | Synchronizer
//! ```
//!
//! The snapshot embeds its [`MissionConfig`], so it is self-contained:
//! resume rebuilds the mission *structure* (boxed programs, worlds,
//! autopilots, interned labels) from the config exactly as
//! [`Mission::start`] does, then overlays the dynamic state field by
//! field. Structural state never travels in the byte stream — only
//! state that changes as the mission runs.
//!
//! # Warm-starting sweeps
//!
//! The expensive prefix of every mission is identical within one SoC
//! configuration: boot, first frames, cache and cost-model warm-up. A
//! sweep (e.g. the Figure 10 trajectory study) can run that prefix
//! *once*, [`Mission::snapshot`] it, and [`MissionSnapshot::resume`] one
//! branch per sweep point, perturbing each branch (initial yaw, gains)
//! before running it to completion. Branches resumed from one snapshot
//! share no state.

use crate::app::AppMetrics;
use crate::envside::CoSimEnv;
use crate::mission::{build_mission, fly_mission, MissionConfig, MissionReport};
use crate::rtlside::SocRtl;
use rose_bridge::sync::Synchronizer;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::sync::{Arc, Mutex};

/// A running (or paused) mission: the full co-simulation plus its
/// configuration, steppable in units of synchronization periods and
/// snapshottable at any quantum boundary.
#[derive(Debug)]
pub struct Mission {
    config: MissionConfig,
    sync: Synchronizer<CoSimEnv, SocRtl>,
    metrics: Arc<Mutex<AppMetrics>>,
}

impl Mission {
    /// Builds a mission at its initial state (nothing executed yet).
    pub fn start(config: &MissionConfig) -> Mission {
        let (sync, metrics) = build_mission(config);
        Mission {
            config: config.clone(),
            sync,
            metrics,
        }
    }

    /// The mission's configuration.
    pub fn config(&self) -> &MissionConfig {
        &self.config
    }

    /// Synchronization periods executed so far.
    pub fn syncs_executed(&self) -> u64 {
        self.sync.stats().syncs
    }

    /// Runs up to `n` synchronization periods, stopping early at mission
    /// completion or an SoC halt. Returns the number executed.
    pub fn run_syncs(&mut self, n: u64) -> u64 {
        self.sync.run_until(n, |env| env.sim().mission_complete())
    }

    /// Runs until the mission completes, the SoC halts, the application
    /// requests an abort, or the simulated time wall
    /// ([`MissionConfig::max_sim_seconds`]) is reached, then extracts the
    /// report. This is the loop [`crate::mission::run_mission`] flies,
    /// with a fresh flight recorder. Periods already executed (including
    /// those executed before a snapshot was taken) count against the
    /// wall.
    pub fn run_to_completion(self) -> MissionReport {
        fly_mission(&self.config, self.sync, &self.metrics, |rtl| rtl)
    }

    /// Rotates the UAV in place by `dyaw` radians — the divergence knob
    /// for forked sweep branches.
    pub fn perturb_yaw(&mut self, dyaw: f64) {
        self.sync.env_mut().sim_mut().perturb_yaw(dyaw);
    }

    /// Serializes the complete co-simulation state. Valid at any quantum
    /// boundary (between [`run_syncs`](Mission::run_syncs) calls).
    pub fn snapshot(&self) -> MissionSnapshot {
        let mut w = SnapWriter::new();
        w.section(MissionSnapshot::MAGIC);
        w.u16(MissionSnapshot::VERSION);
        self.config.save_state(&mut w);
        self.sync.env().save_state(&mut w);
        self.sync.rtl().save_state(&mut w);
        self.sync.save_state(&mut w);
        MissionSnapshot {
            bytes: w.into_bytes(),
        }
    }
}

/// A serialized mission: the byte-level snapshot format. See the module
/// docs for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissionSnapshot {
    bytes: Vec<u8>,
}

impl MissionSnapshot {
    /// Leading section magic: `"ROSE"` in big-endian byte order.
    pub const MAGIC: u32 = 0x524f_5345;
    /// Newest format version this build reads and writes. Version 2 added
    /// [`MissionConfig::deadline_budget_s`] and the app's cumulative
    /// deadline-miss counter to the embedded config/metrics codecs.
    /// Version 3 added the robustness state: sensor-degradation schedules
    /// and the recovery policy in the config codec, the environment's
    /// bias-step cursor, and the app's degradation-ladder state.
    /// Version 4 dropped the stored copies of derived counters: the
    /// synchronizer's clock position (its progress counters hold it), the
    /// environment's frame counter (its trajectory length), the bridge's
    /// queued-byte counts (the queues' sums), and the app's inference and
    /// command counters (its latency list and classical-command count).
    pub const VERSION: u16 = 4;

    /// The raw snapshot bytes (e.g. for writing to a checkpoint file).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Takes ownership of the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Wraps bytes read back from a checkpoint file. Validation is
    /// deferred to [`resume`](MissionSnapshot::resume) /
    /// [`config`](MissionSnapshot::config), which fail with a
    /// [`SnapError`] on a corrupt or foreign buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> MissionSnapshot {
        MissionSnapshot { bytes }
    }

    /// Decodes just the embedded [`MissionConfig`] (header + config
    /// prefix), without rebuilding the mission.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on a corrupt header or config.
    pub fn config(&self) -> Result<MissionConfig, SnapError> {
        let mut r = SnapReader::new(&self.bytes);
        Self::read_header(&mut r)?;
        MissionConfig::restore_state(&mut r)
    }

    /// Rebuilds the mission: constructs the structure from the embedded
    /// config, then overlays every component's dynamic state. The
    /// returned [`Mission`] continues bit-identically to the mission the
    /// snapshot was taken from.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on a corrupt, truncated, version-mismatched, or
    /// trailing-byte-carrying buffer.
    pub fn resume(&self) -> Result<Mission, SnapError> {
        let mut r = SnapReader::new(&self.bytes);
        Self::read_header(&mut r)?;
        let config = MissionConfig::restore_state(&mut r)?;
        let (mut sync, metrics) = build_mission(&config);
        sync.env_mut().restore_state(&mut r)?;
        sync.rtl_mut().restore_state(&mut r)?;
        sync.restore_state(&mut r)?;
        r.finish()?;
        Ok(Mission {
            config,
            sync,
            metrics,
        })
    }

    fn read_header(r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section(Self::MAGIC)?;
        let version = r.u16()?;
        if version != Self::VERSION {
            return Err(SnapError::BadVersion {
                supported: Self::VERSION as u32,
                found: version as u32,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::MissionDigest;
    use crate::mission::run_mission;
    use rose_bridge::sync::SyncMode;

    fn short() -> MissionConfig {
        MissionConfig {
            max_sim_seconds: 2.0,
            trace: true,
            ..MissionConfig::default()
        }
    }

    fn resumed_report(config: &MissionConfig, snapshot_at_syncs: u64) -> MissionReport {
        let mut mission = Mission::start(config);
        mission.run_syncs(snapshot_at_syncs);
        let snap = mission.snapshot();
        let resumed = snap.resume().expect("snapshot must resume");
        resumed.run_to_completion()
    }

    #[test]
    fn resume_is_bit_identical() {
        let config = short();
        let straight = MissionDigest::of(&run_mission(&config));
        for boundary in [0, 1, 17, 60] {
            let report = resumed_report(&config, boundary);
            // Across the resume, both simulators advanced by exactly the
            // synchronizer's counted grants.
            assert_eq!(report.sync_stats.sim_cycles, report.soc_stats.cycles);
            assert_eq!(report.sync_stats.sim_frames, report.trajectory.len() as u64);
            assert_eq!(
                MissionDigest::of(&report),
                straight,
                "divergence after snapshot at sync {boundary}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let config = short();
        let mut mission = Mission::start(&config);
        mission.run_syncs(25);
        let first = mission.snapshot();
        let resumed = first.resume().expect("resume");
        let second = resumed.snapshot();
        assert_eq!(
            first.bytes(),
            second.bytes(),
            "serialize → deserialize → serialize must be byte-identical"
        );
    }

    #[test]
    fn snapshot_config_decodes_without_resume() {
        // The inert sync_mode still travels as its snapshot byte; the
        // non-default value proves the decode does not assume the default.
        let config = MissionConfig {
            sync_mode: SyncMode::Sequential,
            ..short()
        };
        let mission = Mission::start(&config);
        let snap = mission.snapshot();
        assert_eq!(snap.config().expect("config decodes"), config);
    }

    #[test]
    fn forked_branches_run_independently() {
        let config = short();
        let mut mission = Mission::start(&config);
        mission.run_syncs(20);
        let snap = mission.snapshot();
        let mut digests = Vec::new();
        for dyaw in [None, Some(0.3)] {
            let mut branch = snap.resume().expect("resume");
            if let Some(dyaw) = dyaw {
                branch.perturb_yaw(dyaw);
            }
            digests.push(MissionDigest::of(&branch.run_to_completion()));
        }
        // The unperturbed branch reproduces the straight run...
        assert_eq!(digests[0], MissionDigest::of(&run_mission(&config)));
        // ...and the perturbed branch flies a different trajectory.
        assert_ne!(digests[0].trajectory, digests[1].trajectory);
    }

    /// Every fieldless enum the snapshot stores as a tag, table-driven:
    /// each variant writes its index as its byte and reads back, and the
    /// first unused byte is rejected with the enum's own context.
    #[test]
    fn every_enum_tag_round_trips_and_rejects_the_next_byte() {
        use rose_sim_core::snap::SnapTag;
        use std::fmt::Debug;

        fn check<T: SnapTag + PartialEq + Debug>(variants: &[T]) {
            for (i, v) in variants.iter().enumerate() {
                let mut w = SnapWriter::new();
                w.tag(v);
                let bytes = w.into_bytes();
                assert_eq!(bytes, [i as u8], "{} byte of {v:?}", T::CONTEXT);
                assert_eq!(SnapReader::new(&bytes).tag::<T>().as_ref(), Ok(v));
            }
            let unused = variants.len() as u8;
            assert_eq!(
                SnapReader::new(&[unused]).tag::<T>(),
                Err(SnapError::BadTag {
                    context: T::CONTEXT,
                    tag: unused
                })
            );
        }

        use crate::app::State;
        use rose_envsim::WorldKind;
        use rose_socsim::config::CoreKind;
        use rose_socsim::gemmini::Dataflow;
        use rose_socsim::kernel::ElemKind;
        check(&rose_dnn::DnnModel::all());
        check(&[WorldKind::Tunnel, WorldKind::SShape, WorldKind::Slalom]);
        check(&[CoreKind::Rocket, CoreKind::Boom]);
        check(&[Dataflow::WeightStationary, Dataflow::OutputStationary]);
        check(&[
            ElemKind::Relu,
            ElemKind::BatchNorm,
            ElemKind::Add,
            ElemKind::Bias,
        ]);
        check(&[SyncMode::Sequential, SyncMode::Parallel]);
        check(&[
            State::RequestDepth,
            State::AwaitDepth,
            State::RequestImage,
            State::AwaitImage,
            State::Inference,
            State::SendCommand,
        ]);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let config = short();
        let mission = Mission::start(&config);
        let snap = mission.snapshot();

        // Wrong magic.
        let mut bad = snap.bytes().to_vec();
        bad[0] ^= 0xFF;
        assert!(MissionSnapshot::from_bytes(bad).resume().is_err());

        // Unsupported version.
        let mut bad = snap.bytes().to_vec();
        bad[4] = 0xFF;
        assert!(matches!(
            MissionSnapshot::from_bytes(bad).resume(),
            Err(SnapError::BadVersion { .. })
        ));

        // The previous layout is refused by its version, not misparsed.
        let mut bad = snap.bytes().to_vec();
        bad[4..6].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(
            MissionSnapshot::from_bytes(bad).resume(),
            Err(SnapError::BadVersion {
                supported: 4,
                found: 3
            })
        ));

        // Truncation anywhere in the stream.
        let mut bad = snap.bytes().to_vec();
        bad.truncate(bad.len() / 2);
        assert!(MissionSnapshot::from_bytes(bad).resume().is_err());

        // Trailing garbage.
        let mut bad = snap.bytes().to_vec();
        bad.push(0);
        assert!(matches!(
            MissionSnapshot::from_bytes(bad).resume(),
            Err(SnapError::TrailingBytes { .. })
        ));

        // A zero frame rate or sync period in the embedded config is an
        // error, not a panic while the mission is rebuilt from it.
        for crafted in [
            MissionConfig {
                frame_hz: 0,
                ..short()
            },
            MissionConfig {
                frames_per_sync: 0,
                ..short()
            },
        ] {
            assert!(matches!(
                with_config(&snap, &crafted).resume(),
                Err(SnapError::BadTag { tag: 0, .. })
            ));
        }
    }

    /// `snap` with its embedded config replaced by `crafted`. The fields
    /// crafted here are fixed-width, so the rest of the stream still lines
    /// up.
    fn with_config(snap: &MissionSnapshot, crafted: &MissionConfig) -> MissionSnapshot {
        let header_and = |config: &MissionConfig| {
            let mut w = SnapWriter::new();
            w.section(MissionSnapshot::MAGIC);
            w.u16(MissionSnapshot::VERSION);
            config.save_state(&mut w);
            w.into_bytes()
        };
        let original = snap.config().expect("config decodes");
        let mut bytes = header_and(crafted);
        bytes.extend_from_slice(&snap.bytes()[header_and(&original).len()..]);
        MissionSnapshot::from_bytes(bytes)
    }

    /// A cache geometry `Cache::new` refuses is a decode error, not a
    /// panic while the SoC is rebuilt.
    #[test]
    fn degenerate_cache_geometry_is_rejected() {
        let snap = Mission::start(&short()).snapshot();
        let mut crafted = short();
        crafted.soc.mem.l1d.ways = 0;
        assert!(with_config(&snap, &crafted).resume().is_err());
    }

    /// A zero mesh dimension is a decode error, not a division by zero in
    /// the tile model after the mission resumes.
    #[test]
    fn degenerate_accelerator_mesh_is_rejected() {
        let snap = Mission::start(&short()).snapshot();
        let mut crafted = short();
        let gemmini = crafted.soc.gemmini.as_mut().expect("config A has one");
        gemmini.mesh_rows = 0;
        assert!(with_config(&snap, &crafted).resume().is_err());
    }
}
