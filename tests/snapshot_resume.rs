//! Snapshot / fork / resume correctness, enforced at tier 1.
//!
//! The contract (DESIGN.md §4e): a mission snapshotted at **any** quantum
//! boundary and resumed must produce a [`MissionDigest`] bit-identical to
//! the straight run — trajectory, SoC counters, and trace ordering. Any
//! divergence means a component carries hidden state its
//! `save_state`/`restore_state` pair misses.

use proptest::prelude::*;
use rose::audit::MissionDigest;
use rose::mission::{run_mission, MissionConfig};
use rose::snapshot::Mission;
use rose_sim_core::fnv::fnv64;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

fn short() -> MissionConfig {
    // 0.25 simulated seconds = 15 quantum boundaries: several inferences,
    // live bridge queues, warm caches — yet cheap enough for 96 property
    // cases in tier 1.
    MissionConfig {
        max_sim_seconds: 0.25,
        // The smallest network keeps host-side inference cheap in debug
        // builds; the snapshot surface it exercises is the same.
        controller: rose::app::ControllerChoice::Static(rose_dnn::DnnModel::ResNet6),
        trace: true,
        ..MissionConfig::default()
    }
}

/// The straight-run digest, computed once and shared across all property
/// cases (the reference every resumed run must hit).
fn straight_digest() -> MissionDigest {
    static STRAIGHT: OnceLock<MissionDigest> = OnceLock::new();
    *STRAIGHT.get_or_init(|| MissionDigest::of(&run_mission(&short())))
}

/// Runs one fork-and-resume evaluation: snapshot at `boundary`, assert
/// the snapshot re-serializes byte-identically after a round-trip, then
/// run the branch out and return its digest. Pure in its inputs, so
/// results are memoized — proptest draws boundaries with replacement,
/// and a debug-build mission costs ~0.5 s of cold-cache warm-up each.
fn resumed_digest(boundary: u64) -> MissionDigest {
    static CACHE: Mutex<BTreeMap<u64, MissionDigest>> = Mutex::new(BTreeMap::new());
    if let Some(&hit) = CACHE.lock().unwrap().get(&boundary) {
        return hit;
    }
    let config = short();
    let mut mission = Mission::start(&config);
    mission.run_syncs(boundary);
    let snap = mission.snapshot();
    let resumed = snap.resume().expect("snapshot must resume");
    assert_eq!(
        resumed.snapshot().bytes(),
        snap.bytes(),
        "round-trip not byte-identical at boundary {boundary}"
    );
    let digest = MissionDigest::of(&resumed.run_to_completion());
    CACHE.lock().unwrap().insert(boundary, digest);
    digest
}

/// The snapshot format, pinned byte for byte: the snapshot of an untraced
/// `short()` mission at boundary 8 must hash to this constant. Untraced,
/// because a traced snapshot carries host wall times in its `sync-quantum`
/// event args. A codec change that moves one byte fails here even when it
/// round-trips; bump `MissionSnapshot::VERSION` with any deliberate change.
#[test]
fn snapshot_bytes_are_pinned() {
    let config = MissionConfig {
        trace: false,
        ..short()
    };
    let mut mission = Mission::start(&config);
    assert_eq!(mission.run_syncs(8), 8);
    let snap = mission.snapshot();
    assert_eq!(fnv64(snap.bytes()), 0xfcbc_0c0d_29fc_680f);
}

proptest! {
    /// Fork a real mission at a random quantum boundary, resume the
    /// branch, run it out: the digest must equal the straight run's, and
    /// the snapshot must re-serialize byte-identically after the
    /// round-trip (serialize → deserialize → serialize).
    #[test]
    fn fork_at_any_boundary_is_bit_identical(boundary in 0u64..16) {
        let digest = resumed_digest(boundary);
        prop_assert!(
            digest == straight_digest(),
            "resume at boundary {boundary} diverged"
        );
    }
}
