//! The cross-run determinism contract, enforced at tier 1.
//!
//! Identical [`MissionConfig`]s must produce bit-identical missions —
//! trajectory, SoC counters, and trace ordering. Each quantum runs on one
//! thread, so [`SyncMode`] is an inert name; both of its values are still
//! audited, and compared with each other, to prove the field cannot reach
//! the simulation. The static half of the contract (no wall clocks, no
//! unordered maps, no truncating casts) is enforced by
//! `cargo run -p rose-lint`; this file is the dynamic half.

use rose::audit::{audit_determinism, MissionDigest};
use rose::mission::{run_mission, MissionConfig};
use rose_bridge::sync::SyncMode;

fn short(sync_mode: SyncMode) -> MissionConfig {
    MissionConfig {
        max_sim_seconds: 2.0,
        sync_mode,
        trace: true,
        ..MissionConfig::default()
    }
}

/// The headline acceptance check: two runs of the default mission (whose
/// `sync_mode` is `Parallel`) digest bit-identically on every surface.
#[test]
fn parallel_mission_is_bit_identical_across_runs() {
    let outcome = audit_determinism(&short(SyncMode::Parallel));
    assert!(
        outcome.identical(),
        "parallel mission diverged on {:?}: {:?} vs {:?}",
        outcome.diverged_surfaces(),
        outcome.first,
        outcome.second
    );
}

#[test]
fn sequential_mission_is_bit_identical_across_runs() {
    let outcome = audit_determinism(&short(SyncMode::Sequential));
    assert!(
        outcome.identical(),
        "sequential mission diverged on {:?}",
        outcome.diverged_surfaces()
    );
}

/// The inert `sync_mode` field cannot reach the simulation: one mission
/// digested under Sequential equals the same mission under Parallel.
#[test]
fn sync_modes_produce_the_same_simulation() {
    let seq = MissionDigest::of(&run_mission(&short(SyncMode::Sequential)));
    let par = MissionDigest::of(&run_mission(&short(SyncMode::Parallel)));
    assert_eq!(
        seq, par,
        "SyncMode must be unobservable to the simulated system"
    );
}

/// The behavioural oracle: the 2-s traced default mission digests to the
/// values `profile_mission --determinism --seconds 2` prints. A change
/// that moves any simulated surface must move this test too.
#[test]
fn default_mission_digests_to_the_oracle() {
    let digest = MissionDigest::of(&run_mission(&MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        ..MissionConfig::default()
    }));
    assert_eq!(
        digest,
        MissionDigest {
            trajectory: 0xd6aa_a15e_745b_7b96,
            soc: 0x2701_1a3d_fd2f_285f,
            trace: 0x0ce9_724b_132b_4221,
        }
    );
    assert_eq!(digest.combined(), 0x7b55_3455_7bc6_159d);
}

/// Digests are sensitive, not vacuous: a different seed moves the
/// trajectory digest (sensor noise perturbs the flight), and a longer
/// mission moves the trace digest (more events on the timeline). The SoC
/// and trace surfaces are deliberately NOT expected to move with the
/// seed alone — the cost model is data-independent, so the same workload
/// schedule produces the same counters regardless of where the UAV flew.
#[test]
fn digests_detect_a_perturbed_mission() {
    let base = short(SyncMode::Parallel);
    let a = MissionDigest::of(&run_mission(&base));
    let reseeded = MissionDigest::of(&run_mission(&MissionConfig {
        seed: base.seed ^ 0xdead_beef,
        ..base.clone()
    }));
    assert_ne!(a.trajectory, reseeded.trajectory);
    let longer = MissionDigest::of(&run_mission(&MissionConfig {
        max_sim_seconds: 3.0,
        ..base
    }));
    assert_ne!(a.trace, longer.trace);
    assert_ne!(a.soc, longer.soc);
}

/// Every `span_begin*` in a real traced mission has a matching
/// `span_end*` on the same track — the dynamic TRACE001 check, replayed
/// over an actual mission rather than a synthetic log.
#[test]
fn replayed_mission_has_no_unpaired_spans() {
    let report = run_mission(&short(SyncMode::Parallel));
    let log = report.trace.as_ref().expect("trace requested");
    let defects = log.unpaired_spans();
    assert!(defects.is_empty(), "unpaired spans: {defects:?}");
    // The paired-span instrumentation is actually present (the SoC opens
    // one soc-grant span per grant), so the check above is not vacuously
    // passing over a span-free log.
    let begins = log
        .events()
        .iter()
        .filter(|e| e.name == "soc-grant" && e.kind == rose_trace::EventKind::Begin)
        .count();
    let ends = log
        .events()
        .iter()
        .filter(|e| e.name == "soc-grant" && e.kind == rose_trace::EventKind::End)
        .count();
    assert!(begins > 0, "no soc-grant spans recorded");
    assert_eq!(begins, ends);
}
