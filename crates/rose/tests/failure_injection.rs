//! Mission-level robustness acceptance (DESIGN.md §4h).
//!
//! A mission flown over a fault-injected transport must degrade
//! gracefully, never wedge:
//!
//! * recoverable faults (duplicates, stalls, transient disconnects) are
//!   absorbed by the sequenced retry protocol — the flight is
//!   bit-identical to a clean run, and to itself run to run;
//! * lossy faults (drops, corruption) cost the application a degraded
//!   iteration via the RX watchdog and the degradation ladder, but the
//!   mission still completes, deterministically;
//! * an exhausted recovery policy latches and winds the mission down at a
//!   sync boundary with a postmortem naming the fault; and
//! * a sustained sensor blackout walks the ladder to a deliberate clean
//!   abort.

use rose::audit::MissionDigest;
use rose::mission::{run_mission, run_mission_multitenant, run_mission_with_faults, MissionConfig};
use rose::snapshot::Mission;
use rose_bridge::faults::{FaultKind, FaultPlan};
use rose_bridge::sync::RecoveryPolicy;
use rose_sim_core::math::Vec3;
use rose_socsim::multitenant::TimeSharedConfig;
use rose_trace::json;

/// A mission short enough for CI but long enough to reach the goal
/// (50 m at 3 m/s ≈ 17.6 s simulated).
fn completing() -> MissionConfig {
    MissionConfig {
        max_sim_seconds: 25.0,
        ..MissionConfig::default()
    }
}

#[test]
fn recoverable_faults_are_absorbed_bit_identically() {
    // Only kinds the retry protocol makes transparent: duplicated data is
    // deduplicated by sequence number, stalled receives and a transient
    // mid-flight disconnect are retried/resynced.
    let plan = || {
        FaultPlan::new(0xFA17)
            .with_event(180, FaultKind::Duplicate)
            .with_event(360, FaultKind::Stall { ops: 2 })
            .with_event(450, FaultKind::Disconnect { ops: 2 })
    };
    let clean = MissionDigest::of(&run_mission(&completing()));

    // Flown twice: the SoC serves from its own thread in this topology,
    // so the second flight checks run-to-run determinism.
    let mut digests = Vec::new();
    for run in 0..2 {
        let outcome = run_mission_with_faults(&completing(), plan());
        assert_eq!(
            outcome.latched, None,
            "run {run}: transient faults must not latch"
        );
        assert!(!outcome.aborted, "run {run}: no degradation armed");
        assert!(
            outcome.report.completed,
            "run {run}: the mission must still reach the goal"
        );
        let stats = outcome.fault_stats;
        assert_eq!(stats.duplicated, 1);
        assert!(stats.stalled_ops >= 1);
        assert!(stats.disconnected_ops >= 1);
        // Absorbing the faults cost retries, attributed on the host side —
        // never to the simulated system.
        assert!(
            outcome.recovery.retries >= 1,
            "run {run}: recovery must have retried, stats {:?}",
            outcome.recovery
        );
        assert_eq!(outcome.report.app.lost_responses, 0);
        digests.push(MissionDigest::of(&outcome.report));
    }

    // Same seed ⇒ bit-identical flight run to run, and identical to the
    // fault-free run: recoverable faults are unobservable to the
    // simulated system.
    assert_eq!(
        digests[0], digests[1],
        "same plan, same seed, different flight"
    );
    assert_eq!(
        digests[0], clean,
        "fault absorption perturbed the simulated mission"
    );
}

#[test]
fn lossy_faults_degrade_deterministically_and_the_mission_still_completes() {
    // Every kind at once, including the lossy ones: a dropped sensor
    // response is gone (the server's dedupe floor jumps past it), so the
    // SoC's RX watchdog fires and the application flies that iteration
    // degraded instead of wedging forever.
    let plan = || {
        FaultPlan::new(0xD01)
            .with_event(120, FaultKind::Drop)
            .with_event(180, FaultKind::Duplicate)
            .with_event(240, FaultKind::Reorder)
            .with_event(300, FaultKind::Corrupt)
            .with_event(360, FaultKind::Stall { ops: 2 })
            .with_event(450, FaultKind::Disconnect { ops: 2 })
    };

    let outcome = run_mission_with_faults(&completing(), plan());
    assert_eq!(outcome.latched, None);
    assert!(
        outcome.report.completed,
        "a lost packet must degrade, not wedge"
    );
    let stats = outcome.fault_stats;
    assert_eq!(stats.dropped, 1);
    assert_eq!(stats.corrupted, 1);
    // The dropped response tripped the watchdog exactly once.
    assert_eq!(
        outcome.report.app.lost_responses, 1,
        "app metrics {:?}",
        outcome.report.app
    );

    // And the perturbed flight is repeatable run-to-run.
    let again = run_mission_with_faults(&completing(), plan());
    assert_eq!(
        MissionDigest::of(&again.report),
        MissionDigest::of(&outcome.report),
        "same plan, same seed, different flight"
    );
}

#[test]
fn exhausted_recovery_latches_and_winds_down_cleanly() {
    let config = MissionConfig {
        max_sim_seconds: 5.0,
        // A policy tight enough that a long outage exhausts it quickly.
        recovery: RecoveryPolicy {
            max_retries: 2,
            backoff_base: 1,
            backoff_cap: 2,
        },
        ..MissionConfig::default()
    };
    // An outage far longer than the policy tolerates.
    let plan = FaultPlan::new(1).with_event(60, FaultKind::Disconnect { ops: 100_000 });
    let outcome = run_mission_with_faults(&config, plan);
    assert!(
        outcome.latched.is_some(),
        "an unsurvivable outage must latch"
    );
    assert!(!outcome.report.completed, "the mission wound down early");
    // The wind-down is orderly: exactly one transport-fault postmortem
    // names the failure instead of a panic or a hang — the recorder dumps
    // once per failure, not once per sync.
    let reasons: Vec<_> = outcome
        .report
        .postmortems
        .iter()
        .map(|pm| {
            json::parse(pm)
                .expect("postmortem is valid JSON")
                .get("reason")
                .and_then(|v| v.as_str())
                .map(str::to_owned)
        })
        .collect();
    assert_eq!(
        reasons
            .iter()
            .filter(|r| r.as_deref() == Some("transport-fault"))
            .count(),
        1,
        "postmortems: {reasons:?}"
    );
}

/// A config whose sensors degrade mid-flight: a depth blackout window and
/// an IMU bias step, with tracing on so the digest covers event ordering.
fn degraded() -> MissionConfig {
    MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        depth_blackouts: vec![(0.5, 0.9)],
        imu_bias_steps: vec![(0.3, Vec3::new(0.02, -0.01, 0.0))],
        controller: rose::app::ControllerChoice::dynamic_default(),
        ..MissionConfig::default()
    }
}

#[test]
fn degraded_mission_survives_snapshot_and_resume_bit_identically() {
    let config = degraded();
    let straight = MissionDigest::of(&run_mission(&config));
    // Boundaries before, inside, and after the blackout window.
    for boundary in [1, 40, 70] {
        let mut mission = Mission::start(&config);
        mission.run_syncs(boundary);
        let resumed = mission.snapshot().resume().expect("snapshot must resume");
        assert_eq!(
            MissionDigest::of(&resumed.run_to_completion()),
            straight,
            "divergence after snapshot at sync {boundary}"
        );
    }
}

/// A flight whose depth sensor dies for good, so the degradation ladder
/// reaches its abort rung about a second after the blackout starts.
fn aborting() -> MissionConfig {
    MissionConfig {
        max_sim_seconds: 20.0,
        controller: rose::app::ControllerChoice::dynamic_default(),
        // The depth sensor dies at t=1 s and never comes back...
        depth_blackouts: vec![(1.0, 1e9)],
        // ...so after 10 consecutive degraded iterations the application
        // requests a clean abort.
        degraded_abort_streak: 10,
        ..MissionConfig::default()
    }
}

/// The number of `mission-abort` postmortems in a report.
fn abort_postmortems(report: &rose::mission::MissionReport) -> usize {
    report
        .postmortems
        .iter()
        .filter(|pm| {
            json::parse(pm)
                .expect("postmortem is valid JSON")
                .get("reason")
                .and_then(|v| v.as_str())
                == Some("mission-abort")
        })
        .count()
}

#[test]
fn sustained_blackout_walks_the_ladder_to_a_clean_abort() {
    let config = aborting();
    let report = run_mission(&config);
    assert!(report.app.abort_requested, "the ladder must reach the abort rung");
    assert!(!report.completed, "an aborted mission does not reach the goal");
    assert!(report.app.degraded_depth >= 10);
    // The abort is documented, not silent.
    assert_eq!(abort_postmortems(&report), 1, "exactly one abort postmortem");
}

#[test]
fn multitenant_mission_stops_at_the_abort_rung() {
    // A background tenant sharing the core must not hide the control
    // loop's abort request: the mission flies the same loop and stops.
    let (report, _) = run_mission_multitenant(&aborting(), TimeSharedConfig::default(), 64 * 1024);
    assert!(
        report.app.abort_requested,
        "the ladder must reach the abort rung"
    );
    assert!(
        !report.completed,
        "an aborted mission does not reach the goal"
    );
    assert_eq!(
        abort_postmortems(&report),
        1,
        "exactly one abort postmortem"
    );
}

#[test]
fn resumed_mission_still_stops_at_the_abort_rung() {
    let config = aborting();
    let straight = run_mission(&config);
    assert!(straight.app.abort_requested);
    // Snapshot half a second in, well before the blackout, and resume:
    // the resumed flight must take the same abort, not fly on to the
    // time wall.
    let mut mission = Mission::start(&config);
    mission.run_syncs(30);
    let resumed = mission
        .snapshot()
        .resume()
        .expect("snapshot must resume")
        .run_to_completion();
    assert!(resumed.app.abort_requested);
    assert_eq!(resumed.sim_time_s, straight.sim_time_s);
    assert_eq!(abort_postmortems(&resumed), 1, "the resumed run documents its abort");
    assert_eq!(MissionDigest::of(&resumed), MissionDigest::of(&straight));
}
