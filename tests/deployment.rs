//! Deployment-equivalence tests: the co-simulation behaves identically
//! whether the RTL side is in-process or behind a TCP transport (the
//! paper's cloud/on-premise deployments, Table 4), because the lockstep
//! protocol delivers data at the same sync boundaries either way.

use rose::audit::MissionDigest;
use rose::mission::{
    run_mission, run_mission_with_faults, run_remote_mission, FaultedMissionReport, MissionConfig,
    MissionReport,
};
use rose_bridge::faults::{FaultKind, FaultPlan};
use rose_bridge::sync::RecoveryPolicy;
use rose_bridge::transport::{ChannelTransport, TcpTransport};
use rose_trace::{json, Phase};
use std::net::TcpListener;

/// Flies `config` with the SoC served over a loopback TCP connection.
fn run_over_tcp(config: &MissionConfig) -> MissionReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = TcpTransport::connect(listener.local_addr().expect("addr")).expect("connect");
    let server = TcpTransport::accept(&listener).expect("accept");
    let outcome = run_remote_mission(config, client, server, FaultPlan::default());
    assert_eq!(
        outcome.latched, None,
        "a clean loopback link must not fault"
    );
    outcome.report
}

/// TCP and in-process deployments fly bit-identical missions: the same
/// trajectory and the same SoC counters.
#[test]
fn tcp_deployment_is_bit_identical_to_local() {
    let config = MissionConfig {
        max_sim_seconds: 4.0,
        ..MissionConfig::default()
    };
    let local = run_mission(&config);
    let remote = run_over_tcp(&config);
    assert_eq!(remote.trajectory.len(), local.trajectory.len());
    assert_eq!(remote.sync_stats.syncs, local.sync_stats.syncs);
    assert_eq!(MissionDigest::of(&remote), MissionDigest::of(&local));
}

/// The remote deployment still closes the control loop (commands arrive).
#[test]
fn tcp_deployment_closes_the_loop() {
    let config = MissionConfig {
        initial_yaw_deg: 20.0,
        max_sim_seconds: 6.0,
        ..MissionConfig::default()
    };
    let report = run_over_tcp(&config);
    let x_last = report
        .trajectory
        .last()
        .expect("nonempty trajectory")
        .position
        .x;
    assert!(x_last > 5.0, "UAV should be flying forward, x = {x_last}");
}

/// The fast path checked against the slow one: `run_mission_with_faults`
/// serves the SoC inline on the calling thread, and must fly exactly the
/// mission of the SoC served from its own thread over a channel pair,
/// fault for fault and retry for retry.
#[test]
fn inline_faulted_mission_matches_the_threaded_server() {
    let config = MissionConfig {
        max_sim_seconds: 2.0,
        ..MissionConfig::default()
    };
    let recoverable = FaultPlan::new(0xFA17)
        .with_event(20, FaultKind::Duplicate)
        .with_event(40, FaultKind::Stall { ops: 2 })
        .with_event(60, FaultKind::Disconnect { ops: 3 });
    let lossy = FaultPlan::new(0xFA18)
        .with_event(20, FaultKind::Drop)
        .with_event(40, FaultKind::Reorder)
        .with_event(60, FaultKind::Corrupt);
    let latching = FaultPlan::new(0xFA19).with_event(30, FaultKind::Disconnect { ops: 3 });
    let unrecovered = MissionConfig {
        recovery: RecoveryPolicy::disabled(),
        ..config.clone()
    };

    for (name, config, plan) in [
        ("recoverable", &config, recoverable),
        ("lossy", &config, lossy),
        ("latching", &unrecovered, latching),
    ] {
        let inline = run_mission_with_faults(config, plan.clone());
        let (client, server) = ChannelTransport::pair();
        let threaded = run_remote_mission(config, client, server, plan);
        let outcome = |run: &FaultedMissionReport| {
            (
                MissionDigest::of(&run.report),
                run.fault_stats,
                run.recovery,
                run.latched.clone(),
                run.aborted,
            )
        };
        assert_eq!(outcome(&inline), outcome(&threaded), "{name} plan");
        assert!(inline.fault_stats.total() > 0, "{name}: nothing injected");
        assert_eq!(inline.latched.is_some(), name == "latching", "{name}");
        if name == "recoverable" {
            assert!(
                inline.recovery.recovered >= 1,
                "{name}: {:?}",
                inline.recovery
            );
        }
    }
}

/// A SoC served inline books its cost-model wall to `cost-model`, as the
/// in-process mission does, instead of hiding it in `rtl-grant`. The
/// default config carries no timing cache, so both flights are cold and
/// expand kernels.
#[test]
fn inline_faulted_mission_books_the_cost_model() {
    let config = MissionConfig {
        max_sim_seconds: 4.0,
        ..MissionConfig::default()
    };
    let local = run_mission(&config);
    let inline = run_mission_with_faults(&config, FaultPlan::default());
    for (name, report) in [("in-process", &local), ("inline", &inline.report)] {
        assert!(
            report.profile.count(Phase::CostModel) > 0
                && !report.profile.total(Phase::CostModel).is_zero(),
            "{name} booked no cost-model wall"
        );
    }
    assert_eq!(MissionDigest::of(&inline.report), MissionDigest::of(&local));
}

/// A SoC served inline shows its trace events to the flight recorder, as
/// the in-process mission does: both flights' postmortems carry the same
/// SoC events and the same attribution.
#[test]
fn inline_faulted_mission_postmortems_carry_soc_events() {
    let config = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        deadline_budget_s: 0.05,
        ..MissionConfig::default()
    };
    let local = run_mission(&config);
    let inline = run_mission_with_faults(&config, FaultPlan::default());
    assert!(!local.postmortems.is_empty(), "the budget must be missed");
    assert_eq!(inline.report.postmortems.len(), local.postmortems.len());
    let soc_side = |postmortem: &str| {
        let parsed = json::parse(postmortem).expect("postmortem is valid JSON");
        let field = |key| parsed.get(key).cloned().expect(key);
        (
            field("reason"),
            field("recent_events"),
            field("attribution"),
        )
    };
    for (local, inline) in local.postmortems.iter().zip(&inline.report.postmortems) {
        let local = soc_side(local);
        let events = local.1.as_array().expect("an event array");
        assert!(!events.is_empty(), "the in-process SoC recorded events");
        assert_eq!(soc_side(inline), local);
    }
}
