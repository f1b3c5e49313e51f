//! Deployment-equivalence tests: the co-simulation behaves identically
//! whether the RTL side is in-process or behind a TCP transport (the
//! paper's cloud/on-premise deployments, Table 4), because the lockstep
//! protocol delivers data at the same sync boundaries either way.

use rose::audit::MissionDigest;
use rose::mission::{run_mission, run_remote_mission, MissionConfig, MissionReport};
use rose_bridge::faults::FaultPlan;
use rose_bridge::transport::TcpTransport;
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
