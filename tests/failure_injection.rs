//! Failure injection: the co-simulation must degrade gracefully, not
//! panic, when garbage enters the data path (artifact robustness).

use rose::mission::{build_mission, MissionConfig};
use rose_bridge::sync::RtlSide;

/// Corrupt packets injected into the SoC's RX queue mid-flight are
/// ignored by the application (undecodable messages) and the mission
/// still completes.
#[test]
fn corrupt_rx_packets_do_not_crash_the_soc() {
    let config = MissionConfig {
        max_sim_seconds: 45.0,
        ..MissionConfig::default()
    };
    let (mut sync, metrics) = build_mission(&config);
    let mut injected = 0;
    for step in 0..(45 * 60) {
        if sync.env().sim().mission_complete() {
            break;
        }
        // Every ~2 s, slip a garbage payload into the bridge RX queue.
        if step % 120 == 60 {
            sync.rtl_mut().push_data(vec![0xff, 0x00, 0xba, 0xad]);
            injected += 1;
        }
        sync.step_sync();
    }
    assert!(injected > 5, "injected {injected} corrupt packets");
    assert!(
        sync.env().sim().mission_complete(),
        "mission should survive corrupt packets"
    );
    assert!(metrics.lock().inferences() > 50);
}

/// Corrupt packets flowing towards the environment are counted and
/// dropped rather than killing the synchronizer.
#[test]
fn corrupt_env_packets_are_counted() {
    use rose_bridge::sync::EnvSide;
    let config = MissionConfig {
        max_sim_seconds: 5.0,
        ..MissionConfig::default()
    };
    let (mut sync, _metrics) = build_mission(&config);
    sync.run_syncs(30);
    let responses = sync.env_mut().handle_data(&[0x99, 0x99, 0x99]);
    assert!(responses.is_empty());
    assert_eq!(sync.env().decode_errors(), 1);
    // The loop keeps going afterwards.
    sync.run_syncs(30);
    assert!(sync.env().sim().pose().position.x > 0.5);
}

/// Extreme velocity commands are clamped by the flight controller's
/// limits: the UAV never leaves the physically plausible envelope.
#[test]
fn hostile_commands_stay_bounded() {
    use rose::message::AppMessage;
    use rose_bridge::sync::EnvSide;
    let config = MissionConfig {
        max_sim_seconds: 10.0,
        ..MissionConfig::default()
    };
    let (mut sync, _metrics) = build_mission(&config);
    // Inject an absurd command directly at the environment endpoint.
    sync.env_mut().handle_data(
        &AppMessage::Command {
            forward: 1e9,
            lateral: -1e9,
            yaw_rate: 1e9,
            altitude: 1e9,
        }
        .encode(),
    );
    sync.run_syncs(300);
    let pose = sync.env().sim().pose();
    assert!(pose.position.is_finite(), "position exploded: {pose:?}");
    // Velocity is limited by thrust and drag, not the command.
    assert!(
        pose.velocity.norm() < 60.0,
        "velocity {} m/s is unphysical",
        pose.velocity.norm()
    );
}
