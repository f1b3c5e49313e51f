//! Integration tests for multi-tenant core sharing.

use rose::mission::{run_mission, run_mission_multitenant, MissionConfig};
use rose_socsim::multitenant::TimeSharedConfig;

#[test]
fn telemetry_tenant_recovers_idle_cycles() {
    let mission = MissionConfig {
        max_sim_seconds: 30.0,
        ..MissionConfig::default()
    };
    let solo = run_mission(&mission);
    let (shared, telemetry) =
        run_mission_multitenant(&mission, TimeSharedConfig::default(), 64 * 1024);

    assert!(
        shared.completed,
        "mission must still complete under sharing"
    );
    assert!(telemetry > 1000, "telemetry blocks {telemetry}");
    let idle_solo = solo.soc_stats.idle_cycles as f64 / solo.soc_stats.cycles as f64;
    let idle_shared = shared.soc_stats.idle_cycles as f64 / shared.soc_stats.cycles as f64;
    assert!(
        idle_shared < idle_solo * 0.5,
        "sharing should absorb idle: {idle_shared} vs {idle_solo}"
    );
}

#[test]
fn heavier_background_share_inflates_control_latency() {
    let mission = MissionConfig {
        max_sim_seconds: 30.0,
        ..MissionConfig::default()
    };
    let (light, _) = run_mission_multitenant(
        &mission,
        TimeSharedConfig {
            background_ops_per_fg: 1,
            ..TimeSharedConfig::default()
        },
        64 * 1024,
    );
    let (heavy, _) = run_mission_multitenant(
        &mission,
        TimeSharedConfig {
            background_ops_per_fg: 6,
            ..TimeSharedConfig::default()
        },
        64 * 1024,
    );
    assert!(
        heavy.mean_latency_ms > light.mean_latency_ms,
        "heavy share {} ms vs light {} ms",
        heavy.mean_latency_ms,
        light.mean_latency_ms
    );
}
