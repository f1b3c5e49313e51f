//! Integration tests for the classical-MPC extension (paper §6):
//! data-dependent solver runtime observed through the full co-simulation.

use rose::mission::MissionConfig;
use rose::mpc::{run_mpc_mission, MpcConfig};
use rose_socsim::SocConfig;

#[test]
fn mpc_completes_tunnel() {
    let mission = MissionConfig {
        initial_yaw_deg: 20.0,
        max_sim_seconds: 45.0,
        ..MissionConfig::default()
    };
    let r = run_mpc_mission(&mission, MpcConfig::default());
    assert!(r.completed, "MPC should complete the tunnel");
    assert_eq!(r.collisions, 0, "MPC tracks the centerline cleanly");
    assert!(
        r.metrics.commands() > 50,
        "commands {}",
        r.metrics.commands()
    );
}

#[test]
fn solver_iterations_are_state_dependent_in_the_loop() {
    let run = |yaw: f64| {
        run_mpc_mission(
            &MissionConfig {
                initial_yaw_deg: yaw,
                max_sim_seconds: 30.0,
                ..MissionConfig::default()
            },
            MpcConfig::default(),
        )
    };
    let centered = run(0.0);
    let angled = run(20.0);
    assert!(
        angled.metrics.mean_iterations() > 3.0 * centered.metrics.mean_iterations(),
        "angled {} vs centered {} mean iterations",
        angled.metrics.mean_iterations(),
        centered.metrics.mean_iterations()
    );
    // The extra iterations are visible as latency on the SoC.
    assert!(
        angled.mean_latency_ms > centered.mean_latency_ms,
        "angled {} ms vs centered {} ms",
        angled.mean_latency_ms,
        centered.mean_latency_ms
    );
}

#[test]
fn slower_core_amplifies_data_dependent_latency() {
    let run = |soc: SocConfig| {
        run_mpc_mission(
            &MissionConfig {
                soc,
                initial_yaw_deg: 20.0,
                max_sim_seconds: 30.0,
                ..MissionConfig::default()
            },
            MpcConfig::default(),
        )
    };
    let boom = run(SocConfig::config_a());
    let rocket = run(SocConfig::config_b());
    assert!(
        rocket.mean_latency_ms > boom.mean_latency_ms,
        "Rocket {} ms vs BOOM {} ms",
        rocket.mean_latency_ms,
        boom.mean_latency_ms
    );
}
