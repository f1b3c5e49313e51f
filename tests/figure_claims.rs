//! Integration tests pinning the qualitative claims of each evaluation
//! figure (the "shape" targets of EXPERIMENTS.md).

use rose::app::ControllerChoice;
use rose::mission::{run_mission, MissionConfig, MissionReport};
use rose_dnn::DnnModel;
use rose_envsim::WorldKind;

fn s_shape(model: DnnModel, velocity: f64) -> MissionReport {
    run_mission(&MissionConfig {
        world: WorldKind::SShape,
        velocity,
        controller: ControllerChoice::Static(model),
        max_sim_seconds: 60.0,
        ..MissionConfig::default()
    })
}

/// Figure 11: ResNet6 cannot complete s-shape cleanly, ResNet14 can, and
/// ResNet34's capacity/latency combination degrades flight again.
#[test]
fn fig11_dnn_sweep_shape() {
    let r6 = s_shape(DnnModel::ResNet6, 9.0);
    let r14 = s_shape(DnnModel::ResNet14, 9.0);
    let r34 = s_shape(DnnModel::ResNet34, 9.0);
    assert!(
        r6.collisions >= 5,
        "ResNet6 should collide repeatedly, got {}",
        r6.collisions
    );
    assert!(
        r14.collisions <= 1,
        "ResNet14 should fly (nearly) clean, got {}",
        r14.collisions
    );
    assert!(
        r34.collisions > r14.collisions,
        "ResNet34 ({}) should be worse than ResNet14 ({})",
        r34.collisions,
        r14.collisions
    );
    // ResNet14 has (close to) the shortest mission time among safe nets.
    let t14 = r14.mission_time_s.unwrap();
    let t34 = r34.mission_time_s.unwrap_or(f64::INFINITY);
    assert!(t14 < t34, "R14 {t14} vs R34 {t34}");
}

/// Figure 12: 6 m/s is safe, 9 m/s is fastest-safe, 12 m/s violates
/// deadlines and collides.
#[test]
fn fig12_velocity_sweep_shape() {
    let v6 = s_shape(DnnModel::ResNet14, 6.0);
    let v9 = s_shape(DnnModel::ResNet14, 9.0);
    let v12 = s_shape(DnnModel::ResNet14, 12.0);
    assert_eq!(v6.collisions, 0, "6 m/s should be the safest");
    assert!(v9.collisions <= 1);
    assert!(
        v9.mission_time_s.unwrap() < v6.mission_time_s.unwrap(),
        "9 m/s completes faster than 6 m/s"
    );
    assert!(
        v12.collisions >= 3,
        "12 m/s should collide (deadline violations), got {}",
        v12.collisions
    );
}

/// Figure 14: the Rocket-hosted SoC is never better than the BOOM-hosted
/// one for the same network, and suffers more at the small-model end.
#[test]
fn fig14_hw_sw_codesign_shape() {
    for model in [DnnModel::ResNet6, DnnModel::ResNet14] {
        let boom = s_shape(model, 9.0);
        let rocket = run_mission(&MissionConfig {
            soc: rose_socsim::SocConfig::config_b(),
            world: WorldKind::SShape,
            velocity: 9.0,
            controller: ControllerChoice::Static(model),
            max_sim_seconds: 60.0,
            ..MissionConfig::default()
        });
        let tb = boom.mission_time_s.unwrap_or(f64::INFINITY);
        let tr = rocket.mission_time_s.unwrap_or(f64::INFINITY);
        assert!(
            tr >= tb * 0.95,
            "{model}: Rocket ({tr}) should not beat BOOM ({tb})"
        );
        assert!(
            rocket.mean_latency_ms > boom.mean_latency_ms,
            "{model}: Rocket latency should exceed BOOM's"
        );
    }
}

/// Figure 16: coarser synchronization inflates the observed
/// image-request → response latency and eventually destabilizes the
/// flight.
#[test]
fn fig16_sync_granularity_latency() {
    let run = |frames_per_sync: u64| {
        run_mission(&MissionConfig {
            frame_hz: 100,
            frames_per_sync,
            initial_yaw_deg: 20.0,
            max_sim_seconds: 45.0,
            ..MissionConfig::default()
        })
    };
    let fine = run(1); // 10M cycles/sync
    let mid = run(10); // 100M
    let coarse = run(40); // 400M

    // Latency grows with granularity.
    assert!(
        fine.mean_latency_ms < mid.mean_latency_ms,
        "{} < {}",
        fine.mean_latency_ms,
        mid.mean_latency_ms
    );
    assert!(
        mid.mean_latency_ms < coarse.mean_latency_ms,
        "{} < {}",
        mid.mean_latency_ms,
        coarse.mean_latency_ms
    );
    // At 10M cycles the latency sits slightly above the pure compute
    // latency (~107 ms on config A): within ~40% of it.
    assert!(
        (100.0..160.0).contains(&fine.mean_latency_ms),
        "fine-grained latency {}",
        fine.mean_latency_ms
    );
    // At 400M cycles it is ~3-4x the ideal.
    assert!(
        coarse.mean_latency_ms > 2.5 * fine.mean_latency_ms,
        "coarse {} vs fine {}",
        coarse.mean_latency_ms,
        fine.mean_latency_ms
    );
    // The fine-grained flight is clean; the coarse one degrades.
    assert_eq!(fine.collisions, 0);
    assert!(coarse.collisions > 0 || coarse.mission_time_s.is_none());
}

/// Trajectories with identical initial conditions diverge once the sync
/// granularity changes (Figure 16 a/b).
#[test]
fn fig16_trajectory_divergence() {
    let run = |frames_per_sync: u64| {
        run_mission(&MissionConfig {
            frame_hz: 100,
            frames_per_sync,
            initial_yaw_deg: 20.0,
            max_sim_seconds: 10.0,
            ..MissionConfig::default()
        })
    };
    let a = run(1);
    let b = run(20);
    let n = a.trajectory.len().min(b.trajectory.len());
    let max_gap = (0..n)
        .map(|i| (a.trajectory[i].position - b.trajectory[i].position).norm())
        .fold(0.0f64, f64::max);
    assert!(
        max_gap > 0.05,
        "trajectories should diverge, max gap {max_gap}"
    );
}
