//! Property-based tests of the environment simulator's physical
//! invariants.

use proptest::prelude::*;
use rose_envsim::api::VelocityTarget;
use rose_envsim::dynamics::{MotorCommand, QuadrotorBody, QuadrotorParams, RigidBodyState};
use rose_envsim::uav::{Autopilot, UavSim, UavSimConfig};
use rose_envsim::world::{World, P2};
use rose_flightctl::SimpleFlight;
use rose_sim_core::math::Vec3;
use rose_sim_core::rng::SimRng;

proptest! {
    /// The rigid body never produces NaNs or leaves the ground plane
    /// downward, for arbitrary (clamped) motor commands.
    #[test]
    fn dynamics_stay_finite(cmds in proptest::collection::vec(
        (0.0f64..1.5, 0.0f64..1.5, 0.0f64..1.5, 0.0f64..1.5), 1..200)) {
        let p = QuadrotorParams::default();
        let mut body = QuadrotorBody::new(
            p,
            RigidBodyState {
                position: Vec3::new(0.0, 0.0, 2.0),
                ..RigidBodyState::default()
            },
        );
        for (a, b, c, d) in cmds {
            body.step(MotorCommand([a, b, c, d]), 1.0 / 400.0);
            let s = body.state();
            prop_assert!(s.position.is_finite());
            prop_assert!(s.velocity.is_finite());
            prop_assert!(s.position.z >= 0.0, "below the floor: {}", s.position.z);
            prop_assert!((s.attitude.norm() - 1.0).abs() < 1e-6);
        }
    }

    /// Raycasts never report a hit beyond another hit: the minimum over
    /// walls is consistent with each individual wall distance.
    #[test]
    fn raycast_returns_nearest(x in 1.0f64..49.0, y in -1.4f64..1.4, heading in -3.1f64..3.1) {
        let world = World::tunnel();
        let origin = P2::new(x, y);
        if let Some(d) = world.raycast(origin, heading) {
            prop_assert!(d > 0.0);
            for wall in world.walls() {
                if let Some(dw) = wall.raycast(origin, heading.cos(), heading.sin()) {
                    prop_assert!(d <= dw + 1e-9, "min violated: {d} > {dw}");
                }
            }
        }
    }

    /// Trail queries are bounded: the lateral offset can never exceed the
    /// distance to the farthest point of the corridor cross-section.
    #[test]
    fn trail_offset_is_bounded(x in 0.0f64..79.0, y in -2.9f64..2.9, yaw in -3.1f64..3.1) {
        let world = World::s_shape();
        let q = world.trail_query(Vec3::new(x, y, 1.0), yaw);
        prop_assert!(q.lateral_offset.abs() < 12.0);
        prop_assert!(q.heading_error.abs() <= std::f64::consts::PI + 1e-9);
        prop_assert!(q.progress >= 0.0);
        prop_assert!(q.progress <= world.trail_length() + 1e-9);
    }
}

/// A closed-loop flight under the real flight controller keeps the state
/// inside the physical envelope for a spread of velocity targets.
#[test]
fn closed_loop_envelope() {
    for (forward, lateral, yaw_rate) in [
        (3.0, 0.0, 0.0),
        (9.0, 1.0, 0.5),
        (12.0, -2.0, -1.0),
        (0.0, 0.0, 2.0),
    ] {
        let config = UavSimConfig::default();
        let fc = SimpleFlight::default_for(config.quad);
        let mut sim = UavSim::new(config, World::s_shape(), Box::new(fc), &SimRng::new(9));
        sim.set_target(VelocityTarget {
            forward,
            lateral,
            yaw_rate,
            altitude: 1.5,
        });
        sim.step_frames(240);
        let pose = sim.pose();
        assert!(pose.position.is_finite());
        assert!(pose.velocity.norm() < 20.0, "runaway velocity");
        assert!(pose.position.z >= 0.0 && pose.position.z < 10.0);
    }
}

/// A trivially passive autopilot drops the UAV to the floor — the
/// Autopilot trait's contract is honored by the sim loop.
#[test]
fn passive_autopilot_lands() {
    struct NoThrust;
    impl Autopilot for NoThrust {
        fn command(
            &mut self,
            _s: &RigidBodyState,
            _t: &VelocityTarget,
            _dt: f64,
        ) -> MotorCommand {
            MotorCommand::uniform(0.0)
        }
    }
    let mut sim = UavSim::new(
        UavSimConfig::default(),
        World::tunnel(),
        Box::new(NoThrust),
        &SimRng::new(4),
    );
    sim.step_frames(180);
    assert_eq!(sim.pose().position.z, 0.0, "should be on the floor");
}
