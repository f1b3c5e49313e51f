//! Property-based tests of the environment simulator's physical
//! invariants.

use proptest::prelude::*;
use rose_envsim::api::VelocityTarget;
use rose_envsim::camera::{Camera, CameraConfig, Image};
use rose_envsim::dynamics::{MotorCommand, QuadrotorBody, QuadrotorParams, RigidBodyState};
use rose_envsim::uav::{Autopilot, UavSim, UavSimConfig};
use rose_envsim::world::{World, WorldKind, P2};
use rose_flightctl::SimpleFlight;
use rose_sim_core::math::Vec3;
use rose_sim_core::rng::SimRng;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

const KINDS: [WorldKind; 3] = [WorldKind::Tunnel, WorldKind::SShape, WorldKind::Slalom];

/// Headings the grid walk treats specially: a zero sine or cosine, and
/// diagonals through cell corners.
const AXIS_HEADINGS: [f64; 8] = [
    0.0,
    FRAC_PI_2,
    -FRAC_PI_2,
    PI,
    FRAC_PI_4,
    -FRAC_PI_4,
    3.0 * FRAC_PI_4,
    -3.0 * FRAC_PI_4,
];

/// The nearest hit by a scan over every wall: the reference for
/// [`World::raycast`].
fn scan_raycast(world: &World, origin: P2, heading: f64) -> Option<f64> {
    let (dx, dy) = (heading.cos(), heading.sin());
    world
        .walls()
        .iter()
        .filter_map(|w| w.raycast(origin, dx, dy))
        .min_by(|a, b| a.total_cmp(b))
}

/// Wall contact by a scan over every wall: the reference for
/// [`World::collides`].
fn scan_collides(world: &World, pos: Vec3, radius: f64) -> bool {
    let p = P2::new(pos.x, pos.y);
    world
        .walls()
        .iter()
        .any(|w| pos.z <= w.height && w.closest_point(p).0 < radius)
}

/// Asserts the grid queries answer bit for bit what the scans answer.
fn assert_matches_scan(world: &World, origin: P2, heading: f64, z: f64, radius: f64) {
    let kind = world.kind();
    assert_eq!(
        world.raycast(origin, heading).map(f64::to_bits),
        scan_raycast(world, origin, heading).map(f64::to_bits),
        "{kind} raycast from {origin:?} at {heading}"
    );
    let pos = Vec3::new(origin.x, origin.y, z);
    assert_eq!(
        world.collides(pos, radius),
        scan_collides(world, pos, radius),
        "{kind} collides at {pos:?} radius {radius}"
    );
}

/// The camera on [`scan_raycast`], shading each floor pixel as it is drawn:
/// the reference for [`Camera::render`].
fn scan_render(world: &World, pos: Vec3, yaw: f64, cfg: &CameraConfig) -> Image {
    let mut img = Image::black(cfg.width, cfg.height);
    let origin = P2::new(pos.x, pos.y);
    let eye_height = pos.z.max(0.2);
    let half_fov = cfg.fov * 0.5;
    let v_half_fov = half_fov * cfg.height as f64 / cfg.width as f64;
    for col in 0..cfg.width {
        let frac = (col as f64 + 0.5) / cfg.width as f64;
        let angle = yaw + half_fov - frac * cfg.fov;
        let dist = scan_raycast(world, origin, angle)
            .unwrap_or(cfg.max_depth)
            .min(cfg.max_depth);
        let perp = (dist * (angle - yaw).cos()).max(0.05);
        let wall_top_angle = ((world.wall_height() - eye_height) / perp).atan();
        let wall_bot_angle = (-eye_height / perp).atan();
        let row_of = |a: f64| -> f64 { (v_half_fov - a) / (2.0 * v_half_fov) * cfg.height as f64 };
        let top_row = row_of(wall_top_angle).max(0.0) as usize;
        let bot_row = row_of(wall_bot_angle).clamp(0.0, cfg.height as f64) as usize;
        let wall_shade = (220.0 * (1.0 - (dist / cfg.max_depth)).powf(1.2)).max(16.0) as u8;
        for row in 0..cfg.height {
            let v = if row < top_row {
                235
            } else if row < bot_row.min(cfg.height) {
                wall_shade
            } else {
                let t = (row as f64 - bot_row as f64 + 1.0)
                    / (cfg.height as f64 - bot_row as f64 + 1.0);
                (40.0 + 50.0 * t) as u8
            };
            img.set(row, col, v);
        }
    }
    img
}

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

    /// The grid-walked raycast and the grid collision test answer bit for
    /// bit what scans over every wall answer, in every world, from origins
    /// inside and outside the grid.
    #[test]
    fn grid_queries_match_the_scan(queries in proptest::collection::vec(
        (-12.0f64..95.0, -14.0f64..14.0, -7.0f64..7.0, 0usize..16, 0.0f64..4.0, 0.0f64..1.5),
        32..64,
    )) {
        for world in KINDS.map(World::of_kind) {
            for &(x, y, heading, pick, z, radius) in &queries {
                let heading = AXIS_HEADINGS.get(pick).copied().unwrap_or(heading);
                assert_matches_scan(&world, P2::new(x, y), heading, z, radius);
            }
        }
    }

    /// The camera renders byte for byte what a renderer built on the wall
    /// scan renders, in every world.
    #[test]
    fn render_matches_the_scan_renderer(
        x in -6.0f64..85.0,
        y in -9.0f64..9.0,
        z in 0.0f64..4.0,
        yaw in -3.5f64..3.5,
        width in 1usize..80,
        height in 0usize..80,
    ) {
        let cfg = CameraConfig { width, height, ..CameraConfig::default() };
        let camera = Camera::new(cfg);
        for world in KINDS.map(World::of_kind) {
            let pos = Vec3::new(x, y, z);
            prop_assert!(
                camera.render(&world, pos, yaw).bytes() == scan_render(&world, pos, yaw, &cfg).bytes(),
                "{} render differs at {pos:?}, yaw {yaw}",
                world.kind()
            );
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

/// The grid queries match the scans where the grid walk has edge cases:
/// origins on cell boundaries and corners (inside and just outside the
/// grid), at wall endpoints, and rays along each wall, at the axis and
/// diagonal headings, over radii from 0 to 1.5 m and heights above the
/// walls.
#[test]
fn grid_queries_match_the_scan_on_cell_boundaries() {
    for world in KINDS.map(World::of_kind) {
        // The grid's lines: it starts at the walls' minimum corner and its
        // cell edge is the median wall length (pinned in world.rs).
        let ends = || world.walls().iter().flat_map(|w| [w.a, w.b]);
        let x0 = ends().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let y0 = ends().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let x1 = ends().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        let y1 = ends().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
        let mut lengths: Vec<f64> = world
            .walls()
            .iter()
            .map(|w| ((w.b.x - w.a.x).powi(2) + (w.b.y - w.a.y).powi(2)).sqrt())
            .collect();
        lengths.sort_by(f64::total_cmp);
        let cell = lengths[lengths.len() / 2];
        let (nx, ny) = (
            ((x1 - x0) / cell).ceil() as i64,
            ((y1 - y0) / cell).ceil() as i64,
        );
        let radii = [0.0, 0.25, 0.5 * cell, cell, 1.5, -0.25];
        for ix in -1..=nx + 1 {
            for iy in -1..=ny + 1 {
                let origin = P2::new(x0 + ix as f64 * cell, y0 + iy as f64 * cell);
                for (k, &heading) in AXIS_HEADINGS.iter().enumerate() {
                    let z = if k % 2 == 0 { 1.0 } else { 3.5 };
                    assert_matches_scan(&world, origin, heading, z, radii[k % radii.len()]);
                }
            }
        }
        for wall in world.walls() {
            let along = (wall.b.y - wall.a.y).atan2(wall.b.x - wall.a.x);
            let mid = P2::new(0.5 * (wall.a.x + wall.b.x), 0.5 * (wall.a.y + wall.b.y));
            for origin in [wall.a, wall.b, mid] {
                for heading in [
                    along,
                    along + PI,
                    along + 1e-9,
                    along - 1e-9,
                    along + FRAC_PI_2,
                ]
                .into_iter()
                .chain(AXIS_HEADINGS)
                {
                    for radius in radii {
                        assert_matches_scan(&world, origin, heading, 1.0, radius);
                    }
                }
            }
        }
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
