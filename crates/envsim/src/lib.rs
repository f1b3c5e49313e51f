//! Environment simulator for the RoSÉ reproduction — the AirSim substitute.
//!
//! The paper integrates AirSim (an Unreal Engine plugin) to simulate the
//! UAV's environment: rigid-body physics, camera rendering, inertial sensor
//! models, and an RPC API for sensor readings, actuation, and simulator
//! commands (Section 3.1). This crate reproduces that surface in pure Rust,
//! as direct method calls on [`UavSim`]:
//!
//! * [`world`] — corridor environments (the paper's `tunnel` and `s-shape`
//!   maps, plus `slalom`), collision geometry and raycasting over a grid
//!   of the walls, and ground-truth centerline queries.
//! * [`dynamics`] — 6-DoF quadrotor rigid-body dynamics with a motor model.
//! * [`camera`] — a software column raycaster producing grayscale
//!   first-person-view frames (90° FOV, as in Section 4.1).
//! * [`sensors`] — IMU (accelerometer + gyroscope with bias and noise) and a
//!   forward depth sensor.
//! * [`uav`] — [`uav::UavSim`], the frame-stepped UAV simulation combining
//!   world, body, autopilot, and sensors, with the sensor (`image`, `imu`,
//!   `depth`), actuation (`set_target`) and frame-stepping (`step_frames`)
//!   calls the RoSÉ synchronizer makes.
//! * [`api`] — the values those calls exchange: [`api::VelocityTarget`]
//!   and [`api::Pose`].
//!
//! The simulation advances in discrete **frames** (one physics + render
//! step, typically 60–120 Hz) so it can be integrated with the hardware RTL
//! simulation flow in lockstep (Section 3.4.1).

#![deny(missing_docs)]

pub mod api;
pub mod camera;
pub mod dynamics;
pub mod sensors;
pub mod uav;
pub mod world;

pub use api::VelocityTarget;
pub use camera::{Camera, CameraConfig, Image};
pub use dynamics::{QuadrotorBody, QuadrotorParams, RigidBodyState};
pub use uav::{Autopilot, UavSim, UavSimConfig};
pub use world::{World, WorldKind};
