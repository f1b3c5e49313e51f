//! The frame-stepped UAV simulation.
//!
//! [`UavSim`] combines a [`World`], a [`QuadrotorBody`], an [`Autopilot`]
//! (the flight controller, software-in-the-loop as in Figure 7), and the
//! sensor models into a single simulation that advances in discrete frames.
//! One frame = one physics + render step; physics runs at a higher substep
//! rate internally for numerical stability.

use crate::api::{Pose, VelocityTarget};
use crate::camera::{Camera, CameraConfig, Image};
use crate::dynamics::{MotorCommand, QuadrotorBody, QuadrotorParams, RigidBodyState};
use crate::sensors::{DepthConfig, DepthSample, DepthSensor, Imu, ImuConfig, ImuSample};
use crate::world::{World, P2};
use rose_sim_core::cycles::FrameSpec;
use rose_sim_core::math::{Quat, Vec3};
use rose_sim_core::rng::SimRng;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use rose_trace::{ArgValue, TraceEvent, Tracer, Track};
use serde::{Deserialize, Serialize};

/// The flight controller interface.
///
/// The companion computer does not directly interface with motors; it sends
/// intermediate-level targets (velocity, yaw rate) to a flight controller
/// which computes motor commands (Section 3.4.2). Implementations live in
/// `rose-flightctl`.
pub trait Autopilot {
    /// Computes the motor command for one physics substep.
    fn command(&mut self, state: &RigidBodyState, target: &VelocityTarget, dt: f64)
        -> MotorCommand;

    /// Serializes the controller's dynamic state (integrators, derivative
    /// history) for a mission snapshot. Stateless controllers keep the
    /// default no-op; stateful ones must override **both** snapshot hooks
    /// symmetrically or resumed missions will diverge.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restores the controller's dynamic state from a mission snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// Configuration for a [`UavSim`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UavSimConfig {
    /// Environment frame rate (physics + render step rate).
    pub frames: FrameSpec,
    /// Physics substeps per frame.
    pub substeps: u32,
    /// Quadrotor physical parameters.
    pub quad: QuadrotorParams,
    /// Camera intrinsics.
    pub camera: CameraConfig,
    /// IMU noise model.
    pub imu: ImuConfig,
    /// Depth sensor model.
    pub depth: DepthConfig,
    /// Initial position.
    pub start_position: Vec3,
    /// Initial heading (radians).
    pub start_yaw: f64,
}

impl Default for UavSimConfig {
    fn default() -> UavSimConfig {
        UavSimConfig {
            frames: FrameSpec::default(),
            substeps: 8,
            quad: QuadrotorParams::default(),
            camera: CameraConfig::default(),
            imu: ImuConfig::default(),
            depth: DepthConfig::default(),
            start_position: Vec3::new(0.0, 0.0, 1.5),
            start_yaw: 0.0,
        }
    }
}

/// One trajectory log record (one per frame).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Simulated time in seconds.
    pub t: f64,
    /// World position.
    pub position: Vec3,
    /// World velocity.
    pub velocity: Vec3,
    /// Heading in radians.
    pub yaw: f64,
    /// True if the UAV was in wall contact this frame.
    pub in_collision: bool,
}

impl TrajectoryPoint {
    /// Serializes the point bit-exactly.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let TrajectoryPoint {
            t,
            position,
            velocity,
            yaw,
            in_collision,
        } = self;
        w.f64(*t);
        position.save_state(w);
        velocity.save_state(w);
        w.f64(*yaw);
        w.bool(*in_collision);
    }

    /// Deserializes a point written by [`TrajectoryPoint::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<TrajectoryPoint, SnapError> {
        Ok(TrajectoryPoint {
            t: r.f64()?,
            position: Vec3::restore_state(r)?,
            velocity: Vec3::restore_state(r)?,
            yaw: r.f64()?,
            in_collision: r.bool()?,
        })
    }
}

/// Sentinel depth returned while the depth sensor is blacked out. The
/// application layer treats any negative depth as "no valid reading" and
/// falls back to its conservative ladder instead of trusting the value.
pub const DEPTH_INVALID: f64 = -1.0;

/// The frame-stepped UAV environment simulation.
pub struct UavSim {
    config: UavSimConfig,
    world: World,
    /// Built from `config.camera`, so structural like `config`.
    camera: Camera,
    body: QuadrotorBody,
    autopilot: Box<dyn Autopilot + Send>,
    imu: Imu,
    depth: DepthSensor,
    target: VelocityTarget,
    collision_count: u32,
    in_collision: bool,
    /// One point per frame stepped, so its length is the frame counter.
    trajectory: Vec<TrajectoryPoint>,
    tracer: Tracer,
    /// Sim-time windows `[start, end)` (seconds) in which the depth sensor
    /// returns [`DEPTH_INVALID`]. Structural (from the mission config):
    /// rebuilt on resume, not serialized.
    depth_blackouts: Vec<(f64, f64)>,
    /// Scheduled accelerometer bias step changes `(at_seconds, delta)`,
    /// sorted by time. Structural, like the blackout windows.
    imu_bias_steps: Vec<(f64, Vec3)>,
    /// How many bias steps have fired (dynamic: serialized so a resumed
    /// mission does not re-apply steps already folded into the IMU bias).
    bias_steps_applied: usize,
}

impl std::fmt::Debug for UavSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UavSim")
            .field("world", &self.world.kind())
            .field("frame", &self.frame())
            .field("position", &self.body.state().position)
            .field("collisions", &self.collision_count)
            .finish()
    }
}

impl UavSim {
    /// Creates a simulation with the UAV at the configured start pose.
    pub fn new(
        config: UavSimConfig,
        world: World,
        autopilot: Box<dyn Autopilot + Send>,
        rng: &SimRng,
    ) -> UavSim {
        let state = RigidBodyState {
            position: config.start_position,
            attitude: rose_sim_core::math::Quat::from_euler(0.0, 0.0, config.start_yaw),
            ..RigidBodyState::default()
        };
        UavSim {
            body: QuadrotorBody::new(config.quad, state),
            imu: Imu::new(config.imu, rng),
            depth: DepthSensor::new(config.depth, rng),
            target: VelocityTarget {
                altitude: config.start_position.z.max(1.5),
                ..VelocityTarget::default()
            },
            camera: Camera::new(config.camera),
            config,
            world,
            autopilot,
            collision_count: 0,
            in_collision: false,
            trajectory: Vec::new(),
            tracer: Tracer::disabled(),
            depth_blackouts: Vec::new(),
            imu_bias_steps: Vec::new(),
            bias_steps_applied: 0,
        }
    }

    /// Schedules depth-sensor blackout windows `[start, end)` in simulated
    /// seconds. While inside a window, [`UavSim::depth`] answers
    /// [`DEPTH_INVALID`] without consuming sensor noise, modeling a sensor
    /// that stops producing frames rather than one producing garbage.
    pub fn set_depth_blackouts(&mut self, mut windows: Vec<(f64, f64)>) {
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.depth_blackouts = windows;
    }

    /// Schedules accelerometer bias step changes `(at_seconds, delta)`.
    /// Each step fires once, at the first frame boundary at or after its
    /// time, and folds permanently into the IMU bias.
    pub fn set_imu_bias_steps(&mut self, mut steps: Vec<(f64, Vec3)>) {
        steps.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.imu_bias_steps = steps;
    }

    /// True while the current sim time is inside a depth blackout window.
    pub fn depth_blacked_out(&self) -> bool {
        let t = self.time();
        self.depth_blackouts
            .iter()
            .any(|&(start, end)| t >= start && t < end)
    }

    /// Installs a tracer; subsequent frames emit `env-frame` spans and
    /// `collision` instants on the environment track.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains buffered trace events (for merging into a mission-wide log).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.tracer.take_events()
    }

    /// The environment.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Simulated seconds elapsed.
    pub fn time(&self) -> f64 {
        self.frame() as f64 * self.config.frames.dt()
    }

    /// Frames stepped so far.
    pub fn frame(&self) -> u64 {
        self.trajectory.len() as u64
    }

    /// The current ground-truth pose.
    pub fn pose(&self) -> Pose {
        let s = self.body.state();
        Pose {
            position: s.position,
            velocity: s.velocity,
            yaw: s.yaw(),
        }
    }

    /// Total collision events so far (rising edges of wall contact).
    pub fn collision_count(&self) -> u32 {
        self.collision_count
    }

    /// The most recent velocity target latched by the flight controller.
    pub fn target(&self) -> &VelocityTarget {
        &self.target
    }

    /// The per-frame trajectory log.
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// True once the UAV has crossed the goal plane.
    pub fn mission_complete(&self) -> bool {
        self.world.mission_complete(self.body.state().position)
    }

    /// Renders the camera frame seen from the current pose.
    pub fn image(&self) -> Image {
        let s = self.body.state();
        self.camera.render(&self.world, s.position, s.yaw())
    }

    /// Samples the IMU.
    pub fn imu(&mut self) -> ImuSample {
        self.imu.sample(&self.body, self.time())
    }

    /// Samples the forward depth sensor, or answers [`DEPTH_INVALID`]
    /// inside a blackout window.
    pub fn depth(&mut self) -> DepthSample {
        if self.depth_blacked_out() {
            // No noise draw: the blacked-out sensor produces no frame at
            // all, so the noise stream position matches a sensor that was
            // simply not polled.
            return DepthSample {
                depth: DEPTH_INVALID,
                timestamp: self.time(),
            };
        }
        let s = self.body.state();
        self.depth
            .sample(&self.world, s.position, s.yaw(), self.time())
    }

    /// Sends a velocity target to the flight controller, which tracks the
    /// most recent target received (Section 4.2.2).
    pub fn set_target(&mut self, target: VelocityTarget) {
        self.target = target;
    }

    /// Section magic guarding the environment state in snapshots ("ENVS").
    pub const SNAP_SECTION: u32 = 0x454e_5653;

    /// Serializes the simulation's complete dynamic state.
    ///
    /// Structural fields (`config`, `world`, `camera`) are rebuilt from
    /// `MissionConfig` on resume; everything that changes while frames
    /// step is written here, including the full trajectory log (the
    /// determinism digest covers every frame since launch, so a resumed
    /// mission must carry its prefix).
    pub fn save_state(&self, w: &mut SnapWriter) {
        let UavSim {
            config: _,
            world: _,
            camera: _,
            body,
            autopilot,
            imu,
            depth,
            target,
            collision_count,
            in_collision,
            trajectory,
            tracer,
            depth_blackouts: _,
            imu_bias_steps: _,
            bias_steps_applied,
        } = self;
        w.section(Self::SNAP_SECTION);
        body.save_state(w);
        autopilot.save_state(w);
        imu.save_state(w);
        depth.save_state(w);
        let VelocityTarget {
            forward,
            lateral,
            yaw_rate,
            altitude,
        } = target;
        w.f64(*forward);
        w.f64(*lateral);
        w.f64(*yaw_rate);
        w.f64(*altitude);
        w.u32(*collision_count);
        w.bool(*in_collision);
        w.seq(trajectory, |w, point| point.save_state(w));
        w.usize(*bias_steps_applied);
        tracer.save_state(w);
    }

    /// Restores the simulation's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section(Self::SNAP_SECTION)?;
        self.body.restore_state(r)?;
        self.autopilot.restore_state(r)?;
        self.imu.restore_state(r)?;
        self.depth.restore_state(r)?;
        self.target = VelocityTarget {
            forward: r.f64()?,
            lateral: r.f64()?,
            yaw_rate: r.f64()?,
            altitude: r.f64()?,
        };
        self.collision_count = r.u32()?;
        self.in_collision = r.bool()?;
        self.trajectory = r.seq(TrajectoryPoint::restore_state)?;
        self.bias_steps_applied = r.usize()?;
        self.tracer.restore_state(r)
    }

    /// Rotates the UAV's heading by `dyaw` radians in place.
    ///
    /// This is the divergence knob for forked missions: branches resumed
    /// from one shared checkpoint inject different heading disturbances
    /// and then fly on, which is how the warm-started Figure 10 sweep
    /// reproduces its initial-angle axis without re-simulating boot.
    pub fn perturb_yaw(&mut self, dyaw: f64) {
        let state = self.body.state_mut();
        state.attitude = (Quat::from_euler(0.0, 0.0, dyaw) * state.attitude).normalized();
    }

    /// Advances the simulation by `n` frames.
    pub fn step_frames(&mut self, n: u64) {
        for _ in 0..n {
            self.step_one_frame();
        }
    }

    fn step_one_frame(&mut self) {
        // Fire any scheduled IMU bias steps due by now. The cursor makes
        // each step one-shot and lets a resume skip steps already folded
        // into the serialized bias.
        while self.bias_steps_applied < self.imu_bias_steps.len()
            && self.imu_bias_steps[self.bias_steps_applied].0 <= self.time()
        {
            let (_, delta) = self.imu_bias_steps[self.bias_steps_applied];
            self.imu.shift_accel_bias(delta);
            self.bias_steps_applied += 1;
        }
        let start_frame = self.frame();
        let collisions_before = self.collision_count;
        let dt = self.config.frames.dt() / self.config.substeps as f64;
        for _ in 0..self.config.substeps {
            let cmd = self.autopilot.command(self.body.state(), &self.target, dt);
            self.body.step(cmd, dt);
            self.resolve_collisions();
        }
        let s = self.body.state();
        self.trajectory.push(TrajectoryPoint {
            t: (start_frame + 1) as f64 * self.config.frames.dt(),
            position: s.position,
            velocity: s.velocity,
            yaw: s.yaw(),
            in_collision: self.in_collision,
        });
        if self.tracer.is_enabled() {
            self.tracer.complete_frames(
                Track::Env,
                "env-frame",
                start_frame,
                start_frame + 1,
                vec![("frame", ArgValue::U64(start_frame))],
            );
            // One instant per rising edge of wall contact within this frame.
            for _ in collisions_before..self.collision_count {
                self.tracer
                    .instant_frames(Track::Env, "collision", start_frame + 1, Vec::new());
            }
        }
    }

    /// Collision handling: when the body sphere penetrates a wall it is
    /// pushed out along the wall normal and the into-wall velocity component
    /// is reflected with heavy damping. Collision events are counted on the
    /// rising edge of contact.
    fn resolve_collisions(&mut self) {
        let radius = self.config.quad.radius;
        let pos = self.body.state().position;
        let colliding = self.world.collides(pos, radius);
        if colliding {
            let (dist, dir) = self.world.nearest_wall(P2::new(pos.x, pos.y));
            let penetration = radius - dist;
            if penetration > 0.0 {
                let normal = Vec3::new(dir.x, dir.y, 0.0);
                let state = self.body.state_mut();
                state.position += normal * penetration;
                let vn = state.velocity.dot(normal);
                if vn < 0.0 {
                    // Remove into-wall velocity, keep 20% as restitution.
                    state.velocity -= normal * (1.2 * vn);
                    // Scrub tangential speed a little (wall friction).
                    state.velocity = state.velocity * 0.9;
                }
            }
            if !self.in_collision {
                self.collision_count += 1;
            }
        }
        self.in_collision = colliding;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial autopilot: open-loop hover command, no target tracking.
    struct HoverOpenLoop;

    impl Autopilot for HoverOpenLoop {
        fn command(
            &mut self,
            _state: &RigidBodyState,
            _target: &VelocityTarget,
            _dt: f64,
        ) -> MotorCommand {
            MotorCommand::uniform(QuadrotorParams::default().hover_command())
        }
    }

    fn sim() -> UavSim {
        UavSim::new(
            UavSimConfig::default(),
            World::tunnel(),
            Box::new(HoverOpenLoop),
            &SimRng::new(11),
        )
    }

    #[test]
    fn frames_advance_time() {
        let mut s = sim();
        s.step_frames(60);
        assert_eq!(s.frame(), 60);
        assert!((s.time() - 1.0).abs() < 1e-9);
        assert_eq!(s.trajectory().len(), 60);
    }

    #[test]
    fn sensor_and_actuation_calls_answer() {
        let mut s = sim();
        s.step_frames(1);
        let config = UavSimConfig::default().camera;
        let img = s.image();
        assert_eq!((img.width(), img.height()), (config.width, config.height));
        assert_eq!(s.imu().timestamp, s.time());
        assert!(s.depth().depth > 0.0);
        s.set_target(VelocityTarget::forward(2.0));
        assert_eq!(s.target().forward, 2.0);
    }

    #[test]
    fn traced_sim_emits_one_span_per_frame() {
        use rose_trace::TraceClock;
        let mut s = sim();
        s.set_tracer(Tracer::enabled(TraceClock::default()));
        s.step_frames(30);
        let events = s.take_trace_events();
        let frames: Vec<_> = events.iter().filter(|e| e.name == "env-frame").collect();
        assert_eq!(frames.len(), 30);
        // Frame 0 starts at t=0; frame 1 starts one frame period later.
        assert_eq!(frames[0].ts_us, 0.0);
        let dt_us = 1e6 / 60.0;
        assert!((frames[1].ts_us - dt_us).abs() < 1e-6);
        // An untraced sim records nothing.
        let mut quiet = sim();
        quiet.step_frames(30);
        assert!(quiet.take_trace_events().is_empty());
    }

    #[test]
    fn depth_blackout_returns_the_sentinel_without_noise_draws() {
        let mut degraded = sim();
        let mut clean = sim();
        degraded.set_depth_blackouts(vec![(0.0, 0.5)]);
        // Inside the window: sentinel, and the noise stream is untouched.
        assert_eq!(degraded.depth().depth, DEPTH_INVALID);
        assert!(degraded.depth_blacked_out());
        // Past the window the reading matches a sim that never polled
        // during the blackout — proof the sentinel consumed no RNG.
        degraded.step_frames(60);
        clean.step_frames(60);
        assert!(!degraded.depth_blacked_out());
        assert_eq!(degraded.depth(), clean.depth());
    }

    #[test]
    fn imu_bias_steps_fire_once_and_resume_does_not_replay_them() {
        let mut s = sim();
        s.set_imu_bias_steps(vec![(0.1, Vec3::new(0.4, 0.0, 0.0))]);
        s.step_frames(30); // 0.5 s — the step has fired.
        assert_eq!(s.bias_steps_applied, 1);

        // Snapshot, restore into a twin with the same schedule, and step
        // both: the step must not fire a second time in the twin.
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        let buf = w.into_bytes();
        let mut twin = sim();
        twin.set_imu_bias_steps(vec![(0.1, Vec3::new(0.4, 0.0, 0.0))]);
        let mut r = SnapReader::new(&buf);
        twin.restore_state(&mut r).unwrap();
        assert_eq!(twin.bias_steps_applied, 1);
        s.step_frames(10);
        twin.step_frames(10);
        assert_eq!(s.imu(), twin.imu());
    }

    #[test]
    fn wall_contact_is_counted_once_per_event() {
        // Start in the wall region with lateral velocity.
        let config = UavSimConfig {
            start_position: Vec3::new(10.0, 1.2, 1.5),
            ..UavSimConfig::default()
        };
        let mut s = UavSim::new(
            config,
            World::tunnel(),
            Box::new(HoverOpenLoop),
            &SimRng::new(11),
        );
        s.body.state_mut().velocity = Vec3::new(0.0, 3.0, 0.0);
        s.step_frames(30);
        assert!(s.collision_count() >= 1);
        // The push-out keeps the UAV inside the corridor.
        assert!(s.pose().position.y.abs() <= 1.6 + 0.01);
    }
}
