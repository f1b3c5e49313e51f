//! Flight controller for the RoSÉ reproduction — the SimpleFlight substitute.
//!
//! The flight controller used in the paper's evaluations is based on
//! AirSim's SimpleFlight controller: "a hierarchy of PID controllers that
//! manage the position, velocity, and angle of attack targets. The flight
//! controller takes in angular and velocity control targets from the
//! companion computer, and uses the control hierarchy to track the most
//! recent target received" (Section 4.2.2).
//!
//! [`SimpleFlight`] reproduces that hierarchy:
//!
//! ```text
//! velocity target ──► velocity PID ──► tilt (roll/pitch) target
//! altitude target ──► altitude PID ──► collective thrust
//! tilt target     ──► attitude P   ──► body-rate target
//! yaw-rate target ───────────────────► body-rate target (z)
//! rate target     ──► rate PID     ──► torques ──► mixer ──► 4 motors
//! ```
//!
//! It implements [`rose_envsim::Autopilot`], so it plugs directly into the
//! environment simulation as the software-in-the-loop flight controller of
//! Figure 7.

#![deny(missing_docs)]

pub mod mixer;

use rose_envsim::api::VelocityTarget;
use rose_envsim::dynamics::{MotorCommand, QuadrotorParams, RigidBodyState, GRAVITY};
use rose_envsim::Autopilot;
use rose_sim_core::math::{clamp, Vec3};
use rose_sim_core::pid::{Pid, PidConfig};
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};

pub use mixer::Mixer;

/// Gains and limits for the SimpleFlight cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleFlightConfig {
    /// Horizontal velocity loop gains (output: desired acceleration m/s²).
    pub vel_xy: PidConfig,
    /// Vertical velocity loop gains (output: thrust delta in g units).
    pub vel_z: PidConfig,
    /// Altitude loop proportional gain (output: climb-rate target m/s).
    pub alt_kp: f64,
    /// Maximum climb rate magnitude (m/s).
    pub max_climb_rate: f64,
    /// Attitude proportional gain (output: body-rate target rad/s).
    pub att_kp: f64,
    /// Roll/pitch rate loop gains (output: torque N·m).
    pub rate_rp: PidConfig,
    /// Yaw rate loop gains (output: torque N·m).
    pub rate_yaw: PidConfig,
    /// Maximum commanded tilt (rad).
    pub max_tilt: f64,
    /// Maximum body-rate target (rad/s).
    pub max_rate: f64,
    /// Maximum horizontal acceleration command (m/s²).
    pub max_accel: f64,
}

impl Default for SimpleFlightConfig {
    fn default() -> SimpleFlightConfig {
        SimpleFlightConfig {
            vel_xy: PidConfig::pi(2.2, 0.4).with_integral_limit(2.0),
            vel_z: PidConfig::pi(0.35, 0.12).with_integral_limit(1.0),
            alt_kp: 1.6,
            max_climb_rate: 2.5,
            att_kp: 9.0,
            rate_rp: PidConfig::pid(0.09, 0.02, 0.0025).with_integral_limit(1.0),
            rate_yaw: PidConfig::pid(0.16, 0.02, 0.0).with_integral_limit(1.0),
            max_tilt: 0.45,
            max_rate: 6.0,
            max_accel: 6.0,
        }
    }
}

/// The SimpleFlight PID-cascade flight controller.
#[derive(Debug, Clone)]
pub struct SimpleFlight {
    config: SimpleFlightConfig,
    quad: QuadrotorParams,
    mixer: Mixer,
    pid_vx: Pid,
    pid_vy: Pid,
    pid_vz: Pid,
    pid_rate_x: Pid,
    pid_rate_y: Pid,
    pid_rate_z: Pid,
}

impl SimpleFlight {
    /// Creates a controller for the given airframe.
    pub fn new(config: SimpleFlightConfig, quad: QuadrotorParams) -> SimpleFlight {
        SimpleFlight {
            mixer: Mixer::new(quad),
            pid_vx: Pid::new(config.vel_xy),
            pid_vy: Pid::new(config.vel_xy),
            pid_vz: Pid::new(config.vel_z),
            pid_rate_x: Pid::new(config.rate_rp),
            pid_rate_y: Pid::new(config.rate_rp),
            pid_rate_z: Pid::new(config.rate_yaw),
            config,
            quad,
        }
    }

    /// Creates a controller with default gains for the default airframe.
    pub fn default_for(quad: QuadrotorParams) -> SimpleFlight {
        SimpleFlight::new(SimpleFlightConfig::default(), quad)
    }

    /// The configured gains.
    pub fn config(&self) -> &SimpleFlightConfig {
        &self.config
    }
}

impl Autopilot for SimpleFlight {
    fn command(
        &mut self,
        state: &RigidBodyState,
        target: &VelocityTarget,
        dt: f64,
    ) -> MotorCommand {
        let cfg = &self.config;
        let (roll, pitch, yaw) = state.attitude.to_euler();

        // --- Outer loop: world-frame velocity targets -------------------
        // Body-frame forward/lateral targets rotate into the world frame.
        let (sin_y, cos_y) = yaw.sin_cos();
        let v_des_x = target.forward * cos_y - target.lateral * sin_y;
        let v_des_y = target.forward * sin_y + target.lateral * cos_y;
        // Altitude loop produces a climb-rate target.
        let climb_des = clamp(
            cfg.alt_kp * (target.altitude - state.position.z),
            -cfg.max_climb_rate,
            cfg.max_climb_rate,
        );

        // --- Velocity loops: desired accelerations ----------------------
        let ax = clamp(
            self.pid_vx.update(v_des_x, state.velocity.x, dt),
            -cfg.max_accel,
            cfg.max_accel,
        );
        let ay = clamp(
            self.pid_vy.update(v_des_y, state.velocity.y, dt),
            -cfg.max_accel,
            cfg.max_accel,
        );
        // Vertical: thrust delta in units of g.
        let az_g = self.pid_vz.update(climb_des, state.velocity.z, dt);

        // --- Acceleration to tilt targets (small-angle, yaw-rotated) ----
        // In the yaw-aligned frame: pitch = a_fwd / g, roll = -a_left / g.
        let a_fwd = ax * cos_y + ay * sin_y;
        let a_left = -ax * sin_y + ay * cos_y;
        let pitch_des = clamp(a_fwd / GRAVITY, -cfg.max_tilt, cfg.max_tilt);
        let roll_des = clamp(-a_left / GRAVITY, -cfg.max_tilt, cfg.max_tilt);

        // --- Attitude P loop: body-rate targets -------------------------
        let rate_x_des = clamp(cfg.att_kp * (roll_des - roll), -cfg.max_rate, cfg.max_rate);
        let rate_y_des = clamp(
            cfg.att_kp * (pitch_des - pitch),
            -cfg.max_rate,
            cfg.max_rate,
        );
        let rate_z_des = clamp(target.yaw_rate, -cfg.max_rate, cfg.max_rate);

        // --- Rate PID loop: torques --------------------------------------
        let w = state.angular_velocity;
        let torque = Vec3::new(
            self.pid_rate_x.update(rate_x_des, w.x, dt),
            self.pid_rate_y.update(rate_y_des, w.y, dt),
            self.pid_rate_z.update(rate_z_des, w.z, dt),
        );

        // --- Collective thrust -------------------------------------------
        // Hover thrust compensated for tilt, plus the climb command.
        let tilt_comp = (roll.cos() * pitch.cos()).max(0.5);
        let thrust = (self.quad.mass * GRAVITY * (1.0 + az_g)) / tilt_comp;

        self.mixer.mix(thrust, torque)
    }

    fn save_state(&self, w: &mut SnapWriter) {
        // Gains, airframe, and mixer are structural; the cascade's dynamic
        // state is the six controllers' integrators and derivative history.
        let SimpleFlight {
            config: _,
            quad: _,
            mixer: _,
            pid_vx,
            pid_vy,
            pid_vz,
            pid_rate_x,
            pid_rate_y,
            pid_rate_z,
        } = self;
        pid_vx.save_state(w);
        pid_vy.save_state(w);
        pid_vz.save_state(w);
        pid_rate_x.save_state(w);
        pid_rate_y.save_state(w);
        pid_rate_z.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.pid_vx.restore_state(r)?;
        self.pid_vy.restore_state(r)?;
        self.pid_vz.restore_state(r)?;
        self.pid_rate_x.restore_state(r)?;
        self.pid_rate_y.restore_state(r)?;
        self.pid_rate_z.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_envsim::uav::{UavSim, UavSimConfig};
    use rose_envsim::world::World;
    use rose_sim_core::rng::SimRng;

    fn flown_sim(start_yaw: f64) -> UavSim {
        let config = UavSimConfig {
            start_yaw,
            ..UavSimConfig::default()
        };
        let fc = SimpleFlight::default_for(config.quad);
        UavSim::new(config, World::tunnel(), Box::new(fc), &SimRng::new(5))
    }

    #[test]
    fn holds_altitude_at_hover() {
        let mut sim = flown_sim(0.0);
        sim.step_frames(300); // 5 s
        let p = sim.pose();
        assert!((p.position.z - 1.5).abs() < 0.15, "z = {}", p.position.z);
        assert!(
            p.velocity.norm() < 0.2,
            "residual v = {}",
            p.velocity.norm()
        );
        assert_eq!(sim.collision_count(), 0);
    }

    #[test]
    fn tracks_forward_velocity() {
        let mut sim = flown_sim(0.0);
        sim.set_target(VelocityTarget::forward(3.0));
        sim.step_frames(240); // 4 s
        let p = sim.pose();
        assert!(
            (p.velocity.x - 3.0).abs() < 0.4,
            "vx = {} after 4 s",
            p.velocity.x
        );
        assert!(p.position.x > 6.0, "x = {}", p.position.x);
        assert!(p.position.y.abs() < 0.3, "drifted to y = {}", p.position.y);
        assert!((p.position.z - 1.5).abs() < 0.3, "z = {}", p.position.z);
    }

    #[test]
    fn tracks_lateral_velocity() {
        let mut sim = flown_sim(0.0);
        sim.set_target(VelocityTarget {
            lateral: 0.5,
            ..VelocityTarget::default()
        });
        sim.step_frames(120); // 2 s
        let p = sim.pose();
        assert!(p.position.y > 0.3, "y = {} should move left", p.position.y);
        assert!((p.velocity.y - 0.5).abs() < 0.2, "vy = {}", p.velocity.y);
    }

    #[test]
    fn tracks_yaw_rate() {
        let mut sim = flown_sim(0.0);
        sim.set_target(VelocityTarget {
            yaw_rate: 0.5,
            ..VelocityTarget::default()
        });
        sim.step_frames(120); // 2 s at 0.5 rad/s -> ~1 rad
        let p = sim.pose();
        assert!(
            (p.yaw - 1.0).abs() < 0.25,
            "yaw = {} after 2 s of 0.5 rad/s",
            p.yaw
        );
    }

    #[test]
    fn forward_flight_follows_heading() {
        // Starting yawed 20 degrees, a forward command moves along the
        // heading, not the world x-axis.
        let yaw0 = 20f64.to_radians();
        let mut sim = flown_sim(yaw0);
        sim.set_target(VelocityTarget::forward(2.0));
        sim.step_frames(180);
        let p = sim.pose();
        let track = p.position.y.atan2(p.position.x);
        assert!(
            (track - yaw0).abs() < 0.15,
            "track {track} vs heading {yaw0}"
        );
    }
}
