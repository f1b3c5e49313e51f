//! 6-DoF quadrotor rigid-body dynamics.
//!
//! The body is an "X"-configuration quadrotor: four rotors at the ends of
//! two crossed arms. Motor angular velocity is commanded by the flight
//! controller through normalized thrust commands (the ESC/mixed-signal layer
//! of Figure 7 is abstracted as a first-order thrust lag). Integration is
//! semi-implicit Euler at a configurable substep rate, stepped in
//! frame-sized chunks by the environment simulator.

use rose_sim_core::math::{Quat, Vec3};
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// Gravitational acceleration (m/s²).
pub const GRAVITY: f64 = 9.80665;

/// Physical parameters of the simulated quadrotor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadrotorParams {
    /// Vehicle mass in kg.
    pub mass: f64,
    /// Diagonal body inertia (kg·m²) about x, y, z.
    pub inertia: Vec3,
    /// Arm length from center to each rotor (m).
    pub arm_length: f64,
    /// Maximum thrust per rotor (N).
    pub max_thrust_per_motor: f64,
    /// Rotor torque-to-thrust ratio (m) for yaw authority.
    pub torque_coeff: f64,
    /// Linear drag coefficient (N per m/s).
    pub linear_drag: f64,
    /// Angular drag coefficient (N·m per rad/s).
    pub angular_drag: f64,
    /// Motor first-order time constant (s).
    pub motor_tau: f64,
    /// Collision radius of the body (m).
    pub radius: f64,
}

impl Default for QuadrotorParams {
    /// A ~1 kg research quadrotor, comparable to the AirSim default drone.
    fn default() -> QuadrotorParams {
        QuadrotorParams {
            mass: 1.0,
            inertia: Vec3::new(0.01, 0.01, 0.018),
            arm_length: 0.18,
            max_thrust_per_motor: 5.0,
            torque_coeff: 0.016,
            linear_drag: 0.3,
            angular_drag: 0.003,
            motor_tau: 0.02,
            radius: 0.3,
        }
    }
}

impl QuadrotorParams {
    /// The total hover thrust (N).
    pub fn hover_thrust(&self) -> f64 {
        self.mass * GRAVITY
    }

    /// Normalized per-motor command that produces hover.
    pub fn hover_command(&self) -> f64 {
        self.hover_thrust() / (4.0 * self.max_thrust_per_motor)
    }
}

/// The full rigid-body state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RigidBodyState {
    /// World-frame position (m). Z is up; the floor is z = 0.
    pub position: Vec3,
    /// World-frame linear velocity (m/s).
    pub velocity: Vec3,
    /// Body-to-world attitude.
    pub attitude: Quat,
    /// Body-frame angular velocity (rad/s).
    pub angular_velocity: Vec3,
}

impl Default for RigidBodyState {
    fn default() -> RigidBodyState {
        RigidBodyState {
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
            attitude: Quat::IDENTITY,
            angular_velocity: Vec3::ZERO,
        }
    }
}

impl RigidBodyState {
    /// Serializes the state bit-exactly.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let RigidBodyState {
            position,
            velocity,
            attitude,
            angular_velocity,
        } = self;
        position.save_state(w);
        velocity.save_state(w);
        attitude.save_state(w);
        angular_velocity.save_state(w);
    }

    /// Deserializes a state written by [`RigidBodyState::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a truncated snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<RigidBodyState, SnapError> {
        Ok(RigidBodyState {
            position: Vec3::restore_state(r)?,
            velocity: Vec3::restore_state(r)?,
            attitude: Quat::restore_state(r)?,
            angular_velocity: Vec3::restore_state(r)?,
        })
    }

    /// Current yaw (heading) angle.
    pub fn yaw(&self) -> f64 {
        self.attitude.yaw()
    }
}

/// Normalized motor commands in `[0, 1]`, X configuration.
///
/// Motor order: front-left, front-right, rear-left, rear-right.
/// Front-left and rear-right spin counterclockwise.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MotorCommand(pub [f64; 4]);

impl MotorCommand {
    /// Uniform command to all motors.
    pub fn uniform(u: f64) -> MotorCommand {
        MotorCommand([u; 4])
    }

    /// Clamps each channel into `[0, 1]`.
    pub fn clamped(self) -> MotorCommand {
        MotorCommand(self.0.map(|u| u.clamp(0.0, 1.0)))
    }
}

/// The quadrotor body: parameters plus integrable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuadrotorBody {
    params: QuadrotorParams,
    state: RigidBodyState,
    /// Per-motor thrust after the first-order ESC lag (N).
    motor_thrust: [f64; 4],
}

impl QuadrotorBody {
    /// Creates a body at the given initial state.
    pub fn new(params: QuadrotorParams, state: RigidBodyState) -> QuadrotorBody {
        QuadrotorBody {
            params,
            state,
            motor_thrust: [params.hover_thrust() / 4.0; 4],
        }
    }

    /// Serializes the body's dynamic state (params are structural).
    pub fn save_state(&self, w: &mut SnapWriter) {
        let QuadrotorBody {
            params: _,
            state,
            motor_thrust,
        } = self;
        state.save_state(w);
        for thrust in motor_thrust {
            w.f64(*thrust);
        }
    }

    /// Restores the body's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.state = RigidBodyState::restore_state(r)?;
        for thrust in &mut self.motor_thrust {
            *thrust = r.f64()?;
        }
        Ok(())
    }

    /// Physical parameters.
    pub fn params(&self) -> &QuadrotorParams {
        &self.params
    }

    /// Current state.
    pub fn state(&self) -> &RigidBodyState {
        &self.state
    }

    /// Mutable state access (used for collision response).
    pub fn state_mut(&mut self) -> &mut RigidBodyState {
        &mut self.state
    }

    /// Advances the body by `dt` seconds under `cmd`.
    ///
    /// Ground contact is modeled as a hard floor at z = 0: downward motion
    /// stops and attitude levels out to yaw-only while grounded.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn step(&mut self, cmd: MotorCommand, dt: f64) {
        assert!(dt > 0.0, "dynamics dt must be positive");
        let p = self.params;
        let cmd = cmd.clamped();

        // First-order motor lag towards the commanded thrust.
        let alpha = dt / (p.motor_tau + dt);
        for (thrust, &u) in self.motor_thrust.iter_mut().zip(cmd.0.iter()) {
            let target = u * p.max_thrust_per_motor;
            *thrust += alpha * (target - *thrust);
        }

        let [fl, fr, rl, rr] = self.motor_thrust;
        let total_thrust = fl + fr + rl + rr;

        // Body torques from differential thrust (X configuration):
        // roll (+x body, right-wing-down): left motors up, right down.
        let l = p.arm_length * std::f64::consts::FRAC_1_SQRT_2;
        let tau_x = l * ((fl + rl) - (fr + rr));
        // pitch (+y body, nose-up): rear motors up, front down.
        let tau_y = l * ((rl + rr) - (fl + fr));
        // yaw from rotor drag torque: CCW motors (fl, rr) push -z torque.
        let tau_z = p.torque_coeff * ((fr + rl) - (fl + rr));
        let torque = Vec3::new(tau_x, tau_y, tau_z) - self.state.angular_velocity * p.angular_drag;

        // Angular dynamics (diagonal inertia, gyroscopic term included).
        let i = p.inertia;
        let w = self.state.angular_velocity;
        let i_w = Vec3::new(i.x * w.x, i.y * w.y, i.z * w.z);
        let w_dot = Vec3::new(
            (torque.x - (w.cross(i_w)).x) / i.x,
            (torque.y - (w.cross(i_w)).y) / i.y,
            (torque.z - (w.cross(i_w)).z) / i.z,
        );
        self.state.angular_velocity += w_dot * dt;
        self.state.attitude = self
            .state
            .attitude
            .integrate(self.state.angular_velocity, dt);

        // Linear dynamics: thrust along body +z, gravity, drag.
        let thrust_world = self.state.attitude.rotate(Vec3::Z) * total_thrust;
        let drag = -self.state.velocity * p.linear_drag;
        let accel = (thrust_world + drag) / p.mass - Vec3::Z * GRAVITY;
        self.state.velocity += accel * dt;
        self.state.position += self.state.velocity * dt;

        // Hard floor.
        if self.state.position.z < 0.0 {
            self.state.position.z = 0.0;
            if self.state.velocity.z < 0.0 {
                self.state.velocity.z = 0.0;
            }
            // Landing gear keeps the body level on the ground.
            let yaw = self.state.yaw();
            self.state.attitude = Quat::from_euler(0.0, 0.0, yaw);
            self.state.angular_velocity.x = 0.0;
            self.state.angular_velocity.y = 0.0;
        }
    }

    /// Body-frame specific force (what an ideal accelerometer measures).
    pub fn specific_force(&self) -> Vec3 {
        let total: f64 = self.motor_thrust.iter().sum();
        let drag_world = -self.state.velocity * self.params.linear_drag;
        let f_world = self.state.attitude.rotate(Vec3::Z) * total + drag_world;
        self.state
            .attitude
            .conjugate()
            .rotate(f_world / self.params.mass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hover_cmd(p: &QuadrotorParams) -> MotorCommand {
        MotorCommand::uniform(p.hover_command())
    }

    #[test]
    fn hover_is_near_equilibrium() {
        let p = QuadrotorParams::default();
        let start = RigidBodyState {
            position: Vec3::new(0.0, 0.0, 2.0),
            ..RigidBodyState::default()
        };
        let mut body = QuadrotorBody::new(p, start);
        let dt = 1.0 / 400.0;
        for _ in 0..4000 {
            body.step(hover_cmd(&p), dt);
        }
        let s = body.state();
        assert!(
            (s.position.z - 2.0).abs() < 0.05,
            "z drifted to {}",
            s.position.z
        );
        assert!(
            s.velocity.norm() < 0.02,
            "residual velocity {}",
            s.velocity.norm()
        );
    }

    #[test]
    fn gravity_pulls_down_with_motors_off() {
        let p = QuadrotorParams::default();
        let start = RigidBodyState {
            position: Vec3::new(0.0, 0.0, 10.0),
            ..RigidBodyState::default()
        };
        let mut body = QuadrotorBody::new(p, start);
        // Start thrusts at hover level, but command zero: the lag decays.
        let dt = 1.0 / 400.0;
        for _ in 0..400 {
            body.step(MotorCommand::uniform(0.0), dt);
        }
        assert!(body.state().velocity.z < -1.0, "should be falling");
        assert!(body.state().position.z < 10.0);
    }

    #[test]
    fn floor_stops_descent_and_levels() {
        let p = QuadrotorParams::default();
        let mut body = QuadrotorBody::new(p, RigidBodyState::default());
        let dt = 1.0 / 400.0;
        for _ in 0..800 {
            body.step(MotorCommand::uniform(0.0), dt);
        }
        let s = body.state();
        assert_eq!(s.position.z, 0.0);
        assert_eq!(s.velocity.z, 0.0);
        let (roll, pitch, _) = s.attitude.to_euler();
        assert!(roll.abs() < 1e-9 && pitch.abs() < 1e-9);
    }

    #[test]
    fn differential_thrust_rolls() {
        let p = QuadrotorParams::default();
        let start = RigidBodyState {
            position: Vec3::new(0.0, 0.0, 5.0),
            ..RigidBodyState::default()
        };
        let mut body = QuadrotorBody::new(p, start);
        let h = p.hover_command();
        // Left motors stronger -> positive roll torque -> rolls right wing
        // down... sign check: tau_x > 0 rotates about +x (right-hand rule),
        // tipping the +y side up: the body accelerates towards -y? We assert
        // the roll angle grows positive.
        let cmd = MotorCommand([h + 0.05, h - 0.05, h + 0.05, h - 0.05]);
        let dt = 1.0 / 400.0;
        for _ in 0..100 {
            body.step(cmd, dt);
        }
        let (roll, _, _) = body.state().attitude.to_euler();
        assert!(roll > 0.01, "roll {roll} should be positive");
    }

    #[test]
    fn yaw_torque_spins() {
        let p = QuadrotorParams::default();
        let start = RigidBodyState {
            position: Vec3::new(0.0, 0.0, 5.0),
            ..RigidBodyState::default()
        };
        let mut body = QuadrotorBody::new(p, start);
        let h = p.hover_command();
        // CW motors (fr, rl) stronger -> positive yaw torque.
        let cmd = MotorCommand([h - 0.05, h + 0.05, h + 0.05, h - 0.05]);
        let dt = 1.0 / 400.0;
        for _ in 0..200 {
            body.step(cmd, dt);
        }
        assert!(body.state().yaw() > 0.01, "yaw {}", body.state().yaw());
    }

    #[test]
    fn specific_force_at_hover_is_one_g_up() {
        let p = QuadrotorParams::default();
        let start = RigidBodyState {
            position: Vec3::new(0.0, 0.0, 2.0),
            ..RigidBodyState::default()
        };
        let mut body = QuadrotorBody::new(p, start);
        let dt = 1.0 / 400.0;
        for _ in 0..2000 {
            body.step(MotorCommand::uniform(p.hover_command()), dt);
        }
        let f = body.specific_force();
        assert!((f.z - GRAVITY).abs() < 0.3, "specific force z {}", f.z);
        assert!(f.x.abs() < 0.1 && f.y.abs() < 0.1);
    }
}
