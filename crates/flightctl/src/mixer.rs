//! Motor mixer: collective thrust + body torques → per-motor commands.
//!
//! The inverse of the X-configuration thrust/torque allocation used by
//! [`rose_envsim::dynamics::QuadrotorBody`]. Motor order is front-left,
//! front-right, rear-left, rear-right; front-left and rear-right spin
//! counterclockwise.

use rose_envsim::dynamics::{MotorCommand, QuadrotorParams};
use rose_sim_core::math::Vec3;

/// Allocates thrust and torques to four motors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mixer {
    /// Effective moment arm (arm length projected onto each axis).
    arm: f64,
    /// Rotor torque-to-thrust ratio.
    torque_coeff: f64,
    /// Max thrust of one motor (for normalization).
    max_thrust: f64,
}

impl Mixer {
    /// Creates a mixer matched to the airframe.
    pub fn new(quad: QuadrotorParams) -> Mixer {
        Mixer {
            arm: quad.arm_length * std::f64::consts::FRAC_1_SQRT_2,
            torque_coeff: quad.torque_coeff,
            max_thrust: quad.max_thrust_per_motor,
        }
    }

    /// Computes normalized motor commands realizing `thrust` (N, total) and
    /// `torque` (N·m, body frame). Commands are clamped to `[0, 1]`; thrust
    /// priority is preserved by clamping after allocation.
    pub fn mix(&self, thrust: f64, torque: Vec3) -> MotorCommand {
        let t4 = thrust / 4.0;
        let dx = torque.x / (4.0 * self.arm);
        let dy = torque.y / (4.0 * self.arm);
        let dz = torque.z / (4.0 * self.torque_coeff);
        // Forces per motor (see QuadrotorBody::step for the forward map):
        //   tau_x = arm * ((fl + rl) - (fr + rr))
        //   tau_y = arm * ((rl + rr) - (fl + fr))
        //   tau_z = k   * ((fr + rl) - (fl + rr))
        let fl = t4 + dx - dy - dz;
        let fr = t4 - dx - dy + dz;
        let rl = t4 + dx + dy + dz;
        let rr = t4 - dx + dy - dz;
        MotorCommand([
            fl / self.max_thrust,
            fr / self.max_thrust,
            rl / self.max_thrust,
            rr / self.max_thrust,
        ])
        .clamped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixer() -> Mixer {
        Mixer::new(QuadrotorParams::default())
    }

    #[test]
    fn pure_thrust_is_uniform() {
        let p = QuadrotorParams::default();
        let cmd = mixer().mix(p.hover_thrust(), Vec3::ZERO);
        let h = p.hover_command();
        for u in cmd.0 {
            assert!((u - h).abs() < 1e-12, "u = {u}, hover = {h}");
        }
    }

    #[test]
    fn mixer_inverts_dynamics_allocation() {
        // Round-trip: mix(thrust, torque) -> forward thrust/torque map.
        let p = QuadrotorParams::default();
        let thrust = 8.0;
        let torque = Vec3::new(0.02, -0.03, 0.004);
        let cmd = mixer().mix(thrust, torque);
        let f: Vec<f64> = cmd.0.iter().map(|u| u * p.max_thrust_per_motor).collect();
        let (fl, fr, rl, rr) = (f[0], f[1], f[2], f[3]);
        let arm = p.arm_length * std::f64::consts::FRAC_1_SQRT_2;
        assert!((fl + fr + rl + rr - thrust).abs() < 1e-9);
        assert!((arm * ((fl + rl) - (fr + rr)) - torque.x).abs() < 1e-9);
        assert!((arm * ((rl + rr) - (fl + fr)) - torque.y).abs() < 1e-9);
        assert!((p.torque_coeff * ((fr + rl) - (fl + rr)) - torque.z).abs() < 1e-9);
    }

    #[test]
    fn saturation_clamps_to_unit_range() {
        let cmd = mixer().mix(1000.0, Vec3::new(10.0, -10.0, 1.0));
        for u in cmd.0 {
            assert!((0.0..=1.0).contains(&u));
        }
        let cmd = mixer().mix(-5.0, Vec3::ZERO);
        for u in cmd.0 {
            assert_eq!(u, 0.0);
        }
    }
}
