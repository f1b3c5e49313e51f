//! The simulator API's value types.
//!
//! AirSim exposes a remote-procedure-call API for sensor readings,
//! actuation, and simulator commands (Section 3.1). The RoSÉ synchronizer
//! decodes I/O packets from the simulated SoC and translates them into
//! these API calls (Algorithm 1: `cmd <- decode(datum); call_airsim_api(cmd)`).
//! Here the calls are direct methods on [`UavSim`](crate::uav::UavSim):
//! `image`, `imu` and `depth` for sensors, `set_target` for actuation,
//! and `pose` for the ground truth the evaluation logs.

use rose_sim_core::math::Vec3;

/// A velocity-level control target, as sent from the companion computer to
/// the flight controller (angular and linear velocity targets, Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityTarget {
    /// Forward velocity target in the body frame (m/s).
    pub forward: f64,
    /// Lateral velocity target in the body frame, positive left (m/s).
    pub lateral: f64,
    /// Yaw rate target (rad/s), positive counterclockwise.
    pub yaw_rate: f64,
    /// Altitude to hold (m above ground).
    pub altitude: f64,
}

impl Default for VelocityTarget {
    /// Hover in place at 1.5 m.
    fn default() -> VelocityTarget {
        VelocityTarget {
            forward: 0.0,
            lateral: 0.0,
            yaw_rate: 0.0,
            altitude: 1.5,
        }
    }
}

impl VelocityTarget {
    /// A forward-flight target at `forward` m/s holding the default altitude.
    pub fn forward(forward: f64) -> VelocityTarget {
        VelocityTarget {
            forward,
            ..VelocityTarget::default()
        }
    }
}

/// The UAV's ground-truth pose, for logging and evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// World position (m).
    pub position: Vec3,
    /// World-frame velocity (m/s).
    pub velocity: Vec3,
    /// Heading (yaw) in radians.
    pub yaw: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_target_hovers() {
        let t = VelocityTarget::default();
        assert_eq!(t.forward, 0.0);
        assert_eq!(t.altitude, 1.5);
    }
}
