//! Golden motor commands: `SimpleFlight` flying a rigid body from a fixed,
//! tilted and spinning start towards a fixed target must command the same
//! motor outputs, bit for bit, as the recorded run.

use rose_envsim::api::VelocityTarget;
use rose_envsim::dynamics::{MotorCommand, QuadrotorBody, QuadrotorParams, RigidBodyState};
use rose_envsim::Autopilot;
use rose_flightctl::SimpleFlight;
use rose_sim_core::math::{Quat, Vec3};

/// Commands in the recorded run.
const STEPS: usize = 256;

/// The controller's commands, closing the loop through the rigid body at
/// the mission's physics step (60 frames/s, 8 substeps).
fn golden_commands() -> Vec<MotorCommand> {
    let params = QuadrotorParams::default();
    let start = RigidBodyState {
        position: Vec3::new(1.0, -0.5, 1.45),
        velocity: Vec3::new(0.6, 0.3, -0.05),
        attitude: Quat::from_euler(0.12, -0.08, 0.3),
        angular_velocity: Vec3::new(0.2, -0.1, 0.3),
    };
    let target = VelocityTarget {
        forward: 1.5,
        lateral: -0.7,
        yaw_rate: 0.6,
        altitude: 1.5,
    };
    let mut body = QuadrotorBody::new(params, start);
    let mut fc = SimpleFlight::default_for(params);
    let dt = 1.0 / 60.0 / 8.0;
    (0..STEPS)
        .map(|_| {
            let cmd = fc.command(body.state(), &target, dt);
            body.step(cmd, dt);
            cmd
        })
        .collect()
}

/// FNV-1a over every command's bit patterns, in order.
fn digest(cmds: &[MotorCommand]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for bits in cmds.iter().flat_map(|c| c.0.map(f64::to_bits)) {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn motor_commands_are_pinned() {
    let cmds = golden_commands();
    assert_eq!(cmds.len(), STEPS);
    assert_eq!(
        cmds[STEPS - 1].0.map(f64::to_bits),
        [
            4602977548457792842,
            4602655971871448000,
            4602933223800692242,
            4602135255059091235
        ],
        "last command"
    );
    assert_eq!(
        digest(&cmds),
        0xff47_ceaf_119d_1fc4,
        "digest of {STEPS} commands"
    );
}
