//! `Quat::yaw` is bit for bit the yaw term of `Quat::to_euler`, for any
//! quaternion the simulation can hold.

use proptest::prelude::*;
use rose_sim_core::math::Quat;
use std::f64::consts::FRAC_1_SQRT_2;

fn assert_same_yaw(q: Quat) {
    assert_eq!(q.yaw().to_bits(), q.to_euler().2.to_bits(), "yaw of {q:?}");
}

proptest! {
    /// Unit quaternions, as the rigid body keeps them.
    #[test]
    fn yaw_matches_to_euler_on_unit_quaternions(
        roll in -3.5f64..3.5,
        pitch in -1.6f64..1.6,
        yaw in -3.5f64..3.5,
    ) {
        assert_same_yaw(Quat::from_euler(roll, pitch, yaw));
    }

    /// Raw components of any scale, normalized inside both calls.
    #[test]
    fn yaw_matches_to_euler_on_raw_quaternions(
        w in -1e3f64..1e3,
        x in -1e3f64..1e3,
        y in -1e3f64..1e3,
        z in -1e3f64..1e3,
        pick in 0usize..5,
    ) {
        let scale = [1e-300, 1e-8, 1.0, 1e8, 1e300][pick];
        assert_same_yaw(Quat::new(w * scale, x * scale, y * scale, z * scale));
    }
}

/// The zero quaternion, NaN components and gimbal lock (`|sinp| ≥ 1`,
/// where pitch saturates at ±π/2).
#[test]
fn yaw_matches_to_euler_at_the_degenerate_attitudes() {
    let h = FRAC_1_SQRT_2;
    let cases = [
        Quat::new(0.0, 0.0, 0.0, 0.0),
        Quat::new(f64::NAN, 0.0, 0.0, 0.0),
        Quat::new(1.0, f64::NAN, 0.0, 0.0),
        Quat::new(0.5, 0.5, f64::NAN, 0.5),
        Quat::new(1.0, 0.0, 0.0, f64::NAN),
        Quat::new(f64::INFINITY, 0.0, 0.0, 0.0),
        Quat::new(h, 0.0, h, 0.0),
        Quat::new(h, 0.0, -h, 0.0),
        Quat::new(0.5, 0.5, 0.5, -0.5),
        Quat::new(0.5, -0.5, 0.5, 0.5),
        Quat::new(1.0, 1.0, 1.0, -1.0),
        Quat::new(0.0, h, 0.0, -h),
    ];
    for q in cases {
        assert_same_yaw(q);
    }
    // At least one case really saturates the pitch.
    let locked = Quat::new(0.5, 0.5, 0.5, -0.5).to_euler().1;
    assert_eq!(locked.abs(), std::f64::consts::FRAC_PI_2);
}
