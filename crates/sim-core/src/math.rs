//! Minimal 3-D math for rigid-body simulation.
//!
//! The environment simulator needs vectors, quaternions, and a handful of
//! frame conversions. World frame is NED-like but with Z up: X forward along
//! the corridor, Y left/right (lateral), Z up. Yaw is rotation about +Z.

use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component vector of `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (forward).
    pub x: f64,
    /// Y component (lateral, positive left).
    pub y: f64,
    /// Z component (up).
    pub z: f64,
}

impl Vec3 {
    /// Serializes the vector bit-exactly.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Vec3 { x, y, z } = self;
        w.f64(*x);
        w.f64(*y);
        w.f64(*z);
    }

    /// Deserializes a vector written by [`Vec3::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a truncated snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<Vec3, SnapError> {
        Ok(Vec3 {
            x: r.f64()?,
            y: r.f64()?,
            z: r.f64()?,
        })
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit X.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit Y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit Z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    pub fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction, or zero if the vector is zero.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Vec3::ZERO
        }
    }

    /// The horizontal (XY-plane) projection.
    pub fn horizontal(self) -> Vec3 {
        Vec3::new(self.x, self.y, 0.0)
    }

    /// True if all components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A unit quaternion representing a 3-D rotation (w + xi + yj + zk).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, X.
    pub x: f64,
    /// Vector part, Y.
    pub y: f64,
    /// Vector part, Z.
    pub z: f64,
}

impl Quat {
    /// Serializes the quaternion bit-exactly.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Quat { w: qw, x, y, z } = self;
        w.f64(*qw);
        w.f64(*x);
        w.f64(*y);
        w.f64(*z);
    }

    /// Deserializes a quaternion written by [`Quat::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a truncated snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<Quat, SnapError> {
        Ok(Quat {
            w: r.f64()?,
            x: r.f64()?,
            y: r.f64()?,
            z: r.f64()?,
        })
    }

    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from raw components (not normalized).
    pub fn new(w: f64, x: f64, y: f64, z: f64) -> Quat {
        Quat { w, x, y, z }
    }

    /// Rotation of `angle` radians about the (unit) `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Quat {
        let half = angle * 0.5;
        let s = half.sin();
        let a = axis.normalized();
        Quat {
            w: half.cos(),
            x: a.x * s,
            y: a.y * s,
            z: a.z * s,
        }
    }

    /// Builds from yaw (about Z), pitch (about Y), roll (about X), applied in
    /// Z-Y-X order — the aerospace convention.
    pub fn from_euler(roll: f64, pitch: f64, yaw: f64) -> Quat {
        let qz = Quat::from_axis_angle(Vec3::Z, yaw);
        let qy = Quat::from_axis_angle(Vec3::Y, pitch);
        let qx = Quat::from_axis_angle(Vec3::X, roll);
        (qz * qy * qx).normalized()
    }

    /// Decomposes into (roll, pitch, yaw) in the Z-Y-X convention, from
    /// the normalized quaternion. Pitch saturates at ±π/2 where
    /// `|sinp| ≥ 1` (gimbal lock). A caller that needs more than one angle
    /// takes all three from one call; [`Quat::yaw`] alone is cheaper.
    pub fn to_euler(self) -> (f64, f64, f64) {
        let q = self.normalized();
        let sinr_cosp = 2.0 * (q.w * q.x + q.y * q.z);
        let cosr_cosp = 1.0 - 2.0 * (q.x * q.x + q.y * q.y);
        let roll = sinr_cosp.atan2(cosr_cosp);

        let sinp = 2.0 * (q.w * q.y - q.z * q.x);
        let pitch = if sinp.abs() >= 1.0 {
            std::f64::consts::FRAC_PI_2.copysign(sinp)
        } else {
            sinp.asin()
        };

        (roll, pitch, q.unit_yaw())
    }

    /// The yaw (heading) angle about +Z: the yaw of [`Quat::to_euler`],
    /// bit for bit, without the roll and pitch terms.
    pub fn yaw(self) -> f64 {
        self.normalized().unit_yaw()
    }

    /// The yaw term of the Z-Y-X decomposition of a normalized quaternion.
    fn unit_yaw(self) -> f64 {
        let siny_cosp = 2.0 * (self.w * self.z + self.x * self.y);
        let cosy_cosp = 1.0 - 2.0 * (self.y * self.y + self.z * self.z);
        siny_cosp.atan2(cosy_cosp)
    }

    /// Quaternion norm.
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Normalized copy; returns identity if the norm is zero.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        if n > 0.0 {
            Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
        } else {
            Quat::IDENTITY
        }
    }

    /// The inverse rotation (conjugate, assuming unit norm).
    pub fn conjugate(self) -> Quat {
        Quat::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Rotates a vector by this quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2*q_vec x (q_vec x v + w*v)
        let u = Vec3::new(self.x, self.y, self.z);
        let t = u.cross(v) * 2.0;
        v + t * self.w + u.cross(t)
    }

    /// Integrates a body-frame angular velocity `omega` over `dt` seconds.
    pub fn integrate(self, omega: Vec3, dt: f64) -> Quat {
        let dq = Quat::new(0.0, omega.x, omega.y, omega.z) * self;
        Quat::new(
            self.w + 0.5 * dq.w * dt,
            self.x + 0.5 * dq.x * dt,
            self.y + 0.5 * dq.y * dt,
            self.z + 0.5 * dq.z * dt,
        )
        .normalized()
    }
}

impl Default for Quat {
    fn default() -> Quat {
        Quat::IDENTITY
    }
}

impl Mul for Quat {
    type Output = Quat;
    fn mul(self, r: Quat) -> Quat {
        Quat::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

/// Wraps an angle to `(-pi, pi]`.
pub fn wrap_angle(a: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut a = a % two_pi;
    if a > std::f64::consts::PI {
        a -= two_pi;
    } else if a <= -std::f64::consts::PI {
        a += two_pi;
    }
    a
}

/// Clamps `x` into `[lo, hi]`.
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn vec_approx(a: Vec3, b: Vec3) -> bool {
        (a - b).norm() < 1e-9
    }

    #[test]
    fn vec_basics() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!(approx(v.norm(), 5.0));
        assert!(vec_approx(v.normalized() * 5.0, v));
        assert!(approx(Vec3::X.dot(Vec3::Y), 0.0));
        assert!(vec_approx(Vec3::X.cross(Vec3::Y), Vec3::Z));
    }

    #[test]
    fn quat_rotation_about_z() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        let r = q.rotate(Vec3::X);
        assert!(vec_approx(r, Vec3::Y), "got {r:?}");
    }

    #[test]
    fn euler_roundtrip() {
        let angles = [
            (0.1, -0.2, 0.3),
            (0.0, 0.0, 2.5),
            (-0.4, 0.3, -1.2),
            (0.0, 0.0, 0.0),
        ];
        for (roll, pitch, yaw) in angles {
            let q = Quat::from_euler(roll, pitch, yaw);
            let (r, p, y) = q.to_euler();
            assert!(approx(r, roll), "roll {r} vs {roll}");
            assert!(approx(p, pitch), "pitch {p} vs {pitch}");
            assert!(approx(y, yaw), "yaw {y} vs {yaw}");
        }
    }

    #[test]
    fn quat_integration_yaw_rate() {
        // Integrating a pure yaw rate of pi/2 rad/s for 1 s in small steps
        // should yield ~90 degrees of heading.
        let mut q = Quat::IDENTITY;
        let omega = Vec3::new(0.0, 0.0, FRAC_PI_2);
        let dt = 1e-4;
        for _ in 0..10_000 {
            q = q.integrate(omega, dt);
        }
        assert!((q.yaw() - FRAC_PI_2).abs() < 1e-3, "yaw {}", q.yaw());
    }

    #[test]
    fn wrap_angle_range() {
        assert!(approx(wrap_angle(3.0 * PI), PI));
        assert!(approx(wrap_angle(-3.0 * PI), PI));
        assert!(approx(wrap_angle(0.5), 0.5));
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_euler(0.2, -0.1, 0.7);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(vec_approx(q.conjugate().rotate(q.rotate(v)), v));
    }
}
