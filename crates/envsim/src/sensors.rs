//! Sensor models: IMU and forward depth sensor.
//!
//! The evaluation drone has an IMU available to the flight controller and a
//! forward-facing depth sensor used by the dynamic runtime to estimate time
//! until collision (Section 5.3). Sensor readings are derived from the true
//! simulation state with seeded bias and Gaussian noise, mirroring AirSim's
//! inertial sensor models.

use crate::dynamics::QuadrotorBody;
use crate::world::{World, P2};
use rose_sim_core::math::Vec3;
use rose_sim_core::rng::SimRng;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// One IMU sample.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ImuSample {
    /// Body-frame specific force (m/s²): what the accelerometer measures.
    pub accel: Vec3,
    /// Body-frame angular rate (rad/s).
    pub gyro: Vec3,
    /// Sample timestamp in simulated seconds.
    pub timestamp: f64,
}

/// IMU noise parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuConfig {
    /// Accelerometer white-noise standard deviation (m/s²).
    pub accel_noise: f64,
    /// Gyroscope white-noise standard deviation (rad/s).
    pub gyro_noise: f64,
    /// Maximum magnitude of the constant per-run accelerometer bias (m/s²).
    pub accel_bias: f64,
    /// Maximum magnitude of the constant per-run gyroscope bias (rad/s).
    pub gyro_bias: f64,
}

impl Default for ImuConfig {
    /// Parameters representative of a consumer MEMS IMU.
    fn default() -> ImuConfig {
        ImuConfig {
            accel_noise: 0.05,
            gyro_noise: 0.005,
            accel_bias: 0.02,
            gyro_bias: 0.002,
        }
    }
}

/// A simulated IMU with per-run constant bias and white noise.
#[derive(Debug, Clone)]
pub struct Imu {
    config: ImuConfig,
    accel_bias: Vec3,
    gyro_bias: Vec3,
    rng: SimRng,
}

impl Imu {
    /// Creates an IMU, drawing its constant bias from `rng`.
    pub fn new(config: ImuConfig, rng: &SimRng) -> Imu {
        let mut bias_rng = rng.split("imu-bias");
        let b = |max: f64, r: &mut SimRng| {
            Vec3::new(
                r.uniform(-max, max),
                r.uniform(-max, max),
                r.uniform(-max, max),
            )
        };
        Imu {
            config,
            accel_bias: b(config.accel_bias, &mut bias_rng),
            gyro_bias: b(config.gyro_bias, &mut bias_rng),
            rng: rng.split("imu-noise"),
        }
    }

    /// Serializes the IMU's dynamic state: the per-run bias draw and the
    /// noise stream position. The bias is serialized (not re-derived)
    /// because it was drawn from the seed at construction and must stay
    /// identical across a resume.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Imu {
            config: _,
            accel_bias,
            gyro_bias,
            rng,
        } = self;
        accel_bias.save_state(w);
        gyro_bias.save_state(w);
        rng.save_state(w);
    }

    /// Restores the IMU's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.accel_bias = Vec3::restore_state(r)?;
        self.gyro_bias = Vec3::restore_state(r)?;
        self.rng.restore_state(r)
    }

    /// Applies a step change to the accelerometer bias, modeling an
    /// in-flight degradation event (thermal drift, a knock). The shift is
    /// part of the dynamic state: it lands in `accel_bias`, which is
    /// serialized, so a snapshot taken after the step resumes with the
    /// degraded bias intact.
    pub fn shift_accel_bias(&mut self, delta: Vec3) {
        self.accel_bias += delta;
    }

    /// The current accelerometer bias (initial draw plus any applied
    /// [`shift_accel_bias`](Imu::shift_accel_bias) steps).
    pub fn accel_bias(&self) -> Vec3 {
        self.accel_bias
    }

    /// Samples the IMU given the true body state.
    pub fn sample(&mut self, body: &QuadrotorBody, timestamp: f64) -> ImuSample {
        let noise = |std_dev: f64, r: &mut SimRng| {
            Vec3::new(
                r.normal(0.0, std_dev),
                r.normal(0.0, std_dev),
                r.normal(0.0, std_dev),
            )
        };
        ImuSample {
            accel: body.specific_force()
                + self.accel_bias
                + noise(self.config.accel_noise, &mut self.rng),
            gyro: body.state().angular_velocity
                + self.gyro_bias
                + noise(self.config.gyro_noise, &mut self.rng),
            timestamp,
        }
    }
}

/// One depth sensor reading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthSample {
    /// Distance to the closest obstacle along the current heading (m),
    /// clamped to the sensor range.
    pub depth: f64,
    /// Sample timestamp in simulated seconds.
    pub timestamp: f64,
}

/// Forward depth sensor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthConfig {
    /// Maximum range (m).
    pub max_range: f64,
    /// Multiplicative noise standard deviation (fraction of reading).
    pub noise_frac: f64,
}

impl Default for DepthConfig {
    fn default() -> DepthConfig {
        DepthConfig {
            max_range: 40.0,
            noise_frac: 0.01,
        }
    }
}

/// A simulated forward depth sensor.
#[derive(Debug, Clone)]
pub struct DepthSensor {
    config: DepthConfig,
    rng: SimRng,
}

impl DepthSensor {
    /// Creates a depth sensor.
    pub fn new(config: DepthConfig, rng: &SimRng) -> DepthSensor {
        DepthSensor {
            config,
            rng: rng.split("depth-noise"),
        }
    }

    /// Serializes the sensor's dynamic state (the noise stream position).
    pub fn save_state(&self, w: &mut SnapWriter) {
        let DepthSensor { config: _, rng } = self;
        rng.save_state(w);
    }

    /// Restores the sensor's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng.restore_state(r)
    }

    /// Measures the depth `D_obj` of the closest object in the current
    /// heading of the UAV (Equation 3).
    pub fn sample(&mut self, world: &World, pos: Vec3, yaw: f64, timestamp: f64) -> DepthSample {
        let true_depth = world
            .raycast(P2::new(pos.x, pos.y), yaw)
            .unwrap_or(self.config.max_range)
            .min(self.config.max_range);
        let noisy = true_depth * (1.0 + self.rng.normal(0.0, self.config.noise_frac));
        DepthSample {
            depth: noisy.clamp(0.0, self.config.max_range),
            timestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{QuadrotorParams, RigidBodyState};
    use crate::world::World;

    #[test]
    fn imu_measures_gravity_at_rest_hover() {
        let params = QuadrotorParams::default();
        let mut body = QuadrotorBody::new(
            params,
            RigidBodyState {
                position: Vec3::new(0.0, 0.0, 2.0),
                ..RigidBodyState::default()
            },
        );
        // Settle motor lag at hover.
        for _ in 0..1000 {
            body.step(
                crate::dynamics::MotorCommand::uniform(params.hover_command()),
                1.0 / 400.0,
            );
        }
        let rng = SimRng::new(1);
        let mut imu = Imu::new(ImuConfig::default(), &rng);
        let mut sum = Vec3::ZERO;
        let n = 500;
        for i in 0..n {
            sum += imu.sample(&body, i as f64 * 0.01).accel;
        }
        let mean = sum / n as f64;
        assert!(
            (mean.z - crate::dynamics::GRAVITY).abs() < 0.3,
            "mean accel z {}",
            mean.z
        );
    }

    #[test]
    fn imu_is_deterministic_per_seed() {
        let params = QuadrotorParams::default();
        let body = QuadrotorBody::new(params, RigidBodyState::default());
        let mk = || {
            let rng = SimRng::new(77);
            let mut imu = Imu::new(ImuConfig::default(), &rng);
            imu.sample(&body, 0.0)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn bias_step_shifts_the_mean_and_survives_a_snapshot() {
        let params = QuadrotorParams::default();
        let body = QuadrotorBody::new(params, RigidBodyState::default());
        let rng = SimRng::new(9);
        let mut imu = Imu::new(ImuConfig::default(), &rng);
        let before = imu.accel_bias();
        imu.shift_accel_bias(Vec3::new(0.5, 0.0, -0.25));
        assert!((imu.accel_bias().x - before.x - 0.5).abs() < 1e-12);
        assert!((imu.accel_bias().z - before.z + 0.25).abs() < 1e-12);

        // The shifted bias rides along in the snapshot.
        let mut w = rose_sim_core::snap::SnapWriter::new();
        imu.save_state(&mut w);
        let buf = w.into_bytes();
        let mut restored = Imu::new(ImuConfig::default(), &SimRng::new(1234));
        let mut r = rose_sim_core::snap::SnapReader::new(&buf);
        restored.restore_state(&mut r).unwrap();
        let mut a = imu.clone();
        assert_eq!(a.sample(&body, 1.0), restored.sample(&body, 1.0));
    }

    #[test]
    fn depth_sensor_sees_wall() {
        let world = World::tunnel();
        let rng = SimRng::new(3);
        let mut depth = DepthSensor::new(
            DepthConfig {
                noise_frac: 0.0,
                ..DepthConfig::default()
            },
            &rng,
        );
        // Looking 90° left from center: wall at 1.6 m.
        let s = depth.sample(
            &world,
            Vec3::new(10.0, 0.0, 1.0),
            std::f64::consts::FRAC_PI_2,
            0.0,
        );
        assert!((s.depth - 1.6).abs() < 1e-9, "depth {}", s.depth);
        // Looking down the open tunnel: clamped to max range.
        let s = depth.sample(&world, Vec3::new(10.0, 0.0, 1.0), 0.0, 0.0);
        assert_eq!(s.depth, DepthConfig::default().max_range);
    }
}
