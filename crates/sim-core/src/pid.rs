//! A PID controller with output saturation and integral anti-windup.
//!
//! The flight controller (Section 4.2.2's SimpleFlight substitute) is a
//! hierarchy of these controllers managing position, velocity, and angle of
//! attack targets.

use crate::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// PID gains and limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Symmetric output saturation (`None` = unlimited).
    pub output_limit: Option<f64>,
    /// Symmetric clamp on the integral accumulator (`None` = unlimited).
    pub integral_limit: Option<f64>,
}

impl PidConfig {
    /// A proportional-only controller.
    pub fn p(kp: f64) -> PidConfig {
        PidConfig {
            kp,
            ki: 0.0,
            kd: 0.0,
            output_limit: None,
            integral_limit: None,
        }
    }

    /// A PI controller.
    pub fn pi(kp: f64, ki: f64) -> PidConfig {
        PidConfig {
            ki,
            ..PidConfig::p(kp)
        }
    }

    /// A full PID controller.
    pub fn pid(kp: f64, ki: f64, kd: f64) -> PidConfig {
        PidConfig {
            ki,
            kd,
            ..PidConfig::p(kp)
        }
    }

    /// Sets the symmetric output limit (builder style).
    pub fn with_output_limit(mut self, limit: f64) -> PidConfig {
        self.output_limit = Some(limit);
        self
    }

    /// Sets the symmetric integral clamp (builder style).
    pub fn with_integral_limit(mut self, limit: f64) -> PidConfig {
        self.integral_limit = Some(limit);
        self
    }
}

/// A single-axis PID controller.
///
/// # Example
///
/// ```
/// use rose_sim_core::pid::{Pid, PidConfig};
///
/// let mut pid = Pid::new(PidConfig::pid(2.0, 0.5, 0.1).with_output_limit(1.0));
/// let u = pid.update(1.0 /* target */, 0.0 /* measured */, 0.01 /* dt */);
/// assert!(u > 0.0 && u <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    prev_error: Option<f64>,
}

impl Pid {
    /// Creates a controller with zeroed state.
    pub fn new(config: PidConfig) -> Pid {
        Pid {
            config,
            integral: 0.0,
            prev_error: None,
        }
    }

    /// The configured gains.
    pub fn config(&self) -> &PidConfig {
        &self.config
    }

    /// Current integral accumulator (useful in tests).
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Resets integral and derivative history.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
    }

    /// Serializes the controller's dynamic state (gains are structural).
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Pid {
            config: _,
            integral,
            prev_error,
        } = self;
        w.f64(*integral);
        w.opt(*prev_error, SnapWriter::f64);
    }

    /// Restores the controller's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.integral = r.f64()?;
        self.prev_error = r.opt(SnapReader::f64)?;
        Ok(())
    }

    /// Advances the controller by `dt` seconds and returns the new output.
    ///
    /// Uses error-derivative form; the first call after a reset has zero
    /// derivative contribution. Anti-windup: the integral is clamped, and is
    /// additionally frozen while the output is saturated in the same
    /// direction as the error (conditional integration).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn update(&mut self, target: f64, measured: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "PID dt must be positive, got {dt}");
        let error = target - measured;

        let derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.prev_error = Some(error);

        // Tentative unsaturated output with the current integral.
        let mut integral = self.integral + error * dt;
        if let Some(lim) = self.config.integral_limit {
            integral = integral.clamp(-lim, lim);
        }
        let raw = self.config.kp * error + self.config.ki * integral + self.config.kd * derivative;

        let out = match self.config.output_limit {
            Some(lim) => raw.clamp(-lim, lim),
            None => raw,
        };

        // Conditional integration: only accept the new integral if we are
        // not pushing further into saturation.
        let saturated_same_dir = out != raw && (raw - out).signum() == error.signum();
        if !saturated_same_dir {
            self.integral = integral;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_response() {
        let mut pid = Pid::new(PidConfig::p(2.0));
        assert_eq!(pid.update(1.0, 0.0, 0.01), 2.0);
        assert_eq!(pid.update(1.0, 0.5, 0.01), 1.0);
    }

    #[test]
    fn integral_accumulates() {
        let mut pid = Pid::new(PidConfig::pi(0.0, 1.0));
        let mut out = 0.0;
        for _ in 0..100 {
            out = pid.update(1.0, 0.0, 0.01);
        }
        // integral of error 1.0 over 1 s = 1.0
        assert!((out - 1.0).abs() < 1e-9, "out {out}");
    }

    #[test]
    fn output_limit_respected() {
        let mut pid = Pid::new(PidConfig::p(100.0).with_output_limit(0.5));
        assert_eq!(pid.update(1.0, 0.0, 0.01), 0.5);
        assert_eq!(pid.update(-1.0, 0.0, 0.01), -0.5);
    }

    #[test]
    fn anti_windup_freezes_integral() {
        let mut pid = Pid::new(PidConfig::pi(1.0, 10.0).with_output_limit(0.1));
        for _ in 0..1000 {
            pid.update(1.0, 0.0, 0.01);
        }
        // Without anti-windup the integral would be ~100; frozen at entry to
        // saturation it stays tiny, so recovery after a target flip is fast.
        assert!(pid.integral() < 0.2, "integral {} wound up", pid.integral());
        // After the error flips sign, output leaves saturation quickly.
        let out = pid.update(-1.0, 0.0, 0.01);
        assert!(out < 0.0, "out {out} should have flipped immediately");
    }

    #[test]
    fn derivative_kicks_on_error_change() {
        let mut pid = Pid::new(PidConfig::pid(0.0, 0.0, 1.0));
        assert_eq!(pid.update(1.0, 0.0, 0.1), 0.0); // first call: no history
        let out = pid.update(1.0, 0.5, 0.1); // error 1.0 -> 0.5 over 0.1 s
        assert!((out + 5.0).abs() < 1e-9, "out {out}");
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = Pid::new(PidConfig::pid(1.0, 1.0, 1.0));
        pid.update(1.0, 0.0, 0.1);
        pid.update(1.0, 0.2, 0.1);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        // First post-reset call has no derivative term.
        let out = pid.update(1.0, 0.0, 0.1);
        assert!((out - (1.0 + 0.1)).abs() < 1e-9, "out {out}");
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        Pid::new(PidConfig::p(1.0)).update(1.0, 0.0, 0.0);
    }
}
