//! Deterministic simulation substrate shared by every crate in the RoSÉ
//! reproduction.
//!
//! This crate provides the building blocks that both simulation domains
//! (the environment simulator and the SoC simulator) are built from:
//!
//! * [`cycles`] — the two clock domains: the SoC's [`cycles::ClockSpec`],
//!   the environment's [`cycles::FrameSpec`], and the
//!   [`cycles::SyncRatio`] conversions between cycles and frames
//!   (Equation 1 of the paper).
//! * [`rng`] — seeded, splittable deterministic random number generation so
//!   that a simulation seed reproduces a trajectory bit-exactly.
//! * [`fnv`] — platform-stable FNV-1a hashing, the digest primitive behind
//!   the cross-run determinism auditor.
//! * [`math`] — the small amount of 3-D math a quadrotor simulation needs:
//!   [`math::Vec3`], [`math::Quat`], and helpers.
//! * [`pid`] — a production-style PID controller with output limits and
//!   integral anti-windup, used by the flight controller cascade.
//! * [`csv`] — minimal CSV log writing matching the artifact's CSV outputs.
//! * [`snap`] — the versioned, dependency-free snapshot codec behind
//!   mission snapshot / resume.
//! * [`lock`] — the workspace's one way to take a `Mutex`, and so its one
//!   rule for a poisoned lock.
//!
//! # Example
//!
//! ```
//! use rose_sim_core::cycles::{ClockSpec, FrameSpec, SyncRatio};
//!
//! // A 1 GHz SoC co-simulated with a 60 Hz environment: one sync period of
//! // one frame corresponds to 16.67M SoC cycles (Equation 1).
//! let soc = ClockSpec::from_hz(1_000_000_000);
//! let env = FrameSpec::from_hz(60);
//! let ratio = SyncRatio::new(soc, env);
//! assert_eq!(ratio.cycles_per_frame(), 16_666_666);
//! ```

#![deny(missing_docs)]

pub mod csv;
pub mod cycles;
pub mod fnv;
pub mod math;
pub mod pid;
pub mod rng;
pub mod snap;

pub use cycles::{ClockSpec, FrameSpec, SyncRatio};
pub use fnv::Fnv64;
pub use math::{Quat, Vec3};
pub use pid::Pid;
pub use rng::SimRng;
pub use snap::{SnapError, SnapReader, SnapWriter};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a thread panicked while holding
/// it.
///
/// Every lock in the workspace goes through here. What they guard —
/// metrics counters, the timing memo, the trace intern table, transport
/// queues, sweep slots — is plain data that each critical section updates
/// in one step, so a panic cannot leave it half-written, and the panic
/// still surfaces where it happened. Recovering means one failed mission
/// does not fail every later user of the same lock.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_a_poisoned_guard_with_its_value() {
        let m = Mutex::new(3);
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                *lock(&m) += 4;
                let _guard = lock(&m);
                panic!("poison the lock");
            });
            assert!(held.join().is_err());
        });
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }
}
