//! The two simulation clock domains and the ratio between them.
//!
//! The co-simulation couples two clock domains:
//!
//! * the SoC simulator advances in **clock cycles** (the minimum unit of time
//!   in an RTL simulation), and
//! * the environment simulator advances in **frames** (one physics +
//!   rendering step).
//!
//! The paper's Equation 1 fixes the ratio between the two:
//!
//! ```text
//! airsim_steps / firesim_steps = soc_clock_freq / airsim_frame_freq
//! ```
//!
//! [`SyncRatio`] encodes that relation and is the single source of truth for
//! converting between domains.

use std::fmt;

// `widen` is lossless only where a `usize` fits in a `u64`: this fails the
// build on any target where it would not.
const _: () = assert!(usize::BITS <= u64::BITS);

/// Widens a `usize` count, size or index into `u64` cycle arithmetic.
///
/// Lossless on every target this crate builds for (the assertion beside it
/// is checked at compile time), so cycle code calls this rather than
/// casting, and the argument is stated once.
pub const fn widen(n: usize) -> u64 {
    // rose-lint: allow(CAST001, lossless: the const assertion above pins usize::BITS <= u64::BITS)
    n as u64
}

/// The clock frequency of the simulated SoC.
///
/// A property of the physical SoC being designed (Section 3.4.1); the default
/// target used throughout the paper's evaluation is 1 GHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockSpec {
    hz: u64,
}

impl ClockSpec {
    /// Creates a clock specification from a frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u64) -> ClockSpec {
        assert!(hz > 0, "clock frequency must be nonzero");
        ClockSpec { hz }
    }

    /// Creates a clock specification from a frequency in megahertz.
    pub fn from_mhz(mhz: u64) -> ClockSpec {
        ClockSpec::from_hz(mhz * 1_000_000)
    }

    /// The frequency in hertz.
    pub fn hz(self) -> u64 {
        self.hz
    }
}

impl Default for ClockSpec {
    /// 1 GHz, the paper's modeled SoC frequency.
    fn default() -> ClockSpec {
        ClockSpec::from_hz(1_000_000_000)
    }
}

impl fmt::Display for ClockSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{} Hz", self.hz)
        }
    }
}

/// The physics/render update rate of the environment simulator.
///
/// A tunable simulation parameter (typically 60–120 Hz).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameSpec {
    hz: u32,
}

impl FrameSpec {
    /// Creates a frame-rate specification from a rate in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u32) -> FrameSpec {
        assert!(hz > 0, "frame rate must be nonzero");
        FrameSpec { hz }
    }

    /// The frame rate in hertz.
    pub fn hz(self) -> u32 {
        self.hz
    }

    /// The simulated duration of one frame in seconds.
    pub fn dt(self) -> f64 {
        1.0 / self.hz as f64
    }
}

impl Default for FrameSpec {
    /// 60 Hz, the typical environment update rate.
    fn default() -> FrameSpec {
        FrameSpec::from_hz(60)
    }
}

impl fmt::Display for FrameSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fps", self.hz)
    }
}

/// The lockstep ratio between the two clock domains (Equation 1).
///
/// One environment frame corresponds to `cycles_per_frame()` SoC cycles. A
/// synchronization period is expressed as `(frames, frames *
/// cycles_per_frame)` so both simulators observe events at corresponding
/// simulation times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncRatio {
    clock: ClockSpec,
    frames: FrameSpec,
}

impl SyncRatio {
    /// Builds the ratio for a given SoC clock and environment frame rate.
    pub fn new(clock: ClockSpec, frames: FrameSpec) -> SyncRatio {
        SyncRatio { clock, frames }
    }

    /// SoC clock specification.
    pub fn clock(self) -> ClockSpec {
        self.clock
    }

    /// Environment frame specification.
    pub fn frames(self) -> FrameSpec {
        self.frames
    }

    /// Whole SoC cycles corresponding to one environment frame (floor).
    ///
    /// E.g. a 1 GHz SoC at 60 fps gives 16,666,666 cycles per frame.
    pub fn cycles_per_frame(self) -> u64 {
        self.clock.hz() / u64::from(self.frames.hz())
    }

    /// SoC cycles corresponding to `n` environment frames, computed
    /// exactly as `floor(n * clock_hz / frame_hz)`.
    ///
    /// Multiplying the truncated per-frame quotient instead (the naive
    /// `cycles_per_frame() * n`) loses the fractional cycles of every
    /// frame: at 1 GHz / 60 fps each frame drops 40 cycles, ~2.4 kcycle
    /// of drift per simulated second, and makes total simulated time
    /// depend on the synchronization granularity. The exact form keeps
    /// the cycle and frame timelines aligned to within one cycle however
    /// the span is partitioned.
    pub fn cycles_for_frames(self, n: u64) -> u64 {
        // rose-lint: allow(CAST001, the exact u128 path: quotient <= n * hz / frame_hz < 2^64 because frame_hz >= 1 Hz bounds cycles by u64 cycle-time capacity)
        ((n as u128 * self.clock.hz() as u128) / self.frames.hz() as u128) as u64
    }

    /// SoC cycles covering the frame interval `[start_frame, end_frame)`.
    ///
    /// This is the Bresenham-style grant size the synchronizer uses:
    /// because consecutive spans telescope
    /// (`cycles_for_span(0, a) + cycles_for_span(a, b) ==
    /// cycles_for_frames(b)`), the sum of grants over any partition of N
    /// frames equals `floor(N * clock_hz / frame_hz)` exactly — no
    /// drift accumulates regardless of `frames_per_sync`.
    ///
    /// # Panics
    ///
    /// Panics if `end_frame < start_frame`.
    pub fn cycles_for_span(self, start_frame: u64, end_frame: u64) -> u64 {
        assert!(end_frame >= start_frame, "span must not be negative");
        self.cycles_for_frames(end_frame) - self.cycles_for_frames(start_frame)
    }

    /// Number of whole frames covered by `cycles` (floor).
    pub fn frames_for_cycles(self, cycles: u64) -> u64 {
        cycles / self.cycles_per_frame()
    }
}

impl Default for SyncRatio {
    fn default() -> SyncRatio {
        SyncRatio::new(ClockSpec::default(), FrameSpec::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_1_ratio() {
        // Paper Figure 6: 1 GHz SoC, 60 fps -> sync every ~16M cycles.
        let ratio = SyncRatio::new(ClockSpec::from_hz(1_000_000_000), FrameSpec::from_hz(60));
        assert_eq!(ratio.cycles_per_frame(), 16_666_666);
        // Exact, not 60 * 16_666_666 = 999_999_960: one simulated second
        // of frames is exactly one simulated second of cycles.
        assert_eq!(ratio.cycles_for_frames(60), 1_000_000_000);
    }

    #[test]
    fn span_grants_telescope_without_drift() {
        let ratio = SyncRatio::new(ClockSpec::from_hz(1_000_000_000), FrameSpec::from_hz(60));
        for frames_per_sync in [1u64, 7, 10, 40] {
            let mut frame = 0u64;
            let mut granted = 0u64;
            while frame < 6000 {
                granted += ratio.cycles_for_span(frame, frame + frames_per_sync);
                frame += frames_per_sync;
            }
            assert_eq!(
                granted,
                ratio.cycles_for_frames(frame),
                "drift at frames_per_sync={frames_per_sync}"
            );
        }
    }

    #[test]
    fn frames_for_cycles_is_floor() {
        let ratio = SyncRatio::new(ClockSpec::from_hz(100), FrameSpec::from_hz(10));
        assert_eq!(ratio.cycles_per_frame(), 10);
        assert_eq!(ratio.frames_for_cycles(99), 9);
        assert_eq!(ratio.frames_for_cycles(100), 10);
    }

    #[test]
    fn widen_is_lossless_at_both_ends() {
        assert_eq!(widen(0), 0);
        assert_eq!(u128::from(widen(usize::MAX)), usize::MAX as u128);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ClockSpec::from_mhz(1000).to_string(), "1000 MHz");
        assert_eq!(FrameSpec::from_hz(60).to_string(), "60 fps");
    }
}
