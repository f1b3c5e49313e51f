//! Seeded, splittable deterministic random number generation.
//!
//! Every stochastic element of the co-simulation — IMU noise, perception
//! sampling, environment disturbances — draws from a [`SimRng`] stream that
//! is derived from the top-level simulation seed. Re-running a simulation
//! with the same seed reproduces the trajectory bit-exactly, which is the
//! property the paper relies on when attributing trajectory variation to
//! environment randomness (Artifact §A.7: "FireSim itself is deterministic").
//!
//! The generator is SplitMix64 (Steele et al., "Fast splittable pseudorandom
//! number generators"), chosen because it is tiny, passes BigCrush when used
//! as a 64-bit generator, and splits cleanly into independent streams.
//!
//! # No hidden state
//!
//! `SimRng`'s entire dynamic state is the single `u64` exposed by
//! [`SimRng::state_bits`] / restored by [`SimRng::restore_state_bits`] —
//! there is no cached Box–Muller spare, rejection carry, or any other
//! hidden draw (see [`SimRng::gaussian`]). Snapshotting that one word and
//! restoring it resumes every derived distribution — uniform, Lemire
//! integer, Bernoulli, Gaussian — bit-identically mid-stream, a contract
//! the mission snapshot / resume machinery depends on and the
//! `gaussian_stream_has_no_hidden_state` test enforces.

use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::fmt;

/// A deterministic pseudorandom stream.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SimRng {
    state: u64,
    /// Retained for `Debug` output so streams are identifiable in dumps.
    label: &'static str,
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng")
            .field("label", &self.label)
            .field("state", &format_args!("{:#018x}", self.state))
            .finish()
    }
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> SimRng {
        SimRng {
            state: seed,
            label: "root",
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child's seed mixes the parent state with a hash of the label, so
    /// `split("imu")` and `split("camera")` never collide and do not perturb
    /// the parent stream.
    pub fn split(&self, label: &'static str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        SimRng {
            state: mix64(self.state ^ h),
            label,
        }
    }

    /// The stream's complete dynamic state (see the module docs: there is
    /// no other mutable state).
    pub fn state_bits(&self) -> u64 {
        self.state
    }

    /// Overwrites the stream position with a state captured by
    /// [`SimRng::state_bits`]. The label is structural (it identifies the
    /// stream in debug dumps) and is kept.
    pub fn restore_state_bits(&mut self, state: u64) {
        self.state = state;
    }

    /// Serializes the stream's dynamic state.
    pub fn save_state(&self, w: &mut SnapWriter) {
        // The label is structural: it is re-established by rebuilding the
        // component that owns this stream from its config.
        let SimRng { state, label: _ } = self;
        w.u64(*state);
    }

    /// Restores the stream's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a truncated snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.state = r.u64()?;
        Ok(())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Next value uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Next value uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform range inverted: {lo} > {hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Next integer uniform in `[0, n)` (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        // Widening multiply rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal sample.
    ///
    /// Box–Muller produces values in pairs; this implementation computes
    /// only the cosine branch and **discards the pair's second element**,
    /// by contract: caching the spare would be hidden stochastic state
    /// that a snapshot could not capture, making mid-stream resume
    /// diverge. Every call therefore consumes a whole number of
    /// `next_u64` draws (two per accepted sample, plus one per rejected
    /// `u == 0.0` draw), and the stream position after any call is fully
    /// described by [`SimRng::state_bits`]. The
    /// `gaussian_stream_has_no_hidden_state` test pins this down.
    pub fn gaussian(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                let v = self.next_f64();
                return (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }
}

impl Default for SimRng {
    fn default() -> SimRng {
        SimRng::new(0x5eed_0000_0000_0001)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splits_are_independent_of_parent() {
        let parent = SimRng::new(7);
        let mut c1 = parent.split("imu");
        let mut c2 = parent.split("camera");
        // Different labels produce different streams.
        assert_ne!(c1.next_u64(), c2.next_u64());
        // Splitting does not mutate the parent.
        let mut p1 = parent.clone();
        let mut p2 = SimRng::new(7);
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut rng = SimRng::new(9);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = rng.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::new(123);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.gaussian();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.03, "var {var} too far from 1");
    }

    #[test]
    fn gaussian_stream_has_no_hidden_state() {
        // Resuming from the captured state mid-stream must reproduce the
        // remaining gaussian draws bit-exactly: any cached Box–Muller
        // spare or rejection carry would break this.
        let mut rng = SimRng::new(0xfeed);
        for _ in 0..257 {
            rng.gaussian();
        }
        let saved = rng.state_bits();
        let tail: Vec<u64> = (0..512).map(|_| rng.gaussian().to_bits()).collect();

        let mut resumed = SimRng::new(0xfeed).split("other-label-is-structural");
        resumed.restore_state_bits(saved);
        let replay: Vec<u64> = (0..512).map(|_| resumed.gaussian().to_bits()).collect();
        assert_eq!(tail, replay, "gaussian stream diverged after resume");
    }

    #[test]
    fn snapshot_roundtrip_resumes_all_distributions() {
        let mut rng = SimRng::new(99).split("sensor");
        rng.gaussian();
        rng.below(17);
        rng.chance(0.5);

        let mut w = SnapWriter::new();
        rng.save_state(&mut w);
        let bytes = w.into_bytes();

        let expected: Vec<u64> = {
            let mut c = rng.clone();
            (0..64)
                .map(|i| match i % 4 {
                    0 => c.next_u64(),
                    1 => c.gaussian().to_bits(),
                    2 => c.below(1000),
                    _ => c.chance(0.3) as u64,
                })
                .collect()
        };

        let mut restored = SimRng::new(99).split("sensor");
        let mut r = SnapReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        let got: Vec<u64> = (0..64)
            .map(|i| match i % 4 {
                0 => restored.next_u64(),
                1 => restored.gaussian().to_bits(),
                2 => restored.below(1000),
                _ => restored.chance(0.3) as u64,
            })
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn chance_probability() {
        let mut rng = SimRng::new(5);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.25).abs() < 0.01, "empirical p {p}");
    }
}
