//! Log-bucketed latency histogram with quantile estimation.
//!
//! Keeping every sample gives exact quantiles but unbounded memory.
//! `LogHistogram` trades that for fixed memory (one `u64` per bucket),
//! bounded relative error, and mergeable buckets — the shape needed for
//! always-on telemetry (p50/p90/p99/p99.9 of quantum wall time, grant
//! latency, queue depth, kernel cycles, control-loop slack).
//!
//! # Bucketing
//!
//! Log-linear (HDR-style): values below 1.0 land in a single underflow
//! bucket; above that, each power-of-two octave is split into
//! [`SUB_BUCKETS`] linear sub-buckets, so the relative quantile error is
//! at most `1 / SUB_BUCKETS` (12.5%). Callers pick the unit (µs, cycles,
//! frames) so that interesting values sit well above 1.0.
//!
//! A bucket is read off the float's bits, with no `log2` and no division:
//! for `x ≥ 1` the octave is the biased exponent minus 1023, and the
//! sub-bucket is the top `log2(SUB_BUCKETS)` mantissa bits. Bucket bounds
//! are built from the same bits, so every value below `2^40` lies in its
//! bucket's `[lo, hi)`, even the float just below a power of two, which a
//! rounded `log2` would lift into the next octave.
//!
//! Bucket contents are plain counts, so `merge` is bucket-wise addition,
//! exact at the bucket resolution. Quantiles are reported as the geometric
//! placement inside the selected bucket, clamped to the observed
//! min..max range.
//!
//! The histogram is **telemetry, not simulation state**: it never feeds
//! the determinism digest and is excluded from mission snapshots (like
//! the sync-quantum wall-time span args, DESIGN.md §4d/§4f).

/// Linear sub-buckets per power-of-two octave. 8 bounds the relative
/// quantile error at 12.5%.
pub const SUB_BUCKETS: usize = 8;

/// Octaves covered above the underflow bucket: values up to `2^40`
/// (≈ 10^12 — enough for cycles-per-mission) resolve; larger values
/// clamp into the final bucket.
const OCTAVES: usize = 40;

/// Total bucket count: underflow + octaves × sub-buckets.
const BUCKETS: usize = 1 + OCTAVES * SUB_BUCKETS;

/// A fixed-memory log-bucketed histogram over non-negative `f64` values.
///
/// Negative and non-finite observations clamp into the underflow bucket
/// (they still count, so `count` matches the number of `record` calls).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        let idx = bucket_index(x);
        self.buckets[idx] += 1;
        self.count += 1;
        if x.is_finite() {
            self.sum += x;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
    }

    /// Records an integer observation (cycle counts, queue depths).
    pub fn record_u64(&mut self, x: u64) {
        self.record(x as f64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all finite observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest finite observation, if any.
    pub fn min(&self) -> Option<f64> {
        self.min.is_finite().then_some(self.min)
    }

    /// Largest finite observation, if any.
    pub fn max(&self) -> Option<f64> {
        self.max.is_finite().then_some(self.max)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`), or `None` when
    /// empty. The estimate is the geometric midpoint of the bucket
    /// holding the target rank, clamped to the observed min..max, so the
    /// relative error is bounded by the bucket width (≤ 12.5%).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let (lo, hi) = bucket_bounds(idx);
                let mid = (lo * hi).sqrt();
                let mid = if mid.is_finite() { mid } else { lo };
                return Some(mid.clamp(self.min.min(self.max), self.max.max(self.min)));
            }
        }
        // Unreachable: `count` equals the bucket total by construction.
        self.max()
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Adds every observation of `other` into `self` (bucket-wise — exact
    /// at bucket resolution).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Mantissa bits that select the sub-bucket: `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
const _: () = assert!(SUB_BUCKETS.is_power_of_two());

/// Bit pattern of bucket 1's lower bound: a zero mantissa under the
/// exponent bias.
const ONE_BITS: u64 = 1.0f64.to_bits();

/// The bucket holding value `x`.
fn bucket_index(x: f64) -> usize {
    if x.is_nan() || x < 1.0 {
        return 0;
    }
    // `x ≥ 1`: the sign bit is clear and the biased exponent is at least
    // 1023. Counted from 1.0's bits, the exponent and the top `SUB_BITS`
    // mantissa bits read `octave * SUB_BUCKETS + sub`. ∞ has the largest
    // exponent, so it clamps with the overflow.
    let offset = (x.to_bits() - ONE_BITS) >> (52 - SUB_BITS);
    if offset >= (OCTAVES * SUB_BUCKETS) as u64 {
        return BUCKETS - 1;
    }
    1 + offset as usize
}

/// The `[lo, hi)` value range of bucket `idx`.
fn bucket_bounds(idx: usize) -> (f64, f64) {
    if idx == 0 {
        return (0.0, 1.0);
    }
    let edge = |i: usize| f64::from_bits(ONE_BITS + ((i as u64) << (52 - SUB_BITS)));
    (edge(idx - 1), edge(idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v = 0.5;
        while v < 1e13 {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index must be monotone at {v}");
            assert!(idx < BUCKETS);
            let (lo, hi) = bucket_bounds(idx);
            if idx > 0 && idx < BUCKETS - 1 {
                assert!(lo <= v && v < hi, "{v} outside [{lo},{hi}) at {idx}");
            }
            last = idx;
            v *= 1.07;
        }
    }

    /// Every value below `2^OCTAVES` lies inside its bucket's bounds: at
    /// each power of two, at the float just below it, and at each
    /// sub-bucket edge and the float just below that.
    #[test]
    fn bucket_bounds_hold_at_every_edge() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for k in 0..OCTAVES as i32 {
            let base = 2f64.powi(k);
            let edges = (0..SUB_BUCKETS).map(|s| base * (1.0 + s as f64 / SUB_BUCKETS as f64));
            for edge in edges {
                for x in [edge, below(edge)] {
                    let idx = bucket_index(x);
                    let (lo, hi) = bucket_bounds(idx);
                    assert!(lo <= x && x < hi, "{x:e} outside [{lo},{hi}) at {idx}");
                }
            }
        }
    }

    /// The bucket as `log2`, `exp2` and a division compute it.
    fn log2_bucket_index(x: f64) -> usize {
        if x.is_nan() || x < 1.0 {
            return 0;
        }
        if x.is_infinite() {
            return BUCKETS - 1;
        }
        let octave = x.log2().floor();
        if octave >= OCTAVES as f64 {
            return BUCKETS - 1;
        }
        let o = octave as usize;
        let frac = (x / octave.exp2() - 1.0).max(0.0);
        let sub = ((frac * SUB_BUCKETS as f64) as usize).min(SUB_BUCKETS - 1);
        1 + o * SUB_BUCKETS + sub
    }

    /// Integer observations (cycle counts, queue depths) land in the
    /// bucket the `log2` formula gives them: around every power of two
    /// below `2^53`, and for a million integers below `2^48` whose bit
    /// lengths are drawn uniformly.
    #[test]
    fn integer_buckets_match_the_log2_formula() {
        let check = |n: u64| {
            let x = n as f64;
            assert_eq!(bucket_index(x), log2_bucket_index(x), "at {n}");
        };
        for k in 0..53 {
            let p = 1u64 << k;
            check(p - 1);
            check(p);
            check(p + 1);
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..1_000_000 {
            let bits = 1 + next() % 48;
            check(next() >> (64 - bits));
        }
    }

    #[test]
    fn extremes_clamp_into_terminal_buckets() {
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i as f64);
        }
        for (q, exact) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let est = h.quantile(q).unwrap();
            let err = (est - exact).abs() / exact;
            assert!(err < 0.13, "q={q}: est {est} vs exact {exact} (err {err})");
        }
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(10_000.0));
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn single_value_quantiles_collapse_to_it() {
        let mut h = LogHistogram::new();
        h.record(42.0);
        assert_eq!(h.p50(), Some(42.0));
        assert_eq!(h.p999(), Some(42.0));
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..500u64 {
            let x = (i as f64) * 3.7 + 0.5;
            all.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn negative_observations_count_but_keep_min_exact() {
        let mut h = LogHistogram::new();
        h.record(-3.0);
        h.record(8.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(8.0));
    }
}
