//! Streaming summary statistics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Streaming summary statistics (Welford's algorithm for variance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// Same as [`Summary::new`]: the min/max sentinels start at ±∞ so the
    /// first observation wins (a derived all-zero default would report
    /// `min = 0` for any positive-valued stream).
    fn default() -> Summary {
        Summary::new()
    }
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The summary of the observations recorded *after* `prefix` was
    /// captured, assuming `prefix` is an earlier snapshot of this same
    /// stream — the inverse of [`merge`](Summary::merge). Used to strip a
    /// shared warm-start prefix from forked-mission branches before
    /// re-merging them, so the prefix is not double-counted.
    ///
    /// `min`/`max` cannot be recovered by subtraction; the delta keeps
    /// this summary's observed range (a conservative superset).
    pub fn unmerge(&self, prefix: &Summary) -> Summary {
        if prefix.count == 0 {
            return self.clone();
        }
        let count = self.count.saturating_sub(prefix.count);
        if count == 0 {
            return Summary::new();
        }
        let total = self.count as f64;
        let mean = (self.mean * total - prefix.mean * prefix.count as f64) / count as f64;
        let delta = prefix.mean - mean;
        let m2 =
            self.m2 - prefix.m2 - delta * delta * prefix.count as f64 * count as f64 / total;
        Summary {
            count,
            mean,
            m2: m2.max(0.0),
            min: self.min,
            max: self.max,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &data {
            all.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_unmerge_inverts_merge() {
        let data: Vec<f64> = (0..80).map(|i| (i as f64).cos() * 5.0 + 7.0).collect();
        let mut prefix = Summary::new();
        for &x in &data[..30] {
            prefix.record(x);
        }
        let mut full = prefix.clone();
        let mut suffix = Summary::new();
        for &x in &data[30..] {
            full.record(x);
            suffix.record(x);
        }
        let delta = full.unmerge(&prefix);
        assert_eq!(delta.count(), suffix.count());
        assert!((delta.mean() - suffix.mean()).abs() < 1e-9);
        assert!((delta.variance() - suffix.variance()).abs() < 1e-9);
        // min/max stay the conservative full-stream range.
        assert_eq!(delta.min(), full.min());
        assert_eq!(delta.max(), full.max());
        // Unmerging an identical snapshot leaves nothing.
        assert_eq!(full.unmerge(&full.clone()).count(), 0);
        // Unmerging an empty prefix is the identity.
        assert_eq!(full.unmerge(&Summary::new()), full);
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.variance(), 0.0);
    }
}
