//! Sample statistics: the percentile rule, quartiles for the repeatability
//! report, and the interval arithmetic behind span self time.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so p90 needs 100 samples and p99 needs 1000.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the benchmark knows how to name, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps representation error in p (99.9 is not exact)
    // from bumping an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, p) >= MIN_BEYOND).then(|| nearest_rank(sorted, p))
}

/// The highest named percentile that `n` samples resolve, if any.
pub fn highest_resolved(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Sorts samples ascending (they are finite wall times or ratios).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of `values` (mean of the middle pair for an even count); NaN
/// when there are none.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the spread printed here is the one the repeatability
/// check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len() as f64;
    let at = |q: f64| {
        let m = q * (n + 1.0);
        let j = (m.floor() as usize).clamp(1, s.len() - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// Total length covered by the union of half-open intervals, each clipped
/// to `[lo, hi)`.
pub fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// A span's self time: its duration minus the union of its children's
/// intervals inside it. Children may nest or overlap each other.
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    (hi - lo).saturating_sub(union_within(children, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_children_add_up() {
        let mut kids = [(10, 20), (30, 35)];
        assert_eq!(union_within(&mut kids, 0, 100), 15);
        assert_eq!(self_time((0, 100), &mut kids), 85);
    }

    #[test]
    fn overlapping_children_count_once() {
        // The parallel quantum: env and RTL run at the same time.
        let mut kids = [(10, 60), (20, 80)];
        assert_eq!(union_within(&mut kids, 0, 100), 70);
        assert_eq!(self_time((0, 100), &mut kids), 30);
    }

    #[test]
    fn nested_children_count_once() {
        // A transport send inside the RTL grant that issued it.
        let mut kids = [(10, 90), (20, 30), (40, 50)];
        assert_eq!(union_within(&mut kids, 0, 100), 80);
        assert_eq!(self_time((0, 100), &mut kids), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut kids = [(0, 15), (95, 120)];
        assert_eq!(self_time((10, 100), &mut kids), 80);
        let mut none: [(u64, u64); 0] = [];
        assert_eq!(self_time((5, 9), &mut none), 4);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        assert_eq!(percentile(&hundred, 99.0), None);
    }

    #[test]
    fn highest_resolved_percentile_keeps_ten_beyond() {
        assert_eq!(highest_resolved(5), None);
        assert_eq!(highest_resolved(20), Some(50.0));
        assert_eq!(highest_resolved(99), Some(50.0));
        assert_eq!(highest_resolved(100), Some(90.0));
        assert_eq!(highest_resolved(999), Some(90.0));
        assert_eq!(highest_resolved(1000), Some(99.0));
        assert_eq!(highest_resolved(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
