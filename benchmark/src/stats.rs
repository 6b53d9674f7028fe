//! Order statistics for timing samples.

/// Percentiles the tail rule chooses from, highest last.
const TAIL_CANDIDATES: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
///
/// # Panics
/// Panics if `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    s[rank(s.len(), p) - 1]
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples above it among `n` samples, or `None` when `n` is too small for
/// even the median to have that many.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.iter().rev().copied().find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps decimal percentiles such as 99.9 from rounding up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A log-bucketed duration histogram (16 buckets per power of two, about
/// 4 % resolution), so per-call percentiles of millions of spans take
/// constant memory.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BUCKETS: f64 = 16.0;

impl Histogram {
    /// Records one duration in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let b = if ns == 0 { 0 } else { ((ns as f64).log2() * SUB_BUCKETS) as usize + 1 };
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile `p`, in nanoseconds, as the geometric centre
    /// of its bucket; `None` when nothing was recorded.
    pub fn percentile_ns(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let want = rank(self.total as usize, p) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Some(if b == 0 { 0.0 } else { 2f64.powf((b as f64 - 0.5) / SUB_BUCKETS) });
            }
        }
        unreachable!("rank never exceeds the recorded total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20");
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_percentiles_land_in_the_right_bucket() {
        let mut h = Histogram::default();
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        let p50 = h.percentile_ns(50.0).expect("recorded");
        let p99 = h.percentile_ns(99.0).expect("recorded");
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.05, "{p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.05, "{p99}");
        assert_eq!(Histogram::default().percentile_ns(50.0), None);
    }
}
