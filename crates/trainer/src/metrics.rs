//! Throughput reports and the paper's derived metrics.

use aiacc_dnn::SampleUnit;
use std::fmt;

/// Measured throughput of one simulated training run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Engine name (with configuration summary).
    pub engine: String,
    /// Model name.
    pub model: String,
    /// Number of GPU workers.
    pub world: usize,
    /// Per-GPU batch size.
    pub batch_per_gpu: usize,
    /// What a "sample" is for this model.
    pub unit: SampleUnit,
    /// Measured per-iteration durations in seconds.
    pub iter_secs: Vec<f64>,
    /// Aggregate throughput in samples/second.
    pub samples_per_sec: f64,
}

impl ThroughputReport {
    /// Builds a report from measured iteration times.
    ///
    /// # Panics
    /// Panics if no iterations were measured or any duration is
    /// non-positive.
    pub fn new(
        engine: String,
        model: String,
        world: usize,
        batch_per_gpu: usize,
        unit: SampleUnit,
        iter_secs: Vec<f64>,
    ) -> Self {
        assert!(!iter_secs.is_empty(), "no measured iterations");
        assert!(iter_secs.iter().all(|&t| t > 0.0), "non-positive iteration time");
        let total: f64 = iter_secs.iter().sum();
        let samples = (world * batch_per_gpu * iter_secs.len()) as f64;
        ThroughputReport {
            engine,
            model,
            world,
            batch_per_gpu,
            unit,
            samples_per_sec: samples / total,
            iter_secs,
        }
    }

    /// Mean iteration duration in seconds.
    pub fn mean_iter_secs(&self) -> f64 {
        self.iter_secs.iter().sum::<f64>() / self.iter_secs.len() as f64
    }
}

impl fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} @ {} GPUs: {:.0} {}/s",
            self.model, self.engine, self.world, self.samples_per_sec, self.unit
        )
    }
}

/// Nearest-rank percentile of `values` (`p` in `[0, 100]`), NaN-safe.
///
/// Uses the classic nearest-rank definition: the smallest value such that at
/// least `p` % of the data is at or below it (`ceil(p/100 · n)`-th smallest,
/// 1-indexed; `p = 0` returns the minimum). NaNs are dropped before ranking,
/// so one poisoned sample cannot poison a tail statistic. Returns `None` for
/// an empty (or all-NaN) input — the scheduler's JCT reporting treats "no
/// finished jobs" explicitly instead of fabricating a number.
///
/// # Example
/// ```
/// use aiacc_trainer::metrics::percentile;
/// let v = [5.0, 1.0, 3.0, 2.0, 4.0];
/// assert_eq!(percentile(&v, 50.0), Some(3.0));
/// assert_eq!(percentile(&v, 99.0), Some(5.0));
/// ```
///
/// # Panics
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
    let n = v.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(v[rank - 1])
}

/// Median via [`percentile`] (nearest-rank, NaN-safe).
pub fn p50(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// 95th percentile via [`percentile`].
pub fn p95(values: &[f64]) -> Option<f64> {
    percentile(values, 95.0)
}

/// 99th percentile via [`percentile`] — the tail statistic the multi-job
/// scheduler reports for job completion times.
pub fn p99(values: &[f64]) -> Option<f64> {
    percentile(values, 99.0)
}

/// Default per-level buffer capacity of [`QuantileSketch::new_default`]:
/// ~0.4 % worst-case rank error at one million samples (see
/// [`QuantileSketch::max_rank_error`]).
pub const SKETCH_DEFAULT_K: usize = 1024;

/// A deterministic, mergeable quantile sketch (a compactor hierarchy in the
/// MRL/KLL family, with the randomized offset replaced by an alternating
/// parity so the same input stream always yields the same summary).
///
/// Level `l` holds samples of weight `2^l`. Inserts go to level 0; when a
/// level reaches `k` items it is sorted and every other item is promoted to
/// the next level with doubled weight. Each compaction of weight-`w` items
/// shifts any rank by at most `w`, so the sketch carries an explicit
/// worst-case budget: [`QuantileSketch::max_rank_error`] is incremented by
/// `2^l` per level-`l` compaction, and every answer is guaranteed within
/// that many ranks of the exact nearest-rank answer ([`percentile`] over the
/// full stream). The budget grows as `O(n·log(n/k)/k)` — with the default
/// `k = 1024`, under 0.5 % of `n` at a million samples — while memory stays
/// `O(k·log(n/k))` regardless of stream length.
///
/// Two sketches merge by concatenating per-level buffers and re-compacting;
/// the merged error budget is the sum of the inputs', so
/// `merge(a, b).max_rank_error() ≤ a.max_rank_error() + b.max_rank_error()`
/// plus the merge's own compactions — the same bound a single sketch over
/// the concatenated stream obeys.
///
/// NaN samples are dropped on insert, mirroring [`percentile`]'s NaN
/// filtering, so the sketch and the sort-based oracle always describe the
/// same population.
///
/// # Example
/// ```
/// use aiacc_trainer::metrics::QuantileSketch;
/// let mut s = QuantileSketch::new_default();
/// for i in 1..=1000 {
///     s.insert(i as f64);
/// }
/// let p50 = s.quantile(50.0).unwrap();
/// assert!((p50 - 500.0).abs() <= s.max_rank_error() as f64 + 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Per-level buffer capacity.
    k: usize,
    /// `levels[l]` holds items of weight `2^l` (unsorted between
    /// compactions).
    levels: Vec<Vec<f64>>,
    /// Total number of (non-NaN) samples inserted.
    count: u64,
    /// Accumulated worst-case rank-error budget.
    err: u64,
    /// Exact minimum seen.
    min: f64,
    /// Exact maximum seen.
    max: f64,
    /// Compactions performed so far; its parity picks which half of a
    /// sorted buffer survives, so discard bias alternates deterministically.
    compactions: u64,
}

impl QuantileSketch {
    /// Creates a sketch with per-level capacity `k`.
    ///
    /// # Panics
    /// Panics if `k < 8` or `k` is odd (compaction promotes every other
    /// element, so buffers must pair up).
    pub fn new(k: usize) -> Self {
        assert!(k >= 8, "sketch capacity {k} too small (need >= 8)");
        assert!(k.is_multiple_of(2), "sketch capacity {k} must be even");
        QuantileSketch {
            k,
            levels: vec![Vec::new()],
            count: 0,
            err: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            compactions: 0,
        }
    }

    /// Creates a sketch with the default capacity [`SKETCH_DEFAULT_K`].
    pub fn new_default() -> Self {
        QuantileSketch::new(SKETCH_DEFAULT_K)
    }

    /// Number of (non-NaN) samples inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Guaranteed worst-case rank error of any [`QuantileSketch::quantile`]
    /// answer, in ranks (see the type-level docs).
    pub fn max_rank_error(&self) -> u64 {
        self.err
    }

    /// Retained items across all levels (the sketch's memory footprint).
    pub fn stored_items(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Inserts one sample; NaN is dropped (as [`percentile`] drops it).
    pub fn insert(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.levels[0].push(x);
        self.compact_overfull();
    }

    /// Merges `other` into `self`. Error budgets add; the result answers
    /// queries over the concatenation of both streams.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
        }
        for (l, buf) in other.levels.iter().enumerate() {
            self.levels[l].extend_from_slice(buf);
        }
        self.count += other.count;
        self.err += other.err;
        self.compactions += other.compactions;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.compact_overfull();
    }

    /// Cascades compactions until every level is below capacity.
    fn compact_overfull(&mut self) {
        let mut l = 0;
        while l < self.levels.len() {
            if self.levels[l].len() >= self.k {
                self.compact_level(l);
                // Stay on the same level: a big merge can leave it overfull
                // even after one compaction.
                continue;
            }
            l += 1;
        }
    }

    /// Sorts level `l`, keeps one leftover when odd, and promotes every
    /// other survivor (starting at the alternating parity offset) to level
    /// `l + 1`, charging `2^l` to the error budget.
    fn compact_level(&mut self, l: usize) {
        if self.levels.len() == l + 1 {
            self.levels.push(Vec::new());
        }
        let mut buf = std::mem::take(&mut self.levels[l]);
        buf.sort_by(f64::total_cmp);
        // An odd item cannot pair up; the largest stays behind at this level.
        if buf.len() % 2 == 1 {
            let leftover = buf.pop().expect("non-empty");
            self.levels[l].push(leftover);
        }
        let offset = (self.compactions & 1) as usize;
        self.compactions += 1;
        self.err += 1u64 << l;
        let promoted: Vec<f64> = buf.iter().skip(offset).step_by(2).copied().collect();
        self.levels[l + 1].extend(promoted);
    }

    /// Nearest-rank quantile estimate for `p` in `[0, 100]`, or `None` when
    /// the sketch is empty. `p = 0` and `p = 100` return the exact min/max.
    /// Any other answer is within [`QuantileSketch::max_rank_error`] ranks
    /// of [`percentile`] over the full stream.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
        if self.count == 0 {
            return None;
        }
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 100.0 {
            return Some(self.max);
        }
        let target = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut items: Vec<(f64, u64)> = Vec::with_capacity(self.stored_items());
        for (l, buf) in self.levels.iter().enumerate() {
            let w = 1u64 << l;
            items.extend(buf.iter().map(|&x| (x, w)));
        }
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cum = 0u64;
        for &(x, w) in &items {
            cum += w;
            if cum >= target {
                return Some(x);
            }
        }
        // Stored weights always sum to `count`, so the walk above returns.
        Some(self.max)
    }

    /// Serializes the sketch to a single-line text record (exact: floats are
    /// written shortest-round-trip). Inverse of [`QuantileSketch::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "qsketch k={} count={} err={} compactions={} min={} max={} levels={}",
            self.k,
            self.count,
            self.err,
            self.compactions,
            self.min,
            self.max,
            self.levels.len()
        );
        for buf in &self.levels {
            out.push_str(" |");
            for x in buf {
                out.push(' ');
                out.push_str(&format!("{x}"));
            }
        }
        out
    }

    /// Parses a record produced by [`QuantileSketch::to_text`]; the result
    /// is field-for-field identical to the serialized sketch.
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_text(text: &str) -> Result<QuantileSketch, String> {
        let mut parts = text.split(" |");
        let head = parts.next().ok_or("empty sketch record")?;
        let mut fields = head.split_whitespace();
        if fields.next() != Some("qsketch") {
            return Err("not a qsketch record".to_string());
        }
        let mut get = |name: &str| -> Result<String, String> {
            let f = fields.next().ok_or_else(|| format!("missing sketch field {name}"))?;
            f.strip_prefix(&format!("{name}="))
                .map(str::to_string)
                .ok_or_else(|| format!("expected sketch field {name}, got {f:?}"))
        };
        let k: usize = get("k")?.parse().map_err(|e| format!("bad sketch k: {e}"))?;
        let count: u64 = get("count")?.parse().map_err(|e| format!("bad sketch count: {e}"))?;
        let err: u64 = get("err")?.parse().map_err(|e| format!("bad sketch err: {e}"))?;
        let compactions: u64 =
            get("compactions")?.parse().map_err(|e| format!("bad sketch compactions: {e}"))?;
        let min: f64 = get("min")?.parse().map_err(|e| format!("bad sketch min: {e}"))?;
        let max: f64 = get("max")?.parse().map_err(|e| format!("bad sketch max: {e}"))?;
        let nlevels: usize =
            get("levels")?.parse().map_err(|e| format!("bad sketch levels: {e}"))?;
        // The header is untrusted: size nothing from it, only compare.
        let mut levels = parts
            .map(|part| {
                part.split_whitespace()
                    .map(|tok| {
                        tok.parse::<f64>().map_err(|e| format!("bad sketch item {tok:?}: {e}"))
                    })
                    .collect::<Result<Vec<f64>, String>>()
            })
            .collect::<Result<Vec<Vec<f64>>, String>>()?;
        if levels.len() != nlevels {
            return Err(format!("sketch has {} level(s), header says {nlevels}", levels.len()));
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        let s = QuantileSketch { k, levels, count, err, min, max, compactions };
        if s.k < 8 || !s.k.is_multiple_of(2) {
            return Err(format!("bad sketch capacity {}", s.k));
        }
        Ok(s)
    }
}

/// Checks that two reports measure the same workload — comparing a
/// ResNet-50 run against a BERT run (or different per-GPU batches) returns
/// a meaningless ratio, so the derived metrics refuse it loudly instead of
/// silently producing a number.
fn assert_same_workload(a: &ThroughputReport, b: &ThroughputReport, metric: &str) {
    assert_eq!(a.model, b.model, "{metric} compares different models: {} vs {}", a.model, b.model);
    assert_eq!(
        a.batch_per_gpu, b.batch_per_gpu,
        "{metric} compares different per-GPU batches: {} vs {}",
        a.batch_per_gpu, b.batch_per_gpu
    );
}

/// Scaling efficiency per the paper's definition (§III, footnote 3):
/// measured N-GPU throughput over N× the single-GPU throughput.
///
/// Both reports must measure the same model and per-GPU batch; the engines
/// may differ (a framework's multi-GPU run is routinely measured against a
/// common single-GPU reference).
///
/// # Panics
/// Panics if `single` is not a 1-GPU run, or if the two reports measure
/// different models or per-GPU batch sizes.
pub fn scaling_efficiency(single: &ThroughputReport, multi: &ThroughputReport) -> f64 {
    assert_eq!(single.world, 1, "baseline must be a single-GPU run");
    assert_same_workload(single, multi, "scaling_efficiency");
    multi.samples_per_sec / (single.samples_per_sec * multi.world as f64)
}

/// Throughput speedup of `ours` over `baseline` (same model/world).
///
/// # Panics
/// Panics if the reports measure different models, world sizes, or per-GPU
/// batch sizes — a cross-workload ratio is not a speedup.
pub fn speedup(ours: &ThroughputReport, baseline: &ThroughputReport) -> f64 {
    assert_same_workload(ours, baseline, "speedup");
    assert_eq!(
        ours.world, baseline.world,
        "speedup compares different world sizes: {} vs {} GPUs",
        ours.world, baseline.world
    );
    ours.samples_per_sec / baseline.samples_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(world: usize, iter: f64) -> ThroughputReport {
        ThroughputReport::new("e".into(), "m".into(), world, 10, SampleUnit::Images, vec![iter; 3])
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 95.0), Some(10.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        // Order of the input never matters.
        let shuffled = [9.0, 1.0, 10.0, 3.0, 5.0, 7.0, 2.0, 8.0, 6.0, 4.0];
        assert_eq!(percentile(&shuffled, 50.0), Some(5.0));
    }

    #[test]
    fn percentile_single_and_empty() {
        assert_eq!(percentile(&[42.0], 99.0), Some(42.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_drops_nans() {
        let v = [f64::NAN, 2.0, 1.0, f64::NAN, 3.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
    }

    #[test]
    fn percentile_shorthands_agree() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(p50(&v), Some(50.0));
        assert_eq!(p95(&v), Some(95.0));
        assert_eq!(p99(&v), Some(99.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn percentile_all_equal_is_that_value() {
        let v = [7.5; 17];
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&v, p), Some(7.5));
        }
    }

    #[test]
    fn percentile_two_samples_splits_at_median() {
        // Nearest-rank: ceil(0.5 * 2) = 1 → the smaller sample is the p50.
        assert_eq!(percentile(&[1.0, 9.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 9.0], 51.0), Some(9.0));
    }

    #[test]
    fn percentile_tiny_p_returns_minimum() {
        // ceil(0.001 * 5) = 1 → minimum, same as p = 0.
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.1), Some(1.0));
    }

    // --- QuantileSketch ---

    /// Exact-oracle rank check: the sketch's answer for `p` must sit within
    /// `max_rank_error()` ranks of the nearest-rank target in `data`.
    fn assert_within_rank_bound(s: &QuantileSketch, data: &[f64], p: f64) {
        let mut sorted: Vec<f64> = data.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as u64;
        let target = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let v = s.quantile(p).expect("non-empty");
        let below = sorted.iter().filter(|&&x| x < v).count() as u64;
        let at_or_below = sorted.iter().filter(|&&x| x <= v).count() as u64;
        let err = s.max_rank_error();
        // v's true rank interval [below+1, at_or_below] must overlap
        // [target - err, target + err].
        assert!(
            below < target + err && at_or_below + err >= target,
            "p{p}: {v} has true ranks [{}, {}], target {target} ± {err}",
            below + 1,
            at_or_below
        );
    }

    #[test]
    fn sketch_small_streams_are_exact() {
        // Fewer than k samples: nothing has been compacted, error budget 0,
        // answers equal the exact oracle.
        let mut s = QuantileSketch::new(64);
        let data: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        for &x in &data {
            s.insert(x);
        }
        assert_eq!(s.max_rank_error(), 0);
        for p in [0.0, 10.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(s.quantile(p), percentile(&data, p), "p{p}");
        }
    }

    #[test]
    fn sketch_empty_and_singleton() {
        let mut s = QuantileSketch::new_default();
        assert_eq!(s.quantile(50.0), None);
        assert_eq!(s.count(), 0);
        s.insert(42.0);
        assert_eq!(s.quantile(0.0), Some(42.0));
        assert_eq!(s.quantile(50.0), Some(42.0));
        assert_eq!(s.quantile(100.0), Some(42.0));
    }

    #[test]
    fn sketch_drops_nans_like_percentile() {
        let mut s = QuantileSketch::new(16);
        for x in [f64::NAN, 2.0, 1.0, f64::NAN, 3.0] {
            s.insert(x);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(50.0), Some(2.0));
    }

    #[test]
    fn sketch_all_equal_returns_that_value() {
        let mut s = QuantileSketch::new(16);
        for _ in 0..10_000 {
            s.insert(3.25);
        }
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.quantile(p), Some(3.25));
        }
    }

    #[test]
    fn sketch_large_stream_within_bound_and_bounded_memory() {
        let mut s = QuantileSketch::new(128);
        let data: Vec<f64> = (0..100_000).map(|i| ((i * 31) % 100_000) as f64).collect();
        for &x in &data {
            s.insert(x);
        }
        for p in [1.0, 25.0, 50.0, 95.0, 99.0, 99.9] {
            assert_within_rank_bound(&s, &data, p);
        }
        // Memory is O(k · log(n/k)), far below n.
        assert!(s.stored_items() < 128 * 16, "{} items retained", s.stored_items());
        // The self-reported bound stays useful: err = O(log(n/k) · n/k),
        // which at k = 128 over 100k items is under 10 % of n (the default
        // k = 1024 brings it under 1 % at 1M items).
        assert!((s.max_rank_error() as f64) < 0.10 * data.len() as f64);
    }

    #[test]
    fn sketch_merge_matches_concatenation_bound() {
        let a_data: Vec<f64> = (0..30_000).map(|i| (i % 997) as f64).collect();
        let b_data: Vec<f64> = (0..20_000).map(|i| 500.0 + (i % 251) as f64).collect();
        let mut a = QuantileSketch::new(128);
        let mut b = QuantileSketch::new(128);
        for &x in &a_data {
            a.insert(x);
        }
        for &x in &b_data {
            b.insert(x);
        }
        let (ea, eb) = (a.max_rank_error(), b.max_rank_error());
        a.merge(&b);
        assert_eq!(a.count(), 50_000);
        let mut all = a_data;
        all.extend_from_slice(&b_data);
        for p in [5.0, 50.0, 99.0] {
            assert_within_rank_bound(&a, &all, p);
        }
        // Merge compactions are charged to the budget too, but the combined
        // budget stays the same order as the inputs'.
        assert!(a.max_rank_error() >= ea + eb);
    }

    #[test]
    fn sketch_is_deterministic() {
        let build = || {
            let mut s = QuantileSketch::new(64);
            for i in 0..10_000 {
                s.insert(((i * 7919) % 10_000) as f64);
            }
            s
        };
        assert_eq!(build(), build());
        assert_eq!(build().to_text(), build().to_text());
    }

    #[test]
    fn sketch_text_round_trips_exactly() {
        let mut s = QuantileSketch::new(16);
        for i in 0..1000 {
            s.insert((i as f64) * 0.1 - 17.3);
        }
        let text = s.to_text();
        let back = QuantileSketch::from_text(&text).expect("round trip");
        assert_eq!(s, back);
        assert_eq!(back.to_text(), text);
        // And the restored sketch keeps answering identically.
        assert_eq!(s.quantile(99.0), back.quantile(99.0));
    }

    #[test]
    fn sketch_text_rejects_garbage() {
        assert!(QuantileSketch::from_text("").is_err());
        assert!(QuantileSketch::from_text("nope k=16").is_err());
        assert!(QuantileSketch::from_text("qsketch k=16 count=x").is_err());
        // A level count far beyond the record must be rejected, not
        // allocated (or overflow the allocation size).
        for levels in ["100000000000000", "18446744073709551615"] {
            let text =
                format!("qsketch k=16 count=1 err=0 compactions=0 min=1 max=1 levels={levels} | 1");
            let err = QuantileSketch::from_text(&text).expect_err(levels);
            assert!(err.contains("header says"), "{levels}: {err}");
        }
    }

    #[test]
    fn throughput_math() {
        let r = report(4, 0.5);
        // 4 GPUs × 10 samples / 0.5 s.
        assert!((r.samples_per_sec - 80.0).abs() < 1e-9);
        assert!((r.mean_iter_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_scaling_is_one() {
        let single = report(1, 0.5);
        let multi = report(8, 0.5);
        assert!((scaling_efficiency(&single, &multi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slower_iterations_reduce_efficiency() {
        let single = report(1, 0.5);
        let multi = report(8, 1.0); // takes twice as long per iteration
        assert!((scaling_efficiency(&single, &multi) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn speedup_ratio() {
        let a = report(8, 0.25);
        let b = report(8, 0.5);
        assert!((speedup(&a, &b) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "single-GPU")]
    fn efficiency_requires_single_gpu_baseline() {
        let _ = scaling_efficiency(&report(2, 0.5), &report(8, 0.5));
    }

    fn named_report(model: &str, world: usize, batch: usize) -> ThroughputReport {
        ThroughputReport::new(
            "e".into(),
            model.into(),
            world,
            batch,
            SampleUnit::Images,
            vec![0.5; 3],
        )
    }

    #[test]
    #[should_panic(expected = "different models")]
    fn speedup_rejects_cross_model_comparison() {
        // A ResNet-50 vs BERT ratio is meaningless — refuse it.
        let _ = speedup(&named_report("resnet50", 8, 10), &named_report("bert_large", 8, 10));
    }

    #[test]
    #[should_panic(expected = "different world sizes")]
    fn speedup_rejects_cross_world_comparison() {
        let _ = speedup(&named_report("m", 8, 10), &named_report("m", 16, 10));
    }

    #[test]
    #[should_panic(expected = "different per-GPU batches")]
    fn speedup_rejects_cross_batch_comparison() {
        let _ = speedup(&named_report("m", 8, 10), &named_report("m", 8, 20));
    }

    #[test]
    #[should_panic(expected = "different models")]
    fn efficiency_rejects_cross_model_comparison() {
        let _ = scaling_efficiency(&named_report("resnet50", 1, 10), &named_report("vgg16", 8, 10));
    }

    #[test]
    fn efficiency_allows_different_engines() {
        // A Horovod multi-GPU run measured against the common single-GPU
        // reference is a legitimate comparison.
        let mut single = named_report("m", 1, 10);
        single.engine = "aiacc".into();
        let mut multi = named_report("m", 8, 10);
        multi.engine = "horovod".into();
        assert!((scaling_efficiency(&single, &multi) - 1.0).abs() < 1e-9);
    }
}
