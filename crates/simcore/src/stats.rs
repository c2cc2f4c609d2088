//! Online statistics used throughout the simulation.
//!
//! Three building blocks:
//!
//! * [`OnlineStats`] — numerically stable running mean/variance (Welford).
//! * [`Histogram`] — log-linear bucketed latency histogram (HDR-style) with
//!   bounded memory and quantile queries accurate to the bucket width.
//! * [`Ewma`] — exponentially weighted moving average for rate smoothing.
//!
//! All three are `f64`-based but deterministic: identical inputs produce
//! identical state regardless of platform (no fast-math, no reassociation).

use serde::{Deserialize, Serialize};

/// Welford's online mean/variance accumulator.
///
/// ```
/// use resex_simcore::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 1 sample).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.mean = mean;
        self.m2 = m2;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets to empty.
    pub fn clear(&mut self) {
        *self = OnlineStats::new();
    }
}

/// A log-linear histogram: buckets double in width every `sub_buckets`
/// buckets, giving a bounded relative error of `1/sub_buckets` across the
/// whole dynamic range — the same idea as HdrHistogram, sized for latency
/// values in nanoseconds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    sub_buckets: u32,
    counts: Vec<u64>,
    total: u64,
    stats: OnlineStats,
}

impl Histogram {
    /// Creates a histogram with the given sub-bucket resolution (per octave).
    /// 32 sub-buckets give ~3% worst-case relative quantile error.
    pub fn new(sub_buckets: u32) -> Self {
        assert!(
            sub_buckets.is_power_of_two(),
            "sub_buckets must be a power of two"
        );
        Histogram {
            sub_buckets,
            // 64 octaves cover the full u64 range.
            counts: vec![0; (64 * sub_buckets) as usize],
            total: 0,
            stats: OnlineStats::new(),
        }
    }

    /// Creates a histogram with the default resolution (32 sub-buckets).
    pub fn with_default_resolution() -> Self {
        Histogram::new(32)
    }

    /// Sub-bucket resolution (per octave) this histogram was built with.
    pub fn sub_buckets(&self) -> u32 {
        self.sub_buckets
    }

    /// The exact running statistics over every recorded value.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// The half-open bucket interval `[low, high)` that contains `v`.
    /// Every value recorded as `v` is counted in this bucket, and
    /// [`Histogram::quantile`] answers with some bucket's `low` — so an
    /// exact quantile and the histogram's answer for the same data always
    /// land within one bucket of each other.
    pub fn bucket_bounds(&self, v: u64) -> (u64, u64) {
        let idx = self.bucket_index(v);
        (self.bucket_low(idx), self.bucket_low(idx + 1))
    }

    fn bucket_index(&self, v: u64) -> usize {
        if v < self.sub_buckets as u64 {
            // The first octave is exact (bucket width 1).
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = msb - self.sub_buckets.trailing_zeros();
        let sub = (v >> octave) - self.sub_buckets as u64;
        ((octave + 1) as u64 * self.sub_buckets as u64 + sub) as usize
    }

    fn bucket_low(&self, idx: usize) -> u64 {
        let sb = self.sub_buckets as u64;
        let idx = idx as u64;
        if idx < sb {
            return idx;
        }
        let octave = idx / sb - 1;
        let sub = idx % sb;
        (sb + sub) << octave
    }

    /// Records a value.
    pub fn record(&mut self, v: u64) {
        let idx = self.bucket_index(v);
        self.counts[idx] += 1;
        self.total += 1;
        self.stats.push(v as f64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Population standard deviation of recorded values.
    pub fn std_dev(&self) -> f64 {
        self.stats.population_std_dev()
    }

    /// Smallest recorded value (exact).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.stats.min() as u64
        }
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.stats.max() as u64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, accurate to the bucket width.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_low(idx);
            }
        }
        self.max()
    }

    /// Iterates non-empty buckets as `(bucket_low, count)` pairs.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_low(i), c))
    }

    /// Bins recorded values onto a fixed linear grid `[lo, hi)` with `n`
    /// bins — the shape a frequency-distribution figure plots.
    pub fn linear_bins(&self, lo: u64, hi: u64, n: usize) -> Vec<(u64, u64)> {
        assert!(hi > lo && n > 0);
        let width = (hi - lo).max(1) / n as u64;
        let width = width.max(1);
        let mut bins = vec![0u64; n];
        for (low, count) in self.iter_buckets() {
            if low < lo || low >= hi {
                continue;
            }
            let b = ((low - lo) / width).min(n as u64 - 1) as usize;
            bins[b] += count;
        }
        bins.into_iter()
            .enumerate()
            .map(|(i, c)| (lo + i as u64 * width, c))
            .collect()
    }

    /// Merges another histogram with the same resolution.
    ///
    /// # Panics
    /// If resolutions differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.sub_buckets, other.sub_buckets, "resolution mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.stats.merge(&other.stats);
    }

    /// Resets all counts.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.stats.clear();
    }
}

/// Exponentially weighted moving average.
///
/// `alpha` is the weight of each new sample; higher means more reactive.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    /// If `alpha` is out of range.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of (0,1]: {alpha}");
        Ewma { alpha, value: None }
    }

    /// Feeds a sample; the first sample initializes the average.
    pub fn push(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current average, if any sample has been seen.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current average or the provided default.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Resets to the uninitialized state.
    pub fn clear(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        xs.iter().for_each(|&x| s.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..37].iter().for_each(|&x| left.push(x));
        xs[37..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.mean(), before);
    }

    #[test]
    fn histogram_first_octave_is_exact() {
        let mut h = Histogram::new(32);
        for v in 0..32 {
            h.record(v);
        }
        for (i, (low, count)) in h.iter_buckets().enumerate() {
            assert_eq!(low, i as u64);
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn histogram_bucket_low_below_value() {
        let h = Histogram::new(32);
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 209_000, u64::MAX / 2] {
            let idx = h.bucket_index(v);
            let low = h.bucket_low(idx);
            assert!(low <= v, "low({idx})={low} > v={v}");
            // The next bucket must start above v.
            let next_low = h.bucket_low(idx + 1);
            assert!(next_low > v, "next_low={next_low} <= v={v}");
        }
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let mut h = Histogram::new(32);
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.05, "p50={p50}");
        assert!((p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.05, "p99={p99}");
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn histogram_mean_and_extremes_are_exact() {
        let mut h = Histogram::with_default_resolution();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.mean(), 200.0);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 300);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = Histogram::with_default_resolution();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_merge_and_clear() {
        let mut a = Histogram::new(32);
        let mut b = Histogram::new(32);
        a.record(10);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 20);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.iter_buckets().count(), 0);
    }

    #[test]
    fn histogram_linear_bins_cover_range() {
        let mut h = Histogram::new(128);
        for v in [150u64, 155, 250, 350, 350, 399] {
            h.record(v);
        }
        let bins = h.linear_bins(100, 400, 6);
        assert_eq!(bins.len(), 6);
        let total: u64 = bins.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 6);
        // 150 and 155 land in the second bin [150, 200).
        assert_eq!(bins[1].1, 2);
    }

    #[test]
    fn bucket_bounds_contain_the_value() {
        let h = Histogram::new(32);
        for v in [0u64, 5, 31, 32, 100, 209_000, u64::MAX / 2] {
            let (lo, hi) = h.bucket_bounds(v);
            assert!(lo <= v && v < hi, "v={v} outside [{lo}, {hi})");
        }
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.push(10.0);
        assert_eq!(e.value(), Some(10.0));
        for _ in 0..60 {
            e.push(20.0);
        }
        assert!((e.value().unwrap() - 20.0).abs() < 1e-6);
        e.clear();
        assert_eq!(e.value_or(-1.0), -1.0);
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }
}
