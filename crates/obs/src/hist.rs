//! HDR-style latency histograms.
//!
//! [`HdrHistogram`] is a thin layer over `resex-simcore`'s log-linear
//! [`Histogram`] — the bucket math (and therefore every quantile and
//! `linear_bins` answer) is *bit-identical* to the simcore type, which is
//! what lets the platform swap its unbounded per-request `Vec` for this
//! fixed-memory structure without changing a single figure byte. On top
//! of the simcore core it adds:
//!
//! * the percentile set the SLO story needs (p50/p90/p99/p99.9),
//! * [`HdrHistogram::bucket_bounds`], the contract tests use to assert
//!   "within one bucket of the exact quantile".
//!
//! Memory is bounded by construction: `64 × sub_buckets` counters cover
//! the whole `u64` range, so a million-request run costs the same bytes
//! as a thousand-request run.

use resex_simcore::stats::Histogram;

/// A mergeable, fixed-memory latency histogram (values in nanoseconds by
/// convention, though the type is unit-agnostic).
#[derive(Clone, Debug)]
pub struct HdrHistogram {
    inner: Histogram,
}

/// The percentile set reported per VM.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HdrHistogram {
    /// Creates a histogram with the given sub-bucket resolution (per
    /// octave, power of two). 32 sub-buckets ≈ 3% worst-case quantile
    /// error.
    pub fn new(sub_buckets: u32) -> Self {
        HdrHistogram {
            inner: Histogram::new(sub_buckets),
        }
    }

    /// The default resolution (32 sub-buckets) — identical bucket edges
    /// to `Histogram::with_default_resolution`.
    pub fn with_default_resolution() -> Self {
        HdrHistogram {
            inner: Histogram::with_default_resolution(),
        }
    }

    /// Records a value.
    pub fn record(&mut self, v: u64) {
        self.inner.record(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Mean of recorded values (exact, from the running stats).
    pub fn mean(&self) -> f64 {
        self.inner.mean()
    }

    /// Population standard deviation of recorded values (exact).
    pub fn std_dev(&self) -> f64 {
        self.inner.std_dev()
    }

    /// Smallest recorded value (exact).
    pub fn min(&self) -> u64 {
        self.inner.min()
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.inner.max()
    }

    /// The value at quantile `q ∈ [0, 1]`, accurate to the bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        self.inner.quantile(q)
    }

    /// p50/p90/p99/p99.9 in one call.
    pub fn percentiles(&self) -> LatencyPercentiles {
        LatencyPercentiles {
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// The half-open bucket interval `[low, high)` containing `v`. The
    /// histogram's quantile answer for data containing `v` at that rank is
    /// exactly `low`, so exact-vs-histogram comparisons can assert
    /// containment instead of an arbitrary epsilon.
    pub fn bucket_bounds(&self, v: u64) -> (u64, u64) {
        self.inner.bucket_bounds(v)
    }

    /// Iterates non-empty buckets as `(bucket_low, count)` pairs.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.inner.iter_buckets()
    }

    /// Bins recorded values onto a fixed linear grid — byte-identical to
    /// `Histogram::linear_bins` on the same data.
    pub fn linear_bins(&self, lo: u64, hi: u64, n: usize) -> Vec<(u64, u64)> {
        self.inner.linear_bins(lo, hi, n)
    }

    /// Merges another histogram with the same resolution.
    ///
    /// # Panics
    /// If resolutions differ.
    pub fn merge(&mut self, other: &HdrHistogram) {
        self.inner.merge(&other.inner);
    }

    /// Resets all counts.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::with_default_resolution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_order_independent() {
        let mut a = HdrHistogram::with_default_resolution();
        let mut b = HdrHistogram::with_default_resolution();
        for v in 1..500u64 {
            a.record(v * 7);
        }
        for v in 1..300u64 {
            b.record(v * 13);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.count(), ba.count());
        assert!(
            ab.iter_buckets().eq(ba.iter_buckets()),
            "merge must commute bucket for bucket"
        );
        assert_eq!(ab.mean().to_bits(), ba.mean().to_bits());
        assert_eq!(ab.std_dev().to_bits(), ba.std_dev().to_bits());
        assert_eq!((ab.min(), ab.max()), (ba.min(), ba.max()));
    }

    #[test]
    fn percentiles_are_ordered_and_bucket_accurate() {
        let mut h = HdrHistogram::with_default_resolution();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p = h.percentiles();
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.p999);
        // Exact p99 of 1..=10_000 is 9_900; the histogram answer must be
        // the low edge of the bucket containing it.
        let (lo, hi) = h.bucket_bounds(9_900);
        assert!(lo <= 9_900 && 9_900 < hi);
        assert_eq!(p.p99, lo);
    }

    #[test]
    fn matches_simcore_histogram_bit_for_bit() {
        // The load-bearing property: the obs-layer histogram and the
        // simcore histogram must agree on every derived number, or
        // swapping the platform's percentile path would change figures.
        let mut a = HdrHistogram::with_default_resolution();
        let mut b = resex_simcore::stats::Histogram::with_default_resolution();
        for v in [150_000u64, 208_900, 209_000, 209_100, 399_999, 1_000_000] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.quantile(0.99), b.quantile(0.99));
        assert_eq!(
            a.linear_bins(150_000, 400_000, 25),
            b.linear_bins(150_000, 400_000, 25)
        );
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
    }
}
