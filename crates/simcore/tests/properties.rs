//! Property-based tests for the simulation kernel's invariants.

use proptest::prelude::*;
use resex_simcore::event::EventQueue;
use resex_simcore::rng::SimRng;
use resex_simcore::stats::{Histogram, OnlineStats};
use resex_simcore::time::{SimDuration, SimTime};
use resex_simcore::{TimeSeries, WindowedRate};

proptest! {
    /// Welford must agree with the naive two-pass formulas.
    #[test]
    fn online_stats_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        xs.iter().for_each(|&x| s.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.population_variance() - var).abs() <= 1e-4 * (1.0 + var));
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert!(s.min() <= s.max());
    }

    /// Merging two accumulators equals accumulating everything in one.
    #[test]
    fn online_stats_merge_associative(
        a in prop::collection::vec(-1e5f64..1e5, 0..100),
        b in prop::collection::vec(-1e5f64..1e5, 0..100),
    ) {
        let mut whole = OnlineStats::new();
        a.iter().chain(&b).for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        a.iter().for_each(|&x| left.push(x));
        let mut right = OnlineStats::new();
        b.iter().for_each(|&x| right.push(x));
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        }
    }

    /// Histogram count conservation and quantile error bound.
    #[test]
    fn histogram_quantile_bounded(values in prop::collection::vec(1u64..10_000_000, 1..500)) {
        let mut h = Histogram::new(32);
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let mut sorted = values.clone();
        sorted.sort();
        for &q in &[0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            // Log-linear buckets with 32 sub-buckets: ≤ ~3.2% low-side error.
            prop_assert!(est <= exact, "quantile must not overshoot: {est} > {exact}");
            prop_assert!(
                est as f64 >= exact as f64 * 0.96 - 1.0,
                "q={q}: est {est} too far below exact {exact}"
            );
        }
    }

    /// Histogram merge equals recording into one histogram.
    #[test]
    fn histogram_merge_conserves(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new(32);
        let mut hb = Histogram::new(32);
        let mut hw = Histogram::new(32);
        for &v in &a { ha.record(v); hw.record(v); }
        for &v in &b { hb.record(v); hw.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hw.count());
        prop_assert_eq!(ha.quantile(0.5), hw.quantile(0.5));
        prop_assert_eq!(ha.max(), hw.max());
    }

    /// Event queue pops in (time, insertion-order) order, regardless of
    /// insertion sequence.
    #[test]
    fn event_queue_is_stable_priority(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert_eq!(SimTime::from_micros(times[idx]), t);
            if let Some((lt, lidx)) = last {
                prop_assert!(t > lt || (t == lt && idx > lidx), "stable order violated");
            }
            last = Some((t, idx));
        }
    }

    /// Cancelling any subset removes exactly that subset.
    #[test]
    fn event_queue_cancellation(
        times in prop::collection::vec(0u64..100, 1..50),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..50),
    ) {
        let mut q = EventQueue::new();
        let keys: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule_at(SimTime::from_micros(t), i)))
            .collect();
        let mut cancelled = std::collections::BTreeSet::new();
        for (i, key) in &keys {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                prop_assert!(q.cancel(*key));
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some((_, idx)) = q.pop() {
            prop_assert!(!cancelled.contains(&idx), "cancelled event fired");
            seen.insert(idx);
        }
        prop_assert_eq!(seen.len() + cancelled.len(), times.len());
    }

    /// Deterministic RNG: bounded sampling stays in bounds.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX, n in 1usize..50) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..n {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// Windowed rate: in-window count never exceeds lifetime count, and a
    /// window covering everything equals the lifetime count.
    #[test]
    fn windowed_rate_conservation(counts in prop::collection::vec(0u64..1000, 1..50)) {
        let mut w = WindowedRate::new(SimDuration::from_secs(3600));
        let mut t = SimTime::ZERO;
        for &c in &counts {
            t += SimDuration::from_millis(1);
            w.record(t, c);
        }
        let total: u64 = counts.iter().sum();
        prop_assert_eq!(w.lifetime_count(), total);
        prop_assert_eq!(w.count_in_window(t), total, "wide window sees everything");
    }

    /// Downsampling preserves the value range and never increases points.
    #[test]
    fn downsample_bounds(values in prop::collection::vec(0f64..1e6, 1..300)) {
        let mut s = TimeSeries::new();
        for (i, &v) in values.iter().enumerate() {
            s.push(SimTime::from_micros(i as u64 * 100), v);
        }
        let d = s.downsample_mean(SimDuration::from_millis(1));
        prop_assert!(d.len() <= values.len());
        prop_assert!(!d.is_empty());
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &(_, v) in &d {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "window mean out of range");
        }
    }
}
