//! A small metrics registry over `resex-simcore`'s statistics types.
//!
//! Keys are `(subsystem, entity, name)` triples stored in ordered maps, so
//! snapshots iterate deterministically. Counters are monotonic u64s,
//! gauges are last-write f64s, distributions pair an [`OnlineStats`] with
//! a log-linear [`Histogram`], and rates ride on [`WindowedRate`].

use resex_simcore::stats::{Histogram, OnlineStats};
use resex_simcore::time::SimTime;
use resex_simcore::WindowedRate;
use serde::Serialize;
use std::collections::BTreeMap;

/// A metric key: subsystem, entity label (e.g. `vm0`, `global`), name.
pub type MetricKey = (String, String, String);

fn key(subsystem: &str, entity: &str, name: &str) -> MetricKey {
    (subsystem.to_string(), entity.to_string(), name.to_string())
}

/// What kind of metric a sample came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Distribution (mean/min/max plus quantiles).
    Distribution,
    /// Trailing-window rate, per second.
    Rate,
}

/// One exported metric value at snapshot time.
#[derive(Clone, Debug, Serialize)]
pub struct MetricSample {
    /// Subsystem the metric belongs to.
    pub subsystem: String,
    /// Entity label (`vm3`, `qp7`, `global`, ...).
    pub entity: String,
    /// Metric name.
    pub name: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Scalar value: counter total, gauge value, distribution mean, or
    /// rate per second.
    pub value: f64,
    /// Sample count (distributions only).
    pub count: u64,
    /// p50 (distributions only, else 0).
    pub p50: u64,
    /// p99 (distributions only, else 0).
    pub p99: u64,
    /// Maximum (distributions only, else 0).
    pub max: u64,
}

/// The registry. One instance per observed run.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    dists: BTreeMap<MetricKey, (OnlineStats, Histogram)>,
    rates: BTreeMap<MetricKey, WindowedRate>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds to a monotonic counter.
    pub fn counter_add(&mut self, subsystem: &str, entity: &str, name: &str, delta: u64) {
        *self
            .counters
            .entry(key(subsystem, entity, name))
            .or_insert(0) += delta;
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(&mut self, subsystem: &str, entity: &str, name: &str, value: f64) {
        self.gauges.insert(key(subsystem, entity, name), value);
    }

    /// Records a value into a distribution (stats + histogram).
    pub fn dist_record(&mut self, subsystem: &str, entity: &str, name: &str, value: u64) {
        let (stats, hist) = self
            .dists
            .entry(key(subsystem, entity, name))
            .or_insert_with(|| (OnlineStats::new(), Histogram::new(32)));
        stats.push(value as f64);
        hist.record(value);
    }

    /// Records an occurrence count into a trailing-window rate.
    pub fn rate_record(
        &mut self,
        subsystem: &str,
        entity: &str,
        name: &str,
        now: SimTime,
        count: u64,
    ) {
        self.rates
            .entry(key(subsystem, entity, name))
            .or_insert_with(|| {
                WindowedRate::new(resex_simcore::time::SimDuration::from_millis(100))
            })
            .record(now, count);
    }

    /// Merges another registry into this one.
    ///
    /// Counters add, distributions and rates merge their underlying
    /// statistics (commutatively — the result is independent of merge
    /// order), and gauges are last-write-wins: `other`'s value replaces
    /// ours wherever both registries wrote the same key, matching
    /// [`MetricsRegistry::gauge_set`] semantics where the merged-in
    /// registry is the later writer.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, (stats, hist)) in &other.dists {
            let (s, h) = self
                .dists
                .entry(k.clone())
                .or_insert_with(|| (OnlineStats::new(), Histogram::new(32)));
            s.merge(stats);
            h.merge(hist);
        }
        for (k, rate) in &other.rates {
            match self.rates.get_mut(k) {
                Some(mine) => mine.merge(rate),
                None => {
                    self.rates.insert(k.clone(), rate.clone());
                }
            }
        }
    }

    /// Snapshots every metric in deterministic key order.
    ///
    /// Takes `&mut self` because [`WindowedRate::rate_per_sec`] evicts
    /// expired window entries.
    pub fn snapshot(&mut self, now: SimTime) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for ((s, e, n), v) in &self.counters {
            out.push(MetricSample {
                subsystem: s.clone(),
                entity: e.clone(),
                name: n.clone(),
                kind: MetricKind::Counter,
                value: *v as f64,
                count: 0,
                p50: 0,
                p99: 0,
                max: 0,
            });
        }
        for ((s, e, n), v) in &self.gauges {
            out.push(MetricSample {
                subsystem: s.clone(),
                entity: e.clone(),
                name: n.clone(),
                kind: MetricKind::Gauge,
                value: *v,
                count: 0,
                p50: 0,
                p99: 0,
                max: 0,
            });
        }
        for ((s, e, n), (stats, hist)) in &self.dists {
            out.push(MetricSample {
                subsystem: s.clone(),
                entity: e.clone(),
                name: n.clone(),
                kind: MetricKind::Distribution,
                value: if stats.count() > 0 { stats.mean() } else { 0.0 },
                count: stats.count(),
                p50: hist.quantile(0.5),
                p99: hist.quantile(0.99),
                max: hist.max(),
            });
        }
        for ((s, e, n), rate) in &mut self.rates {
            out.push(MetricSample {
                subsystem: s.clone(),
                entity: e.clone(),
                name: n.clone(),
                kind: MetricKind::Rate,
                value: rate.rate_per_sec(now),
                count: 0,
                p50: 0,
                p99: 0,
                max: 0,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.counter_add("fabric.link", "vm0", "grants", 10);
        r.counter_add("hv.sched", "dom1", "reschedules", 3);
        r.gauge_set("resex.manager", "vm0", "cap_pct", 55.0);
        for v in [100u64, 200, 300, 4_000] {
            r.dist_record("ibmon", "vm0", "latency_ns", v);
        }
        r.rate_record("fabric.link", "vm0", "msgs", ms(10), 7);
        r.rate_record("fabric.link", "vm0", "msgs", ms(20), 5);
        r
    }

    #[test]
    fn dist_record_feeds_stats_and_histogram() {
        let mut r = MetricsRegistry::new();
        for v in [100u64, 200, 300] {
            r.dist_record("ibmon", "vm0", "lat", v);
        }
        let snap = r.snapshot(ms(0));
        let d = snap
            .iter()
            .find(|s| s.kind == MetricKind::Distribution)
            .expect("distribution sample");
        assert_eq!(d.count, 3);
        assert_eq!(d.value, 200.0);
        assert_eq!(d.max, 300);
        assert!(d.p50 <= d.p99 && d.p99 <= d.max);
    }

    #[test]
    fn rate_record_windows_and_reports_per_second() {
        let mut r = MetricsRegistry::new();
        // 100 ms window: 7+5 events within it at t=20ms.
        r.rate_record("fabric.link", "vm0", "msgs", ms(10), 7);
        r.rate_record("fabric.link", "vm0", "msgs", ms(20), 5);
        let snap = r.snapshot(ms(20));
        let rate = snap
            .iter()
            .find(|s| s.kind == MetricKind::Rate)
            .expect("rate sample");
        assert!((rate.value - 120.0).abs() < 1e-9, "12 events / 0.1 s");
    }

    #[test]
    fn snapshot_order_is_stable_across_runs() {
        let keys = |r: &mut MetricsRegistry| {
            r.snapshot(ms(30))
                .into_iter()
                .map(|s| (s.subsystem, s.entity, s.name))
                .collect::<Vec<_>>()
        };
        let a = keys(&mut sample_registry());
        let b = keys(&mut sample_registry());
        assert_eq!(a, b);
        // Kind-major, then key order within a kind.
        assert_eq!(a[0].0, "fabric.link");
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn merge_is_independent_of_order() {
        let mk_other = || {
            let mut r = MetricsRegistry::new();
            r.counter_add("fabric.link", "vm0", "grants", 4); // overlaps
            r.counter_add("faults", "global", "injected", 1); // disjoint
            for v in [500u64, 600] {
                r.dist_record("ibmon", "vm0", "latency_ns", v); // overlaps
            }
            r.rate_record("fabric.link", "vm0", "msgs", ms(15), 2); // overlaps
            r.gauge_set("hv.sched", "dom1", "credits", 9.0); // disjoint
            r
        };
        let mut ab = sample_registry();
        ab.merge(&mk_other());
        let mut ba = mk_other();
        ba.merge(&sample_registry());
        // Gauges written by both sides are last-write-wins, so restrict
        // the equality check to everything except that one overlapping
        // case — here the gauge keys are disjoint, so full snapshots must
        // agree exactly.
        let sa = ab.snapshot(ms(30));
        let sb = ba.snapshot(ms(30));
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!(
                (&x.subsystem, &x.entity, &x.name),
                (&y.subsystem, &y.entity, &y.name)
            );
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "{:?}", x.name);
            assert_eq!(
                (x.count, x.p50, x.p99, x.max),
                (y.count, y.p50, y.p99, y.max)
            );
        }
        assert_eq!(ab.counters[&key("fabric.link", "vm0", "grants")], 14);
        assert_eq!(ab.counters[&key("faults", "global", "injected")], 1);
    }

    #[test]
    fn merge_gauge_overlap_takes_the_merged_in_value() {
        let mut a = MetricsRegistry::new();
        a.gauge_set("resex.manager", "vm0", "cap_pct", 40.0);
        let mut b = MetricsRegistry::new();
        b.gauge_set("resex.manager", "vm0", "cap_pct", 70.0);
        a.merge(&b);
        let snap = a.snapshot(ms(0));
        assert_eq!(snap[0].value, 70.0);
    }
}
