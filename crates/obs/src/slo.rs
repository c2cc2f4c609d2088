//! Per-VM SLO-violation tracking.
//!
//! The paper's managed experiments define an SLA as a latency band around
//! the uncontended baseline; the observability layer tracks the stricter
//! operational question — how many requests exceeded a hard latency
//! threshold — both over the whole run and per charging interval, so the
//! violation *rate* can be plotted against the manager's cap decisions.
//!
//! [`SloMonitor`] is pure observation: it never feeds back into
//! scheduling, so enabling it cannot perturb a run.

/// Counts requests whose latency exceeds a fixed threshold.
#[derive(Clone, Debug)]
pub struct SloMonitor {
    threshold_ns: u64,
    total: u64,
    violations: u64,
    interval_total: u64,
    interval_violations: u64,
}

impl SloMonitor {
    /// Creates a monitor with the given latency threshold in nanoseconds.
    pub fn new(threshold_ns: u64) -> Self {
        SloMonitor {
            threshold_ns,
            total: 0,
            violations: 0,
            interval_total: 0,
            interval_violations: 0,
        }
    }

    /// The configured threshold.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Records one request latency (nanoseconds). Latencies strictly
    /// above the threshold count as violations.
    pub fn observe(&mut self, latency_ns: u64) {
        self.total += 1;
        self.interval_total += 1;
        if latency_ns > self.threshold_ns {
            self.violations += 1;
            self.interval_violations += 1;
        }
    }

    /// Closes the current interval, returning `(checked, violations)` for
    /// it and resetting the interval counters. Run totals are unaffected.
    pub fn end_interval(&mut self) -> (u64, u64) {
        let out = (self.interval_total, self.interval_violations);
        self.interval_total = 0;
        self.interval_violations = 0;
        out
    }

    /// Whole-run `(checked, violations)` totals.
    pub fn totals(&self) -> (u64, u64) {
        (self.total, self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_violations_above_threshold() {
        let mut m = SloMonitor::new(1_000);
        assert_eq!(m.totals(), (0, 0));
        m.observe(999);
        m.observe(1_000); // at-threshold is compliant
        m.observe(1_001);
        m.observe(50_000);
        assert_eq!(m.totals(), (4, 2));
    }

    #[test]
    fn intervals_reset_without_touching_totals() {
        let mut m = SloMonitor::new(100);
        m.observe(200);
        m.observe(50);
        assert_eq!(m.end_interval(), (2, 1));
        m.observe(200);
        assert_eq!(m.end_interval(), (1, 1));
        assert_eq!(m.end_interval(), (0, 0));
        assert_eq!(m.totals(), (3, 2));
    }
}
