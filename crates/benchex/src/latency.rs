//! Latency records and their decomposition.
//!
//! The paper splits server latency into three parts (Figure 2):
//!
//! * **CTime** — compute time: pricing the transaction.
//! * **WTime** — I/O wait time: from posting the RDMA response until its
//!   completion arrives (where link interference shows up).
//! * **PTime** — polling time: spinning on the completion queue waiting for
//!   the next request.
//!
//! [`LatencyRecord`] captures one request's decomposition;
//! [`LatencyWindow`] aggregates records for agents and experiment output.

use resex_simcore::stats::OnlineStats;
use resex_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One served request's timing decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyRecord {
    /// When service completed.
    pub at: SimTime,
    /// Request id.
    pub request_id: u64,
    /// Polling time.
    pub ptime: SimDuration,
    /// Compute time.
    pub ctime: SimDuration,
    /// I/O wait time.
    pub wtime: SimDuration,
}

impl LatencyRecord {
    /// Total service time (PTime + CTime + WTime).
    pub fn total(&self) -> SimDuration {
        self.ptime + self.ctime + self.wtime
    }
}

/// Aggregate statistics over a set of records, per component.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Total service time stats (µs).
    pub total: OnlineStats,
    /// Polling time stats (µs).
    pub ptime: OnlineStats,
    /// Compute time stats (µs).
    pub ctime: OnlineStats,
    /// I/O wait stats (µs).
    pub wtime: OnlineStats,
}

impl LatencySummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one record.
    pub fn push(&mut self, r: &LatencyRecord) {
        self.total.push(r.total().as_micros_f64());
        self.ptime.push(r.ptime.as_micros_f64());
        self.ctime.push(r.ctime.as_micros_f64());
        self.wtime.push(r.wtime.as_micros_f64());
    }

    /// Number of records summarized.
    pub fn count(&self) -> u64 {
        self.total.count()
    }
}

/// A bounded sliding window of recent records, the data source for the
/// in-VM reporting agent.
#[derive(Clone, Debug)]
pub struct LatencyWindow {
    records: std::collections::VecDeque<LatencyRecord>,
    capacity: usize,
}

impl LatencyWindow {
    /// A window keeping the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        LatencyWindow {
            records: std::collections::VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Adds a record, evicting the oldest when full. Records arrive in
    /// completion order, so `at` never decreases.
    pub fn push(&mut self, r: LatencyRecord) {
        debug_assert!(
            self.records.back().is_none_or(|b| b.at <= r.at),
            "latency records must be pushed in time order"
        );
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(r);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records newer than `since`, oldest first. The window is time
    /// ordered, so a binary search finds the first one.
    pub fn since(&self, since: SimTime) -> impl Iterator<Item = &LatencyRecord> {
        let first = self.records.partition_point(|r| r.at <= since);
        self.records.range(first..)
    }

    /// Summary over the whole window.
    pub fn summary(&self) -> LatencySummary {
        let mut s = LatencySummary::new();
        for r in &self.records {
            s.push(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_us: u64, p: u64, c: u64, w: u64) -> LatencyRecord {
        LatencyRecord {
            at: SimTime::from_micros(at_us),
            request_id: at_us,
            ptime: SimDuration::from_micros(p),
            ctime: SimDuration::from_micros(c),
            wtime: SimDuration::from_micros(w),
        }
    }

    #[test]
    fn total_is_sum_of_components() {
        let r = rec(1, 40, 105, 64);
        assert_eq!(r.total(), SimDuration::from_micros(209));
    }

    #[test]
    fn summary_averages_components() {
        let mut s = LatencySummary::new();
        s.push(&rec(1, 10, 100, 50));
        s.push(&rec(2, 30, 100, 70));
        assert_eq!(s.count(), 2);
        assert_eq!(s.ptime.mean(), 20.0);
        assert_eq!(s.ctime.mean(), 100.0);
        assert_eq!(s.wtime.mean(), 60.0);
        assert_eq!(s.total.mean(), 180.0);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = LatencyWindow::new(3);
        for i in 0..5 {
            w.push(rec(i, 1, 1, 1));
        }
        assert_eq!(w.len(), 3);
        let ids: Vec<u64> = w.since(SimTime::ZERO).map(|r| r.request_id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn since_filters_by_time() {
        let mut w = LatencyWindow::new(10);
        for i in 0..5 {
            w.push(rec(i * 10, 1, 1, 1));
        }
        assert_eq!(w.since(SimTime::from_micros(15)).count(), 3);
        assert_eq!(
            w.since(SimTime::from_micros(40)).count(),
            0,
            "strictly newer"
        );
    }

    #[test]
    fn since_matches_a_full_filter() {
        // Ties at the cut-off, a full window that has evicted, and cut-offs
        // before, between, at and after every record.
        let mut w = LatencyWindow::new(6);
        for (i, at) in [0, 5, 10, 10, 20, 20, 20, 30].into_iter().enumerate() {
            let mut r = rec(at, 1, 1, 1);
            r.request_id = i as u64;
            w.push(r);
        }
        for since_us in 0..=35 {
            let since = SimTime::from_micros(since_us);
            let got: Vec<u64> = w.since(since).map(|r| r.request_id).collect();
            let want: Vec<u64> = w
                .records
                .iter()
                .filter(|r| r.at > since)
                .map(|r| r.request_id)
                .collect();
            assert_eq!(got, want, "since {since_us} µs");
        }
    }
}
