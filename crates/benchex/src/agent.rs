//! The in-VM reporting agent.
//!
//! "BenchEx also provides an online monitoring interface to an external
//! agent, running inside each VM, through which it can continuously report
//! the observed server-side latencies. The agent may then forward this
//! information to the main ResEx module running in Dom0." Reporting costs
//! the VM about 10 µs per report in the paper; [`ReportingAgent::report`]
//! returns that cost so the platform can charge it to the VM's VCPU.

use crate::latency::LatencyWindow;
use resex_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One report forwarded to ResEx in dom0.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// When the report was generated.
    pub at: SimTime,
    /// Requests covered by this report.
    pub count: u64,
    /// Mean total service latency, µs.
    pub mean_us: f64,
    /// Population standard deviation of total latency, µs.
    pub std_us: f64,
    /// Mean I/O wait component, µs (where interference lands).
    pub wtime_mean_us: f64,
}

/// Agent configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AgentConfig {
    /// CPU cost charged to the VM per report (paper: ~10 µs).
    pub report_cost: SimDuration,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            report_cost: SimDuration::from_micros(10),
        }
    }
}

/// Collects the server's recent latency records and produces reports.
pub struct ReportingAgent {
    cfg: AgentConfig,
    last_report: SimTime,
}

impl ReportingAgent {
    /// Creates an agent.
    pub fn new(cfg: AgentConfig) -> Self {
        ReportingAgent {
            cfg,
            last_report: SimTime::ZERO,
        }
    }

    /// Generates a report over records newer than the previous report.
    /// Returns the report (None when no new records) and the CPU cost to
    /// charge to the VM.
    pub fn report(
        &mut self,
        window: &LatencyWindow,
        now: SimTime,
    ) -> (Option<LatencyReport>, SimDuration) {
        let mut total = resex_simcore::stats::OnlineStats::new();
        let mut wtime = resex_simcore::stats::OnlineStats::new();
        for r in window.since(self.last_report) {
            total.push(r.total().as_micros_f64());
            wtime.push(r.wtime.as_micros_f64());
        }
        self.last_report = now;
        if total.count() == 0 {
            return (None, self.cfg.report_cost);
        }
        (
            Some(LatencyReport {
                at: now,
                count: total.count(),
                mean_us: total.mean(),
                std_us: total.population_std_dev(),
                wtime_mean_us: wtime.mean(),
            }),
            self.cfg.report_cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyRecord;

    fn rec(at_us: u64, total_us: u64) -> LatencyRecord {
        LatencyRecord {
            at: SimTime::from_micros(at_us),
            request_id: at_us,
            ptime: SimDuration::from_micros(total_us / 4),
            ctime: SimDuration::from_micros(total_us / 2),
            wtime: SimDuration::from_micros(total_us - total_us / 4 - total_us / 2),
        }
    }

    #[test]
    fn report_summarizes_new_records_only() {
        let mut w = LatencyWindow::new(100);
        let mut agent = ReportingAgent::new(AgentConfig::default());
        w.push(rec(10, 200));
        w.push(rec(20, 220));
        let (r1, cost) = agent.report(&w, SimTime::from_micros(100));
        assert_eq!(cost, SimDuration::from_micros(10));
        let r1 = r1.unwrap();
        assert_eq!(r1.count, 2);
        assert!((r1.mean_us - 210.0).abs() < 1e-9);
        // Next interval sees only newer records.
        w.push(rec(150, 400));
        let (r2, _) = agent.report(&w, SimTime::from_micros(200));
        let r2 = r2.unwrap();
        assert_eq!(r2.count, 1);
        assert_eq!(r2.mean_us, 400.0);
    }

    #[test]
    fn empty_interval_returns_none_but_still_costs() {
        let w = LatencyWindow::new(10);
        let mut agent = ReportingAgent::new(AgentConfig::default());
        let (r, cost) = agent.report(&w, SimTime::from_micros(50));
        assert!(r.is_none());
        assert!(!cost.is_zero());
    }

    #[test]
    fn std_reflects_variation() {
        let mut w = LatencyWindow::new(10);
        let mut agent = ReportingAgent::new(AgentConfig::default());
        w.push(rec(1, 200));
        w.push(rec(2, 200));
        let (r, _) = agent.report(&w, SimTime::from_micros(10));
        assert_eq!(r.unwrap().std_us, 0.0, "no jitter");
        w.push(rec(11, 100));
        w.push(rec(12, 300));
        let (r, _) = agent.report(&w, SimTime::from_micros(20));
        assert!(r.unwrap().std_us > 90.0, "interference shows as std");
    }
}
