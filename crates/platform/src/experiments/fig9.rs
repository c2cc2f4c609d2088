//! Figure 9 — FreeMarket and IOShares vs interfering buffer size.
//!
//! Paper: "IOShares outperforms FreeMarket by maintaining the average
//! latency very close to the base value" across interferer buffer sizes
//! 64 KiB – 1 MiB; FreeMarket is work-conserving but "does not limit the
//! latency since it does not have access to that information."

use crate::experiments::{mean_std, p99_us, slo_violation_pct, Scale};
use crate::metrics::{AdversaryTotals, CrashTotals, RecoveryTotals, RunMetrics};
use crate::scenario::{fmt_size, PolicyKind, ScenarioConfig};
use serde::Serialize;

/// One x-axis group.
#[derive(Clone, Debug, Serialize)]
pub struct Fig9Row {
    /// Interferer buffer size label.
    pub buffer: String,
    /// Base (solo) latency, µs.
    pub base_us: f64,
    /// Unmanaged interfered latency, µs (context; not in the paper's plot).
    pub interfered_us: f64,
    /// FreeMarket latency, µs.
    pub freemarket_us: f64,
    /// IOShares latency, µs.
    pub ioshares_us: f64,
    /// Base (solo) p99 latency, µs.
    pub base_p99_us: f64,
    /// Unmanaged interfered p99 latency, µs.
    pub interfered_p99_us: f64,
    /// FreeMarket p99 latency, µs.
    pub freemarket_p99_us: f64,
    /// IOShares p99 latency, µs.
    pub ioshares_p99_us: f64,
    /// FreeMarket SLO-violation percentage (threshold 2× base SLA mean).
    pub freemarket_slo_pct: f64,
    /// IOShares SLO-violation percentage (same threshold).
    pub ioshares_slo_pct: f64,
}

/// The full figure.
#[derive(Clone, Debug)]
pub struct Fig9Result {
    /// One row per interferer buffer size.
    pub rows: Vec<Fig9Row>,
    /// What the self-healing layer did across every run of the figure.
    /// All-zero in clean runs.
    pub recovery: RecoveryTotals,
    /// What the antagonist plane did across every run of the figure.
    /// All-zero in adversary-off runs.
    pub adversary: AdversaryTotals,
    /// What the crash plane did across every run of the figure.
    /// All-zero in crash-free runs.
    pub crashes: CrashTotals,
}

// Hand-written so clean runs serialize exactly as before these fields
// existed: `recovery`/`adversary` appear only when something actually
// happened, keeping clean-run JSON byte-identical across versions.
impl Serialize for Fig9Result {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("rows".to_string(), self.rows.to_value());
        if self.recovery != RecoveryTotals::default() {
            m.insert("recovery".to_string(), self.recovery.to_value());
        }
        if self.adversary != AdversaryTotals::default() {
            m.insert("adversary".to_string(), self.adversary.to_value());
        }
        if self.crashes != CrashTotals::default() {
            m.insert("crashes".to_string(), self.crashes.to_value());
        }
        serde::Value::Object(m)
    }
}

/// Runs the policy comparison across buffer sizes.
pub fn run(scale: &Scale) -> Fig9Result {
    let buffers = [64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024];
    let mut cases = vec![ScenarioConfig::base_case(64 * 1024)];
    for buf in buffers {
        cases.push(ScenarioConfig::interfered(buf));
        cases.push(ScenarioConfig::managed(buf, PolicyKind::FreeMarket));
        cases.push(ScenarioConfig::managed(buf, PolicyKind::IoShares));
    }
    let runs: Vec<RunMetrics> = scale
        .run(cases.into_iter().map(|cfg| (scale.duration, cfg)))
        .into_iter()
        .map(|(run, _)| run)
        .collect();
    let (base, rest) = runs.split_first().expect("base case");
    let base_us = mean_std(base, "64KB").0;
    let base_p99 = p99_us(base, "64KB");
    let mut recovery = base.recovery_totals();
    let mut adversary = base.adversary;
    let mut crashes = base.crashes;
    let mut rows = Vec::with_capacity(buffers.len());
    for (buf, trio) in buffers.into_iter().zip(rest.chunks(3)) {
        let [intf, fm, ios] = trio else {
            unreachable!("three policies per buffer")
        };
        // Sum each row before adding it to the total: the adversary
        // tallies are floating point, so the grouping is part of the
        // output (and of the committed baselines).
        let mut adv = intf.adversary;
        adv.merge(fm.adversary);
        adv.merge(ios.adversary);
        adversary.merge(adv);
        for run in trio {
            recovery.merge(run.recovery_totals());
            crashes.merge(run.crashes);
        }
        rows.push(Fig9Row {
            buffer: fmt_size(buf),
            base_us,
            interfered_us: mean_std(intf, "64KB").0,
            freemarket_us: mean_std(fm, "64KB").0,
            ioshares_us: mean_std(ios, "64KB").0,
            base_p99_us: base_p99,
            interfered_p99_us: p99_us(intf, "64KB"),
            freemarket_p99_us: p99_us(fm, "64KB"),
            ioshares_p99_us: p99_us(ios, "64KB"),
            freemarket_slo_pct: slo_violation_pct(fm, "64KB"),
            ioshares_slo_pct: slo_violation_pct(ios, "64KB"),
        });
    }
    Fig9Result {
        rows,
        recovery,
        adversary,
        crashes,
    }
}

impl Fig9Result {
    /// Prints the figure.
    pub fn print(&self) {
        println!("Figure 9 — policies vs interfering buffer size (64KB reporter)");
        println!(
            "\n  {:>8} {:>10} {:>12} {:>12} {:>12}",
            "buffer", "base µs", "unmanaged", "FreeMarket", "IOShares"
        );
        for r in &self.rows {
            println!(
                "  {:>8} {:>10.1} {:>12.1} {:>12.1} {:>12.1}",
                r.buffer, r.base_us, r.interfered_us, r.freemarket_us, r.ioshares_us
            );
        }
        println!(
            "\n  {:>8} {:>10} {:>12} {:>12} {:>12}  (p99 µs / SLO-viol %)",
            "buffer", "base p99", "unmanaged", "FreeMarket", "IOShares"
        );
        for r in &self.rows {
            println!(
                "  {:>8} {:>10.1} {:>12.1} {:>6.1}/{:<5.1} {:>6.1}/{:<5.1}",
                r.buffer,
                r.base_p99_us,
                r.interfered_p99_us,
                r.freemarket_p99_us,
                r.freemarket_slo_pct,
                r.ioshares_p99_us,
                r.ioshares_slo_pct
            );
        }
        let ios_wins = self
            .rows
            .iter()
            .filter(|r| r.ioshares_us <= r.freemarket_us + 2.0)
            .count();
        println!(
            "\n  IOShares ≤ FreeMarket in {}/{} groups (paper: IOShares stays near base)",
            ios_wins,
            self.rows.len()
        );
        if self.recovery != RecoveryTotals::default() {
            let r = &self.recovery;
            println!(
                "  recovery: reconnects={} replayed={} retries={} lost={} watchdog_trips={}",
                r.reconnects, r.replayed, r.retries, r.lost_requests, r.watchdog_trips
            );
        }
        if self.adversary != AdversaryTotals::default() {
            let a = &self.adversary;
            println!(
                "  adversary: bursts={} deferred={} corrections={} spend attacker/honest={:.0}/{:.0}",
                a.bursts, a.deferred_sends, a.poison_corrections, a.attacker_spent, a.honest_spent
            );
        }
        if self.crashes != CrashTotals::default() {
            let c = &self.crashes;
            println!(
                "  crashes: mgr={} host={} vm={} readmitted={} dropped={} journal_divergence={}",
                c.mgr_crashes,
                c.host_crashes,
                c.vm_crashes,
                c.readmissions,
                c.requests_dropped,
                c.journal_divergence
            );
        }
    }
}
