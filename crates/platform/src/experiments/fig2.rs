//! Figure 2 — change in server latency for multiple servers, with and
//! without interfering load.
//!
//! Paper: CTime stays flat ("independent of I/O interference"), while
//! WTime and PTime grow once the interference generator is collocated;
//! collocating only the latency-sensitive servers themselves barely hurts.

use crate::experiments::{components, Scale};
use crate::scenario::{ScenarioConfig, VmSpec};
use serde::Serialize;

/// One bar group of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Row {
    /// Number of collocated latency-sensitive servers.
    pub servers: u32,
    /// Whether the interference generator is also collocated.
    pub loaded: bool,
    /// Mean compute time, µs (averaged over servers).
    pub ctime_us: f64,
    /// Mean I/O wait time, µs.
    pub wtime_us: f64,
    /// Mean polling time, µs.
    pub ptime_us: f64,
    /// Mean total latency, µs.
    pub total_us: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Result {
    /// Rows for 1–3 servers × {unloaded, loaded}.
    pub rows: Vec<Fig2Row>,
}

fn scenario(n_servers: u32, loaded: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::base_case(64 * 1024);
    cfg.label = format!(
        "fig2-{n_servers}srv-{}",
        if loaded { "load" } else { "noload" }
    );
    cfg.vms = (0..n_servers)
        .map(|i| VmSpec::server(format!("64KB-{i}"), 64 * 1024))
        .collect();
    if loaded {
        cfg.vms.push(VmSpec::server("2MB", 2 * 1024 * 1024));
    }
    cfg
}

/// Runs all six configurations.
pub fn run(scale: &Scale) -> Fig2Result {
    let cases: Vec<(u32, bool)> = (1..=3).flat_map(|n| [(n, false), (n, true)]).collect();
    let runs = scale.run(
        cases
            .iter()
            .map(|&(n, loaded)| (scale.duration, scenario(n, loaded))),
    );
    let rows = cases
        .into_iter()
        .zip(runs)
        .map(|((n, loaded), (run, _))| {
            // Average components across the n reporting servers.
            let mut p = 0.0;
            let mut c = 0.0;
            let mut w = 0.0;
            let mut t = 0.0;
            for i in 0..n {
                let (pi, ci, wi, ti) = components(&run, &format!("64KB-{i}"));
                p += pi;
                c += ci;
                w += wi;
                t += ti;
            }
            let nf = n as f64;
            Fig2Row {
                servers: n,
                loaded,
                ctime_us: c / nf,
                wtime_us: w / nf,
                ptime_us: p / nf,
                total_us: t / nf,
            }
        })
        .collect();
    Fig2Result { rows }
}

impl Fig2Result {
    /// Prints the figure as grouped component bars.
    pub fn print(&self) {
        println!("Figure 2 — latency components vs number of servers (± interfering load)");
        println!(
            "\n  {:>8} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "servers", "load", "CTime µs", "WTime µs", "PTime µs", "total µs"
        );
        for r in &self.rows {
            println!(
                "  {:>8} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                r.servers,
                if r.loaded { "yes" } else { "no" },
                r.ctime_us,
                r.wtime_us,
                r.ptime_us,
                r.total_us
            );
        }
    }
}
