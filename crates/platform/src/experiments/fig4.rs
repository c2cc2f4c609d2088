//! Figure 4 — reporter latency as the 2 MiB interferer's CPU cap is
//! stepped down from 100 % to the buffer-ratio value.
//!
//! Paper: "by changing the CPU cap steadily the latencies experienced by
//! the reporting VM decrease and when the CPU cap is equivalent to the
//! buffer ratio-based value the latency experienced is equal to the base
//! latency."

use crate::experiments::{components, Scale};
use crate::scenario::ScenarioConfig;
use serde::Serialize;

/// One bar of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4Row {
    /// Cap applied to the 2 MiB VM (`None` = the uninterfered base case).
    pub cap_pct: Option<u32>,
    /// Reporter's mean CTime, µs.
    pub ctime_us: f64,
    /// Reporter's mean WTime, µs.
    pub wtime_us: f64,
    /// Reporter's mean PTime, µs.
    pub ptime_us: f64,
    /// Reporter's mean total, µs.
    pub total_us: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4Result {
    /// Rows for caps 100, 90, …, 10, 3, then Base.
    pub rows: Vec<Fig4Row>,
}

/// Runs the cap sweep.
pub fn run(scale: &Scale) -> Fig4Result {
    let mut caps: Vec<Option<u32>> = (1..=10).rev().map(|c| Some(c * 10)).collect();
    caps.push(Some(3)); // the buffer-ratio value for 2 MiB / 64 KiB
    caps.push(None); // base case
    let runs = scale.run(caps.iter().map(|&cap| {
        let cfg = match cap {
            Some(c) => {
                let mut cfg = ScenarioConfig::interfered(2 * 1024 * 1024);
                cfg.vms[1] = cfg.vms[1].clone().with_cap(c);
                cfg.label = format!("fig4-cap{c}");
                cfg
            }
            None => ScenarioConfig::base_case(64 * 1024),
        };
        (scale.duration, cfg)
    }));
    let rows = caps
        .into_iter()
        .zip(runs)
        .map(|(cap, (run, _))| {
            let (p, c, w, t) = components(&run, "64KB");
            Fig4Row {
                cap_pct: cap,
                ctime_us: c,
                wtime_us: w,
                ptime_us: p,
                total_us: t,
            }
        })
        .collect();
    Fig4Result { rows }
}

impl Fig4Result {
    /// Prints the figure.
    pub fn print(&self) {
        println!("Figure 4 — reporter latency vs 2MB VM's CPU cap");
        println!(
            "\n  {:>6} {:>10} {:>10} {:>10} {:>10}",
            "cap", "CTime µs", "WTime µs", "PTime µs", "total µs"
        );
        for r in &self.rows {
            let cap = r
                .cap_pct
                .map(|c| c.to_string())
                .unwrap_or_else(|| "Base".into());
            println!(
                "  {:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                cap, r.ctime_us, r.wtime_us, r.ptime_us, r.total_us
            );
        }
        // Monotonicity check: lowering the cap should never raise latency
        // beyond noise.
        let capped: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.cap_pct.is_some())
            .map(|r| r.total_us)
            .collect();
        let decreasing = capped.windows(2).filter(|w| w[1] <= w[0] + 2.0).count();
        println!(
            "\n  monotone-decreasing steps: {}/{} (paper: strictly decreasing)",
            decreasing,
            capped.len() - 1
        );
    }
}
