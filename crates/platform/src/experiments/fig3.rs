//! Figure 3 — server latency with the interferer's cap preset to the
//! buffer ratio.
//!
//! Paper: with the interfering VM's CPU cap set to `100/BR` (e.g. 25 % for
//! a 256 KiB interferer against a 64 KiB reporter), "the latencies
//! experienced by the reporting VM do not change between all the
//! instances" — establishing the cap ↔ buffer-ratio ↔ latency
//! relationship ResEx exploits.

use crate::experiments::{components, Scale};
use crate::scenario::{fmt_size, ScenarioConfig};
use serde::Serialize;

/// One bar of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Row {
    /// Buffer ratio (interferer / reporter).
    pub ratio: u32,
    /// Interferer buffer size label.
    pub intf_buffer: String,
    /// Cap applied to the interferer, percent.
    pub cap_pct: u32,
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
pub struct Fig3Result {
    /// One row per buffer ratio, largest first (as the paper plots).
    pub rows: Vec<Fig3Row>,
}

/// Runs every ratio of the paper's x-axis: 32(2MB) … 1(64KB).
pub fn run(scale: &Scale) -> Fig3Result {
    let points: Vec<(u32, u32, u32)> = [
        2 * 1024 * 1024,
        1024 * 1024,
        512 * 1024,
        256 * 1024,
        128 * 1024,
        64 * 1024,
    ]
    .into_iter()
    .map(|buf| {
        let ratio = buf / (64 * 1024);
        (buf, ratio, (100 / ratio).max(1))
    })
    .collect();
    let runs = scale.run(points.iter().map(|&(buf, ratio, cap)| {
        let mut cfg = ScenarioConfig::interfered(buf);
        cfg.label = format!("fig3-ratio{ratio}");
        cfg.vms[1] = cfg.vms[1].clone().with_cap(cap);
        (scale.duration, cfg)
    }));
    let rows = points
        .into_iter()
        .zip(runs)
        .map(|((buf, ratio, cap), (run, _))| {
            let (p, c, w, t) = components(&run, "64KB");
            Fig3Row {
                ratio,
                intf_buffer: fmt_size(buf),
                cap_pct: cap,
                ctime_us: c,
                wtime_us: w,
                ptime_us: p,
                total_us: t,
            }
        })
        .collect();
    Fig3Result { rows }
}

impl Fig3Result {
    /// Prints the figure.
    pub fn print(&self) {
        println!("Figure 3 — reporter latency with interferer capped at 100/BR");
        println!(
            "\n  {:>14} {:>6} {:>10} {:>10} {:>10} {:>10}",
            "I/O ratio", "cap %", "CTime µs", "WTime µs", "PTime µs", "total µs"
        );
        for r in &self.rows {
            println!(
                "  {:>7}({:<6} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                r.ratio,
                format!("{})", r.intf_buffer),
                r.cap_pct,
                r.ctime_us,
                r.wtime_us,
                r.ptime_us,
                r.total_us
            );
        }
        let totals: Vec<f64> = self.rows.iter().map(|r| r.total_us).collect();
        let spread = totals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - totals.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("\n  spread across ratios: {spread:.1} µs (paper: flat)");
    }
}
