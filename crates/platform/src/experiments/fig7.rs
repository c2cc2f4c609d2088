//! Figure 7 — application latency timeline under IOShares.
//!
//! Paper: "the algorithm is able to achieve near base case latencies for
//! the application by taking into consideration the interference
//! percentage of the 64KB VM and thus 'charging' the 2MB VM more for
//! resources used. The CPU Cap is changed dynamically to a lower value."

use crate::experiments::{mean_std, Scale, Series};
use crate::scenario::{PolicyKind, ScenarioConfig};
use resex_simcore::time::SimDuration;
use serde::Serialize;

/// The figure's series and reference levels.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Result {
    /// Base-case mean latency of the 64 KiB VM, µs.
    pub base_us: f64,
    /// Interfered (unmanaged) mean latency, µs.
    pub interfered_us: f64,
    /// IOShares mean latency, µs.
    pub ioshares_us: f64,
    /// Fraction of the interference IOShares removed (0–1).
    pub interference_removed: f64,
    /// 64 KiB VM latency over time under IOShares.
    pub latency_series: Series,
    /// 2 MiB VM CPU cap over time.
    pub cap_series: Series,
}

/// Runs base, interfered, and the IOShares timeline.
pub fn run(scale: &Scale) -> Fig7Result {
    let [(base, _), (intf, _), (ios, _)]: [_; 3] = scale
        .run([
            (scale.duration, ScenarioConfig::base_case(64 * 1024)),
            (scale.duration, ScenarioConfig::interfered(2 * 1024 * 1024)),
            (
                scale.timeline,
                ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::IoShares),
            ),
        ])
        .try_into()
        .expect("one run per case");
    let window = SimDuration::from_millis(50);
    let base_us = mean_std(&base, "64KB").0;
    let interfered_us = mean_std(&intf, "64KB").0;
    let ioshares_us = mean_std(&ios, "64KB").0;
    Fig7Result {
        base_us,
        interfered_us,
        ioshares_us,
        interference_removed: ((interfered_us - ioshares_us) / (interfered_us - base_us).max(1e-9))
            .clamp(0.0, 1.0),
        latency_series: Series::from_trace(
            "IOShares latency 64KB VM",
            &ios.vm("64KB").unwrap().latency_trace,
            window,
        ),
        cap_series: Series::from_trace(
            "IOShares CPU cap 2MB VM",
            &ios.vm("2MB").unwrap().cap_trace,
            window,
        ),
    }
}

impl Fig7Result {
    /// Prints the figure with terminal sparklines.
    pub fn print(&self) {
        println!("Figure 7 — IOShares latency timeline (64KB VM)");
        println!("  base latency:       {:>7.1} µs", self.base_us);
        println!("  interfered latency: {:>7.1} µs", self.interfered_us);
        println!("  IOShares latency:   {:>7.1} µs", self.ioshares_us);
        println!(
            "  interference removed: {:.0}%",
            self.interference_removed * 100.0
        );
        println!(
            "\n  latency over time:  {}",
            crate::experiments::sparkline(&self.latency_series.points, 60)
        );
        println!(
            "  2MB VM cap:         {}",
            crate::experiments::sparkline(&self.cap_series.points, 60)
        );
        let final_cap = self
            .cap_series
            .points
            .last()
            .map(|&(_, c)| c)
            .unwrap_or(100.0);
        println!(
            "\n  2MB VM converges to cap ≈ {final_cap:.0}% (paper: near the buffer-ratio value)"
        );
    }
}
