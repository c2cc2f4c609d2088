//! Figure 5 — application latency timeline under FreeMarket.
//!
//! Paper: the 64 KiB VM's latency under FreeMarket sits between the base
//! and interfered levels, improving whenever the 2 MiB VM's Reso balance
//! runs low and its cap is walked down ("rated capping").

use crate::experiments::{mean_std, Scale, Series};
use crate::scenario::{PolicyKind, ScenarioConfig};
use resex_simcore::time::SimDuration;
use serde::Serialize;

/// The figure's series and reference levels.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Result {
    /// Base-case mean latency of the 64 KiB VM, µs.
    pub base_us: f64,
    /// Interfered (unmanaged) mean latency, µs.
    pub interfered_us: f64,
    /// FreeMarket mean latency, µs.
    pub freemarket_us: f64,
    /// 64 KiB VM latency over time under FreeMarket (µs vs seconds).
    pub latency_series: Series,
    /// 2 MiB VM CPU cap over time (percent vs seconds).
    pub cap_series: Series,
}

/// Runs base, interfered, and FreeMarket timeline.
pub fn run(scale: &Scale) -> Fig5Result {
    let [(base, _), (intf, _), (fm, _)]: [_; 3] = scale
        .run([
            (scale.duration, ScenarioConfig::base_case(64 * 1024)),
            (scale.duration, ScenarioConfig::interfered(2 * 1024 * 1024)),
            (
                scale.timeline,
                ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::FreeMarket),
            ),
        ])
        .try_into()
        .expect("one run per case");
    let window = SimDuration::from_millis(50);
    Fig5Result {
        base_us: mean_std(&base, "64KB").0,
        interfered_us: mean_std(&intf, "64KB").0,
        freemarket_us: mean_std(&fm, "64KB").0,
        latency_series: Series::from_trace(
            "FreeMarket latency 64KB VM",
            &fm.vm("64KB").unwrap().latency_trace,
            window,
        ),
        cap_series: Series::from_trace(
            "FreeMarket CPU cap 2MB VM",
            &fm.vm("2MB").unwrap().cap_trace,
            window,
        ),
    }
}

impl Fig5Result {
    /// Prints the figure with terminal sparklines.
    pub fn print(&self) {
        println!("Figure 5 — FreeMarket latency timeline (64KB VM)");
        println!("  base latency:       {:>7.1} µs", self.base_us);
        println!("  interfered latency: {:>7.1} µs", self.interfered_us);
        println!("  FreeMarket latency: {:>7.1} µs", self.freemarket_us);
        println!(
            "\n  latency over time:  {}",
            crate::experiments::sparkline(&self.latency_series.points, 60)
        );
        println!(
            "  2MB VM cap:         {}",
            crate::experiments::sparkline(&self.cap_series.points, 60)
        );
        let min_cap = self
            .cap_series
            .points
            .iter()
            .map(|&(_, c)| c)
            .fold(f64::INFINITY, f64::min);
        println!(
            "\n  2MB VM cap range: {:.0}%..100% (rated capping engages each epoch tail)",
            min_cap
        );
    }
}
