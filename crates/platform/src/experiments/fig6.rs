//! Figure 6 — Reso depletion with rated capping under FreeMarket.
//!
//! Paper: "the algorithm keeps deducting Resos until a minimum level (10%)
//! is reached after which it starts reducing the CPU Cap. The effect of
//! this is seen by the 2MB VM." The figure zooms into one epoch, plotting
//! both VMs' remaining Resos and the caps.

use crate::experiments::{Scale, Series};
use crate::scenario::{PolicyKind, ScenarioConfig};
use resex_simcore::time::SimDuration;
use serde::Serialize;

/// The figure's four series.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Result {
    /// 64 KiB VM remaining Reso fraction over time.
    pub resos_64kb: Series,
    /// 2 MiB VM remaining Reso fraction over time.
    pub resos_2mb: Series,
    /// 64 KiB VM cap over time.
    pub cap_64kb: Series,
    /// 2 MiB VM cap over time.
    pub cap_2mb: Series,
    /// Lowest Reso fraction the 2 MiB VM reached.
    pub min_fraction_2mb: f64,
    /// Lowest cap the 2 MiB VM reached, percent.
    pub min_cap_2mb: f64,
}

/// Runs FreeMarket and extracts the account/cap traces.
///
/// This is the one single-scenario figure — there is no sweep to fan out
/// on the pool; under `repro all` it instead runs concurrently with the
/// other figure targets.
pub fn run(scale: &Scale) -> Fig6Result {
    let cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::FreeMarket);
    let (run, _) = scale.run([(scale.timeline, cfg)]).remove(0);
    let w = SimDuration::from_millis(10);
    let vm64 = run.vm("64KB").unwrap();
    let vm2m = run.vm("2MB").unwrap();
    let min_fraction_2mb = vm2m.reso_trace.values().fold(f64::INFINITY, f64::min);
    let min_cap_2mb = vm2m.cap_trace.values().fold(f64::INFINITY, f64::min);
    Fig6Result {
        resos_64kb: Series::from_trace("Resos 64KB VM", &vm64.reso_trace, w),
        resos_2mb: Series::from_trace("Resos 2MB VM", &vm2m.reso_trace, w),
        cap_64kb: Series::from_trace("CPU cap 64KB VM", &vm64.cap_trace, w),
        cap_2mb: Series::from_trace("CPU cap 2MB VM", &vm2m.cap_trace, w),
        min_fraction_2mb,
        min_cap_2mb,
    }
}

impl Fig6Result {
    /// Prints the figure with terminal sparklines.
    pub fn print(&self) {
        println!("Figure 6 — Reso depletion and rated capping (FreeMarket)");
        println!(
            "\n  Resos 64KB: {}",
            crate::experiments::sparkline(&self.resos_64kb.points, 60)
        );
        println!(
            "  Resos 2MB:  {}",
            crate::experiments::sparkline(&self.resos_2mb.points, 60)
        );
        println!(
            "  cap 64KB:   {}",
            crate::experiments::sparkline(&self.cap_64kb.points, 60)
        );
        println!(
            "  cap 2MB:    {}",
            crate::experiments::sparkline(&self.cap_2mb.points, 60)
        );
        println!(
            "\n  2MB VM bottoms out at {:.0}% of its allocation; cap driven to {:.0}%",
            self.min_fraction_2mb * 100.0,
            self.min_cap_2mb
        );
        println!("  (saw-tooth per 1 s epoch: replenish, spend, throttle below 10%)");
    }
}
