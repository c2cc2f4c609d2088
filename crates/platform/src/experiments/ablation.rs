//! Ablations over the reproduction's own design choices.
//!
//! These are not paper figures; they bound how much each simulator
//! idealization matters, as promised in DESIGN.md:
//!
//! * **Link grant granularity** — the arbiter serves queue pairs in grants
//!   of N MTUs; N=1 is exact per-packet round-robin.
//! * **Scheduler model** — continuous fluid shares vs literal 10 ms
//!   run/idle slices.
//! * **Charging interval** — the paper's 1 ms vs coarser loops.
//! * **SLA threshold** — IOShares' sensitivity knob.
//! * **Hardware jitter** — optional timing noise standing in for the
//!   PCIe/DMA/cache effects real testbeds exhibit.
//! * **Depletion mode** — the paper's gradual cap walk-down vs the
//!   hard-stop and balance-proportional alternatives it alludes to.

use crate::experiments::{mean_std, Scale};
use crate::scenario::{PolicyKind, ScenarioConfig};
use resex_core::DepletionMode;
use resex_hypervisor::SchedModel;
use resex_simcore::time::SimDuration;
use serde::Serialize;

/// One ablation data point.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Which knob was turned.
    pub knob: String,
    /// The knob's value.
    pub value: String,
    /// Reporter mean latency, µs.
    pub total_us: f64,
    /// Reporter latency std, µs.
    pub std_us: f64,
}

/// The full ablation table.
#[derive(Clone, Debug, Serialize)]
pub struct AblationResult {
    /// All data points, grouped by knob.
    pub rows: Vec<AblationRow>,
}

fn managed() -> ScenarioConfig {
    ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::IoShares)
}

/// Runs every ablation point.
pub fn run(scale: &Scale) -> AblationResult {
    let mut cases: Vec<(String, String, ScenarioConfig)> = Vec::new();

    for grant in [1u32, 4, 16, 64] {
        let mut cfg = managed();
        cfg.fabric.grant_mtus = grant;
        cases.push(("grant_mtus".into(), grant.to_string(), cfg));
    }
    for (name, model) in [
        ("fluid", SchedModel::Fluid),
        (
            "slice-10ms",
            SchedModel::Slice {
                period: SimDuration::from_millis(10),
            },
        ),
    ] {
        let mut cfg = managed();
        cfg.sched = model;
        cases.push(("sched_model".into(), name.into(), cfg));
    }
    for interval_ms in [1u64, 5, 20] {
        let mut cfg = managed();
        cfg.resex.interval = SimDuration::from_millis(interval_ms);
        cases.push(("interval".into(), format!("{interval_ms}ms"), cfg));
    }
    for sla in [5.0f64, 10.0, 25.0] {
        let mut cfg = managed();
        cfg.resex.sla_threshold_pct = sla;
        cases.push(("sla_threshold".into(), format!("{sla}%"), cfg));
    }
    for jitter in [0.0f64, 0.02, 0.05] {
        let mut cfg = managed();
        cfg.fabric.hw_jitter = jitter;
        cases.push(("hw_jitter".into(), format!("{:.0}%", jitter * 100.0), cfg));
    }
    for (name, mode) in [
        ("gradual", DepletionMode::Gradual),
        ("hardstop", DepletionMode::HardStop),
        ("proportional", DepletionMode::Proportional),
    ] {
        // Depletion modes matter under FreeMarket, where depletion is the
        // only throttle.
        let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::FreeMarket);
        cfg.resex.depletion = mode;
        cases.push(("depletion".into(), name.into(), cfg));
    }

    let (points, cfgs): (Vec<_>, Vec<_>) = cases
        .into_iter()
        .map(|(knob, value, cfg)| ((knob, value), (scale.duration, cfg)))
        .unzip();
    let rows = points
        .into_iter()
        .zip(scale.run(cfgs))
        .map(|((knob, value), (run, _))| {
            let (mean, std) = mean_std(&run, "64KB");
            AblationRow {
                knob,
                value,
                total_us: mean,
                std_us: std,
            }
        })
        .collect();
    AblationResult { rows }
}

impl AblationResult {
    /// Prints the table.
    pub fn print(&self) {
        println!("Ablations — sensitivity of the IOShares result to simulator choices");
        println!(
            "\n  {:<14} {:>10} {:>10} {:>8}",
            "knob", "value", "mean µs", "std µs"
        );
        let mut last_knob = String::new();
        for r in &self.rows {
            if r.knob != last_knob {
                println!("  {}", "-".repeat(46));
                last_knob = r.knob.clone();
            }
            println!(
                "  {:<14} {:>10} {:>10.1} {:>8.1}",
                r.knob, r.value, r.total_us, r.std_us
            );
        }
    }
}
