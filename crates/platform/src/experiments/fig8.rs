//! Figure 8 — FreeMarket and IOShares on non-interference cases.
//!
//! Paper: two cases demonstrate that ResEx backs off when there is nothing
//! to fix — (1) two identical 64 KiB VMs ("ResEx adapts to the I/O
//! performed by the VMs to not penalize VMs if they are doing the same
//! amount of I/O"), and (2) a 2 MiB VM issuing only 10 requests per epoch
//! ("ResEx can … back off when there isn't any interference"). Both should
//! land at the base latency.

use crate::experiments::{mean_std, Scale};
use crate::scenario::{PolicyKind, ScenarioConfig, VmSpec};
use resex_benchex::ClientMode;
use resex_simcore::time::SimDuration;
use serde::Serialize;

/// One bar of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8Row {
    /// Configuration label, matching the paper's x-axis.
    pub config: String,
    /// Reporting VM's mean latency, µs.
    pub total_us: f64,
    /// Reporting VM's latency std, µs.
    pub std_us: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8Result {
    /// Rows in the paper's order.
    pub rows: Vec<Fig8Row>,
}

fn slow_2mb_vm() -> VmSpec {
    // "the 2MB VM is issuing requests at 10 requests per epoch (a much
    // slower rate than the interfering VM used in prior experiments)".
    VmSpec::server("2MB", 2 * 1024 * 1024).with_client(ClientMode::OpenLoop {
        interval: SimDuration::from_millis(100),
    })
}

fn twin_64kb(policy: PolicyKind, label: &str) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::interfered(64 * 1024);
    // Disambiguate the twin from the reporting VM.
    cfg.vms[1].name = "64KB-b".into();
    cfg.label = label.to_string();
    cfg.policy = policy;
    cfg
}

fn no_intf(policy: PolicyKind, label: &str) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::interfered(2 * 1024 * 1024);
    cfg.vms[1] = slow_2mb_vm();
    cfg.label = label.to_string();
    cfg.policy = policy;
    cfg
}

/// Runs the base case plus the four non-interference configurations.
pub fn run(scale: &Scale) -> Fig8Result {
    let cases = [
        ("Base-64KB", ScenarioConfig::base_case(64 * 1024)),
        (
            "FM-64KB-64KB",
            twin_64kb(PolicyKind::FreeMarket, "fig8-fm-twin"),
        ),
        (
            "IOS-64KB-64KB",
            twin_64kb(PolicyKind::IoShares, "fig8-ios-twin"),
        ),
        (
            "FM-64KB-2MB-NoIntf",
            no_intf(PolicyKind::FreeMarket, "fig8-fm-nointf"),
        ),
        (
            "IOS-64KB-2MB-NoIntf",
            no_intf(PolicyKind::IoShares, "fig8-ios-nointf"),
        ),
    ];
    let (configs, cfgs): (Vec<_>, Vec<_>) = cases
        .into_iter()
        .map(|(config, cfg)| (config, (scale.duration, cfg)))
        .unzip();
    let rows = configs
        .into_iter()
        .zip(scale.run(cfgs))
        .map(|(config, (run, _))| {
            let (mean, std) = mean_std(&run, "64KB");
            Fig8Row {
                config: config.into(),
                total_us: mean,
                std_us: std,
            }
        })
        .collect();
    Fig8Result { rows }
}

impl Fig8Result {
    /// Prints the figure.
    pub fn print(&self) {
        println!("Figure 8 — non-interference cases (reporting 64KB VM)");
        println!(
            "\n  {:<22} {:>10} {:>8}",
            "configuration", "mean µs", "std µs"
        );
        for r in &self.rows {
            println!("  {:<22} {:>10.1} {:>8.1}", r.config, r.total_us, r.std_us);
        }
        let base = self.rows[0].total_us;
        let worst = self.rows[1..]
            .iter()
            .map(|r| r.total_us)
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "\n  worst case is {:.1}% over base (paper: 'values are almost equal to Base')",
            100.0 * (worst - base) / base
        );
    }
}
