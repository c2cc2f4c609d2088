//! Extension experiment — hardware QoS vs ResEx.
//!
//! The paper (§I) notes that "newer generation InfiniBand cards allow
//! controls such as setting a limit on bandwidth for different traffic
//! flows and giving priority to certain traffic flows", but builds ResEx on
//! the hypervisor's CPU cap because those controls were not programmable on
//! its testbed. Our fabric models both levers, so we can run the comparison
//! the paper could not:
//!
//! * **HW priority** — the reporting VM's flow gets a strictly higher
//!   service level at the link arbiter.
//! * **HW rate limit** — the interferer's flow is token-bucket-shaped to
//!   its fair share of the link.
//! * **ResEx IOShares** — the paper's hypervisor-side mechanism.
//!
//! Interesting trade-off to observe: the hardware levers act on the *link*
//! and so remove even the burst-overlap residual that ResEx's CPU-side
//! lever cannot touch, but the rate limit is not work-conserving and
//! priorities do nothing for the interferer's own throughput fairness.

use crate::experiments::{mean_std, Scale};
use crate::scenario::{PolicyKind, QosSpec, ScenarioConfig};
use serde::Serialize;

/// One strategy's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct HwQosRow {
    /// Strategy label.
    pub strategy: String,
    /// Reporting VM mean latency, µs.
    pub reporter_us: f64,
    /// Reporting VM latency std, µs.
    pub reporter_std_us: f64,
    /// Interfering VM requests served (throughput cost of isolation).
    pub interferer_served: u64,
}

/// The full comparison.
#[derive(Clone, Debug, Serialize)]
pub struct HwQosResult {
    /// Base (solo) reporter latency, µs.
    pub base_us: f64,
    /// One row per strategy.
    pub rows: Vec<HwQosRow>,
}

/// Runs base, unmanaged, both hardware levers, and IOShares.
pub fn run(scale: &Scale) -> HwQosResult {
    let intf = || ScenarioConfig::interfered(2 * 1024 * 1024);
    let qos = |priority, rate_limit| QosSpec {
        priority,
        weight: 1,
        rate_limit,
    };
    let mut priority = intf();
    // Reporter at a strictly higher service level.
    priority.vms[0] = priority.vms[0].clone().with_qos(qos(0, None));
    priority.vms[1] = priority.vms[1].clone().with_qos(qos(1, None));
    priority.label = "hw-priority".into();
    let mut ratelimit = intf();
    // Shape the interferer to half the link (its fair share).
    ratelimit.vms[1] = ratelimit.vms[1]
        .clone()
        .with_qos(qos(0, Some(512 * 1024 * 1024)));
    ratelimit.label = "hw-ratelimit".into();

    let cases = [
        ("base", ScenarioConfig::base_case(64 * 1024)),
        ("unmanaged", intf()),
        (
            "resex-ioshares",
            ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::IoShares),
        ),
        ("hw-priority", priority),
        ("hw-ratelimit", ratelimit),
    ];
    let (strategies, cfgs): (Vec<_>, Vec<_>) = cases
        .into_iter()
        .map(|(strategy, cfg)| (strategy, (scale.duration, cfg)))
        .unzip();
    let mut runs = scale.run(cfgs).into_iter().map(|(run, _)| run);
    let base_us = mean_std(&runs.next().expect("base case"), "64KB").0;
    let rows = strategies[1..]
        .iter()
        .zip(runs)
        .map(|(strategy, run)| {
            let (mean, std) = mean_std(&run, "64KB");
            HwQosRow {
                strategy: strategy.to_string(),
                reporter_us: mean,
                reporter_std_us: std,
                interferer_served: run.vm("2MB").map(|v| v.served).unwrap_or(0),
            }
        })
        .collect();
    HwQosResult { base_us, rows }
}

impl HwQosResult {
    /// Prints the comparison.
    pub fn print(&self) {
        println!("Extension — hardware QoS levers vs ResEx (2MB interferer)");
        println!("  base (solo) reporter latency: {:.1} µs", self.base_us);
        println!(
            "\n  {:<16} {:>12} {:>10} {:>16}",
            "strategy", "reporter µs", "std µs", "2MB served"
        );
        for r in &self.rows {
            println!(
                "  {:<16} {:>12.1} {:>10.1} {:>16}",
                r.strategy, r.reporter_us, r.reporter_std_us, r.interferer_served
            );
        }
        println!(
            "\n  (hardware levers act at the link and can beat ResEx's CPU-side\n  \
             cap on latency; ResEx needs no HCA support and is work-conserving.)"
        );
    }
}
