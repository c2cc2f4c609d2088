//! Extension experiment — consolidation scaling.
//!
//! The paper motivates ResEx with consolidation ("average machine
//! utilization can be less than 10%") but evaluates at most three servers.
//! This experiment extends Figure 2's axis: N latency-sensitive VMs share
//! the host with one 2 MiB streamer, unmanaged vs IOShares, tracking both
//! the reporters' latency and the streamer's surviving throughput (the
//! price of isolation).

use crate::experiments::{mean_std, Scale};
use crate::scenario::{PolicyKind, ScenarioConfig, VmSpec};
use crate::{RunMetrics, BASE_LATENCY_US};
use serde::Serialize;

/// One scaling point.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    /// Number of latency-sensitive reporters.
    pub reporters: u32,
    /// Mean reporter latency, unmanaged, µs.
    pub unmanaged_us: f64,
    /// Mean reporter latency under IOShares, µs.
    pub ioshares_us: f64,
    /// Worst single reporter under IOShares, µs (fairness check).
    pub ioshares_worst_us: f64,
    /// Streamer requests served under IOShares (throughput cost).
    pub streamer_served: u64,
}

/// The full scaling sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingResult {
    /// One row per reporter count.
    pub rows: Vec<ScalingRow>,
}

fn scenario(n: u32, policy: PolicyKind) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::base_case(64 * 1024);
    cfg.label = format!("scaling-{n}-{:?}", policy);
    cfg.policy = policy;
    cfg.vms = (0..n)
        .map(|i| VmSpec::server(format!("64KB-{i}"), 64 * 1024).with_sla(BASE_LATENCY_US, 2.0))
        .collect();
    cfg.vms.push(VmSpec::server("2MB", 2 * 1024 * 1024));
    cfg
}

fn reporter_stats(run: &RunMetrics, n: u32) -> (f64, f64) {
    let mut sum = 0.0;
    let mut worst: f64 = 0.0;
    for i in 0..n {
        let (mean, _) = mean_std(run, &format!("64KB-{i}"));
        sum += mean;
        worst = worst.max(mean);
    }
    (sum / n as f64, worst)
}

/// Runs the sweep.
pub fn run(scale: &Scale) -> ScalingResult {
    let counts = [1u32, 2, 4, 6];
    let runs: Vec<RunMetrics> = scale
        .run(counts.iter().flat_map(|&n| {
            [PolicyKind::None, PolicyKind::IoShares].map(|p| (scale.duration, scenario(n, p)))
        }))
        .into_iter()
        .map(|(run, _)| run)
        .collect();
    let rows = counts
        .into_iter()
        .zip(runs.chunks(2))
        .map(|(n, pair)| {
            let [unmanaged, managed] = pair else {
                unreachable!("two policies per count")
            };
            let (u_mean, _) = reporter_stats(unmanaged, n);
            let (m_mean, m_worst) = reporter_stats(managed, n);
            ScalingRow {
                reporters: n,
                unmanaged_us: u_mean,
                ioshares_us: m_mean,
                ioshares_worst_us: m_worst,
                streamer_served: managed.vm("2MB").map(|v| v.served).unwrap_or(0),
            }
        })
        .collect();
    ScalingResult { rows }
}

impl ScalingResult {
    /// Prints the sweep.
    pub fn print(&self) {
        println!("Extension — consolidation scaling (N reporters + 2MB streamer)");
        println!(
            "\n  {:>10} {:>12} {:>12} {:>12} {:>14}",
            "reporters", "unmanaged", "IOShares", "worst rep.", "2MB served"
        );
        for r in &self.rows {
            println!(
                "  {:>10} {:>10.1}µs {:>10.1}µs {:>10.1}µs {:>14}",
                r.reporters, r.unmanaged_us, r.ioshares_us, r.ioshares_worst_us, r.streamer_served
            );
        }
        println!(
            "\n  (IOShares must protect *every* reporter as consolidation deepens;\n  \
             the worst-reporter column catches victim-indictment regressions.)"
        );
    }
}
