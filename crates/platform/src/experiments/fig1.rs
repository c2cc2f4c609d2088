//! Figure 1 — distribution of request latencies, normal vs interfered.
//!
//! Paper: "Figure 1 shows the frequency distribution of the low latency
//! workload when it is run with and without the interference load. In the
//! Normal case the latencies are highly stable at around 209 µs. But when
//! it is run alongside the interfering load the latencies are distributed
//! across the interval."

use crate::experiments::{mean_std, Scale};
use crate::scenario::ScenarioConfig;
use serde::Serialize;

/// Histogram bins for one case.
#[derive(Clone, Debug, Serialize)]
pub struct Fig1Result {
    /// Bin lower edges, µs.
    pub bin_edges_us: Vec<f64>,
    /// Counts for the normal (solo) server.
    pub normal: Vec<u64>,
    /// Counts for the interfered server.
    pub interfered: Vec<u64>,
    /// Counts for the interfered server with 3% hardware timing jitter —
    /// the knob that turns this model's clean bimodal split into the broad
    /// smear real testbeds show.
    pub interfered_jittered: Vec<u64>,
    /// Mean/std of the normal case, µs.
    pub normal_stats: (f64, f64),
    /// Mean/std of the interfered case, µs.
    pub interfered_stats: (f64, f64),
    /// Mean/std of the jittered interfered case, µs.
    pub jittered_stats: (f64, f64),
}

/// Runs the cases and bins the 64 KiB VM's service times.
pub fn run(scale: &Scale) -> Fig1Result {
    let mut jit = ScenarioConfig::interfered(2 * 1024 * 1024);
    jit.label = "interfered-jittered".into();
    jit.fabric.hw_jitter = 0.03;
    let d = scale.duration;
    let [(base, _), (intf, _), (jit, _)]: [_; 3] = scale
        .run([
            (d, ScenarioConfig::base_case(64 * 1024)),
            (d, ScenarioConfig::interfered(2 * 1024 * 1024)),
            (d, jit),
        ])
        .try_into()
        .expect("one run per case");

    // The paper bins 150–400 µs.
    let (lo, hi, nbins) = (150_000u64, 400_000u64, 25usize);
    let normal_bins = base
        .vm("64KB")
        .unwrap()
        .histogram
        .linear_bins(lo, hi, nbins);
    let intf_bins = intf
        .vm("64KB")
        .unwrap()
        .histogram
        .linear_bins(lo, hi, nbins);
    let jit_bins = jit.vm("64KB").unwrap().histogram.linear_bins(lo, hi, nbins);

    Fig1Result {
        bin_edges_us: normal_bins
            .iter()
            .map(|&(e, _)| e as f64 / 1000.0)
            .collect(),
        normal: normal_bins.into_iter().map(|(_, c)| c).collect(),
        interfered: intf_bins.into_iter().map(|(_, c)| c).collect(),
        interfered_jittered: jit_bins.into_iter().map(|(_, c)| c).collect(),
        normal_stats: mean_std(&base, "64KB"),
        interfered_stats: mean_std(&intf, "64KB"),
        jittered_stats: mean_std(&jit, "64KB"),
    }
}

impl Fig1Result {
    /// Prints the figure as a side-by-side histogram table.
    pub fn print(&self) {
        println!("Figure 1 — request service time distribution (64KB VM)");
        println!(
            "  normal:     mean {:>6.1} µs  std {:>5.1} µs",
            self.normal_stats.0, self.normal_stats.1
        );
        println!(
            "  interfered: mean {:>6.1} µs  std {:>5.1} µs",
            self.interfered_stats.0, self.interfered_stats.1
        );
        println!(
            "  + 3% HW jitter: mean {:>6.1} µs  std {:>5.1} µs",
            self.jittered_stats.0, self.jittered_stats.1
        );
        println!(
            "\n  {:>9} {:>10} {:>12} {:>12}",
            "bin (µs)", "normal", "interfered", "jittered"
        );
        let max = self
            .normal
            .iter()
            .chain(&self.interfered)
            .chain(&self.interfered_jittered)
            .copied()
            .max()
            .unwrap_or(1)
            .max(1);
        for i in 0..self.bin_edges_us.len() {
            let bar_i = "*".repeat((self.interfered[i] * 20 / max) as usize);
            let bar_j = "~".repeat((self.interfered_jittered[i] * 20 / max) as usize);
            if self.normal[i] + self.interfered[i] + self.interfered_jittered[i] > 0 {
                println!(
                    "  {:>9.0} {:>10} {:>12} {:>12}   |{:<20}|{:<20}",
                    self.bin_edges_us[i],
                    self.normal[i],
                    self.interfered[i],
                    self.interfered_jittered[i],
                    bar_i,
                    bar_j
                );
            }
        }
    }
}
