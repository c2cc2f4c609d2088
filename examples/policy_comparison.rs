//! Policy shoot-out across interferer intensities.
//!
//! Sweeps the interfering VM's buffer size (the paper's interference knob)
//! and compares four management strategies for the 64 KiB reporting VM:
//! unmanaged, FreeMarket, IOShares, and the static worst-case reservation
//! ResEx is designed to avoid.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use resex_platform::{fmt_size, run_scenario, PolicyKind, ScenarioConfig};
use resex_simcore::time::SimDuration;

fn mean_64kb(cfg: ScenarioConfig) -> f64 {
    run_scenario(cfg)
        .rows()
        .into_iter()
        .find(|r| r.vm == "64KB")
        .map(|r| r.mean_us)
        .unwrap_or(f64::NAN)
}

fn shorten(mut cfg: ScenarioConfig) -> ScenarioConfig {
    cfg.duration = SimDuration::from_secs(2);
    cfg.warmup = SimDuration::from_millis(200);
    cfg
}

fn main() {
    let buffers: [u32; 4] = [128 * 1024, 256 * 1024, 512 * 1024, 2 * 1024 * 1024];

    let base = mean_64kb(shorten(ScenarioConfig::base_case(64 * 1024)));
    println!("64KB VM solo baseline: {base:.1} µs\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "interferer", "unmanaged", "FreeMarket", "IOShares", "StaticRsv"
    );

    for buf in buffers {
        let unmanaged = mean_64kb(shorten(ScenarioConfig::interfered(buf)));
        let freemarket = mean_64kb(shorten(ScenarioConfig::managed(
            buf,
            PolicyKind::FreeMarket,
        )));
        let ioshares = mean_64kb(shorten(ScenarioConfig::managed(buf, PolicyKind::IoShares)));
        // Worst-case static reservation: pin the interferer to the
        // buffer-ratio cap permanently, interference or not (the static
        // cap Figures 3 and 4 set, with no manager running).
        let ratio = buf / (64 * 1024);
        let static_cap = (100 / ratio.max(1)).max(3);
        let mut reserved = ScenarioConfig::interfered(buf);
        reserved.vms[1] = reserved.vms[1].clone().with_cap(static_cap);
        let staticrsv = mean_64kb(shorten(reserved));
        println!(
            "{:<10} {:>10.1}µs {:>10.1}µs {:>10.1}µs {:>10.1}µs",
            fmt_size(buf),
            unmanaged,
            freemarket,
            ioshares,
            staticrsv
        );
    }

    println!(
        "\n(expected shape, per the paper's Figure 9: IOShares tracks the baseline\n\
         closely across all interferer sizes; FreeMarket helps but lags; the\n\
         static reservation isolates as well as IOShares yet wastes the\n\
         interferer's CPU even when the link is idle.)"
    );
}
