//! Implementing a custom pricing policy against the public
//! [`PricingPolicy`] trait.
//!
//! `SquareTax` is a deliberately simple congestion-pricing variant: every
//! interval it charges each VM a rate proportional to the *square* of its
//! link share (quadratic congestion externality, a textbook Pigouvian tax),
//! and caps any VM whose balance is overdrawn. No latency feedback needed.
//!
//! The example runs it through the ResEx manager directly (no full-world
//! simulation) on a synthetic usage pattern, showing the public API
//! surface: `PricingPolicy`, `IntervalCtx`, `VmVerdict`, `ResExManager`.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use resex_core::{
    IntervalCtx, ManagerAction, PricingPolicy, ResExConfig, ResExManager, VmId, VmSnapshot,
    VmVerdict,
};
use resex_simcore::time::{SimDuration, SimTime};

/// Quadratic congestion tax: `rate = 1 + k · share²` where `share` is the
/// VM's fraction of this interval's MTUs.
struct SquareTax {
    k: f64,
    caps: std::collections::BTreeMap<VmId, u32>,
}

impl SquareTax {
    fn new(k: f64) -> Self {
        SquareTax {
            k,
            caps: std::collections::BTreeMap::new(),
        }
    }
}

impl PricingPolicy for SquareTax {
    fn name(&self) -> &'static str {
        "SquareTax"
    }

    fn on_interval(&mut self, ctx: &IntervalCtx<'_>) -> Vec<VmVerdict> {
        let total = ctx.total_mtus().max(1) as f64;
        ctx.vms
            .iter()
            .map(|&(vm, snap)| {
                let share = snap.mtus as f64 / total;
                let rate = 1.0 + self.k * share * share;
                // Throttle VMs that have overdrawn their account.
                let overdrawn = (ctx.accounts)(vm)
                    .map(|a| a.fraction_remaining() < 0.0)
                    .unwrap_or(false);
                let target = if overdrawn {
                    ctx.cfg.min_cap_pct.max(10)
                } else {
                    100
                };
                let prev = self.caps.insert(vm, target);
                VmVerdict {
                    vm,
                    io_rate: rate,
                    cpu_rate: 1.0,
                    cap_pct: (prev != Some(target)).then_some(target),
                }
            })
            .collect()
    }
}

fn main() {
    let cfg = ResExConfig::default();
    let mut mgr =
        ResExManager::new(cfg, Box::new(SquareTax::new(50.0))).expect("valid configuration");

    let quiet = VmId::new(0);
    let noisy = VmId::new(1);
    mgr.register_vm(quiet, 1);
    mgr.register_vm(noisy, 1);

    println!("SquareTax demo: quiet VM (64 MTUs/ms) vs noisy VM (1800 MTUs/ms)\n");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "t(ms)", "quiet rate", "noisy rate", "quiet balance", "noisy balance"
    );

    let interval = SimDuration::from_millis(1);
    let mut t = SimTime::ZERO;
    let mut actions_seen: Vec<ManagerAction> = Vec::new();
    for step in 1..=600u64 {
        t += interval;
        let snapshots = vec![
            (
                quiet,
                VmSnapshot {
                    mtus: 64,
                    cpu_pct: 60.0,
                    ..Default::default()
                },
            ),
            (
                noisy,
                VmSnapshot {
                    mtus: 1800,
                    cpu_pct: 95.0,
                    ..Default::default()
                },
            ),
        ];
        let out = mgr.on_interval(t, &snapshots);
        actions_seen.extend(out.actions.iter().copied());
        if step % 100 == 0 {
            let q = out.charges.iter().find(|c| c.vm == quiet).unwrap();
            let n = out.charges.iter().find(|c| c.vm == noisy).unwrap();
            println!(
                "{:>8} {:>12.3} {:>12.3} {:>13.1}% {:>13.1}%",
                step,
                q.io_rate,
                n.io_rate,
                100.0 * q.remaining_fraction,
                100.0 * n.remaining_fraction
            );
        }
    }

    let throttles = actions_seen
        .iter()
        .filter(|a| matches!(a, ManagerAction::SetCap { cap_pct, .. } if *cap_pct < 100))
        .count();
    println!(
        "\nnoisy VM paid a quadratic premium (≈{:.1}× base) and was throttled {} time(s) \
         once its account ran dry; the quiet VM kept its full allocation.",
        1.0 + 50.0 * (1800.0f64 / 1864.0).powi(2),
        throttles
    );
}
