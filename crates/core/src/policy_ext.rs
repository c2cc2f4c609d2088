//! Extension policies beyond the paper's two, used as baselines and
//! ablations:
//!
//! * [`StaticReserve`] — worst-case static partitioning: fixed caps set
//!   once and never revisited. This is the conservative provisioning the
//!   paper argues against ("without requiring worst-case-based
//!   reservations"); it isolates perfectly but wastes idle capacity.
//! * [`BufferRatio`] — actuates the paper's §V-B observation directly:
//!   set the interferer's cap to `100 / buffer-ratio`, with buffer sizes
//!   estimated online by IBMon. No latency feedback needed, but also no
//!   notion of whether interference is actually happening.

use crate::freemarket::depleted_cap;
use crate::pricing::{IntervalCtx, PricingPolicy, VmId, VmVerdict};
use resex_simcore::ids::IdMap;

/// Fixed caps, applied once.
pub struct StaticReserve {
    caps: IdMap<VmId, u32>,
    applied: bool,
}

impl StaticReserve {
    /// Creates the policy with the caps to enforce.
    pub fn new(caps: impl IntoIterator<Item = (VmId, u32)>) -> Self {
        StaticReserve {
            caps: caps.into_iter().collect(),
            applied: false,
        }
    }
}

impl PricingPolicy for StaticReserve {
    fn name(&self) -> &'static str {
        "StaticReserve"
    }

    fn on_interval(&mut self, ctx: &IntervalCtx<'_>) -> Vec<VmVerdict> {
        let first = !self.applied;
        self.applied = true;
        ctx.vms
            .iter()
            .map(|&(vm, _)| VmVerdict {
                cap_pct: if first {
                    self.caps.get(&vm).copied()
                } else {
                    None
                },
                ..VmVerdict::neutral(vm)
            })
            .collect()
    }
}

/// Caps derived from IBMon's online buffer-size estimates.
pub struct BufferRatio {
    /// The latency-sensitive VM whose buffer is the denominator.
    reference: VmId,
    caps: IdMap<VmId, u32>,
}

impl BufferRatio {
    /// Creates the policy with the given reference (reporting) VM.
    pub fn new(reference: VmId) -> Self {
        BufferRatio {
            reference,
            caps: IdMap::new(),
        }
    }
}

impl PricingPolicy for BufferRatio {
    fn name(&self) -> &'static str {
        "BufferRatio"
    }

    fn on_interval(&mut self, ctx: &IntervalCtx<'_>) -> Vec<VmVerdict> {
        let ref_buf = ctx
            .vms
            .iter()
            .find(|(id, _)| *id == self.reference)
            .map(|(_, s)| s.est_buffer_bytes)
            .unwrap_or(0.0);
        ctx.vms
            .iter()
            .map(|&(vm, snap)| {
                let mut v = VmVerdict::neutral(vm);
                if vm != self.reference && ref_buf > 0.0 && snap.est_buffer_bytes > ref_buf {
                    // Paper §V-B: "the CPU cap for a 256KB VM is set to
                    // 100/4 = 25%" relative to the 64 KiB reference.
                    let ratio = snap.est_buffer_bytes / ref_buf;
                    let cap = ((100.0 / ratio).round() as u32).clamp(ctx.cfg.min_cap_pct, 100);
                    if self.caps.insert(vm, cap) != Some(cap) {
                        v.cap_pct = Some(cap);
                    }
                }
                v
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResExConfig;
    use crate::pricing::VmSnapshot;
    use resex_simcore::time::SimTime;

    const A: VmId = VmId::new(0);
    const B: VmId = VmId::new(1);

    fn run(policy: &mut dyn PricingPolicy, vms: &[(VmId, VmSnapshot)]) -> Vec<VmVerdict> {
        let cfg = ResExConfig::default();
        let lookup = |_vm: VmId| None;
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: 0,
            intervals_per_epoch: 1000,
            vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        policy.on_interval(&ctx)
    }

    #[test]
    fn static_reserve_applies_once() {
        let mut p = StaticReserve::new(vec![(B, 25)]);
        let vms = vec![(A, VmSnapshot::default()), (B, VmSnapshot::default())];
        let v1 = run(&mut p, &vms);
        assert_eq!(v1.iter().find(|v| v.vm == B).unwrap().cap_pct, Some(25));
        assert_eq!(v1.iter().find(|v| v.vm == A).unwrap().cap_pct, None);
        let v2 = run(&mut p, &vms);
        assert!(v2.iter().all(|v| v.cap_pct.is_none()), "set-and-forget");
    }

    #[test]
    fn buffer_ratio_caps_larger_buffers() {
        let mut p = BufferRatio::new(A);
        let vms = vec![
            (
                A,
                VmSnapshot {
                    est_buffer_bytes: 65536.0,
                    ..Default::default()
                },
            ),
            (
                B,
                VmSnapshot {
                    est_buffer_bytes: 2_097_152.0,
                    ..Default::default()
                },
            ),
        ];
        let v = run(&mut p, &vms);
        // Ratio 32 → cap 3 (the paper's 2 MB case).
        assert_eq!(v.iter().find(|v| v.vm == B).unwrap().cap_pct, Some(3));
        // Reference VM untouched.
        assert_eq!(v.iter().find(|v| v.vm == A).unwrap().cap_pct, None);
        // Cap repeats are suppressed.
        let v = run(&mut p, &vms);
        assert_eq!(v.iter().find(|v| v.vm == B).unwrap().cap_pct, None);
    }

    #[test]
    fn buffer_ratio_ignores_smaller_buffers() {
        let mut p = BufferRatio::new(A);
        let vms = vec![
            (
                A,
                VmSnapshot {
                    est_buffer_bytes: 65536.0,
                    ..Default::default()
                },
            ),
            (
                B,
                VmSnapshot {
                    est_buffer_bytes: 16384.0,
                    ..Default::default()
                },
            ),
        ];
        let v = run(&mut p, &vms);
        assert!(v.iter().all(|v| v.cap_pct.is_none()));
    }

    #[test]
    fn buffer_ratio_tracks_estimate_changes() {
        let mut p = BufferRatio::new(A);
        let mk = |b: f64| {
            vec![
                (
                    A,
                    VmSnapshot {
                        est_buffer_bytes: 65536.0,
                        ..Default::default()
                    },
                ),
                (
                    B,
                    VmSnapshot {
                        est_buffer_bytes: b,
                        ..Default::default()
                    },
                ),
            ]
        };
        let v = run(&mut p, &mk(262_144.0));
        assert_eq!(v.iter().find(|v| v.vm == B).unwrap().cap_pct, Some(25));
        let v = run(&mut p, &mk(524_288.0));
        assert_eq!(v.iter().find(|v| v.vm == B).unwrap().cap_pct, Some(13));
    }
}

/// Demand-driven uniform pricing — the purest reading of the paper's first
/// pricing goal: "resource prices are set at the start of each epoch
/// uniformly for all VMs, based only on the aggregate availability of and
/// demand for resources."
///
/// At every epoch boundary the I/O price for the *next* epoch is the ratio
/// of last epoch's aggregate demand to the link's supply (floored at the
/// base price 1): if VMs collectively asked for 1.5× the link, every MTU
/// costs 1.5 Resos next epoch, so everyone's budget buys proportionally
/// less. Unlike FreeMarket there is no per-VM cap dance — depletion is
/// handled by the same low-balance throttle — and unlike IOShares no VM is
/// singled out: congestion makes I/O uniformly expensive.
pub struct DemandPricing {
    /// Aggregate MTUs observed so far in the current epoch.
    epoch_demand: u64,
    /// The price in force for the current epoch.
    price: f64,
    /// Link supply per epoch, in MTUs.
    supply: u64,
    caps: IdMap<VmId, u32>,
    restore: Vec<VmId>,
}

impl DemandPricing {
    /// Creates the policy; `supply` is the link capacity in MTUs per epoch
    /// (the paper's 1,048,576 for 1 GiB/s and 1 KiB MTUs).
    pub fn new(supply_mtus_per_epoch: u64) -> Self {
        assert!(supply_mtus_per_epoch > 0, "supply must be positive");
        DemandPricing {
            epoch_demand: 0,
            price: 1.0,
            supply: supply_mtus_per_epoch,
            caps: IdMap::new(),
            restore: Vec::new(),
        }
    }

    /// The price currently in force (Resos per MTU).
    pub fn current_price(&self) -> f64 {
        self.price
    }
}

impl PricingPolicy for DemandPricing {
    fn name(&self) -> &'static str {
        "DemandPricing"
    }

    fn on_interval(&mut self, ctx: &IntervalCtx<'_>) -> Vec<VmVerdict> {
        self.epoch_demand += ctx.total_mtus();
        let restore = std::mem::take(&mut self.restore);
        ctx.vms
            .iter()
            .map(|&(vm, _)| {
                let mut v = VmVerdict::neutral(vm);
                v.io_rate = self.price;
                if restore.contains(&vm) {
                    v.cap_pct = Some(100);
                    self.caps.insert(vm, 100);
                }
                // Same gradual low-balance throttle as FreeMarket: pricing
                // controls *how fast* budgets drain; the throttle is what
                // happens when they do.
                if let Some(acct) = (ctx.accounts)(vm) {
                    let low = acct.fraction_remaining() < ctx.cfg.low_balance_fraction;
                    let epoch_left =
                        ctx.epoch_remaining_fraction() > ctx.cfg.min_epoch_remaining_fraction;
                    if low && epoch_left {
                        let current = self.caps.get(&vm).copied().unwrap_or(100);
                        let next = depleted_cap(
                            ctx.cfg.depletion,
                            current,
                            acct.fraction_remaining(),
                            ctx.cfg.low_balance_fraction,
                            ctx.cfg.cap_decrement_pct,
                            ctx.cfg.min_cap_pct,
                        );
                        if next != current {
                            self.caps.insert(vm, next);
                            v.cap_pct = Some(next);
                        }
                    }
                }
                v
            })
            .collect()
    }

    fn on_epoch(&mut self, _epoch: u64) {
        // Reprice from last epoch's aggregate demand; release throttles.
        self.price = (self.epoch_demand as f64 / self.supply as f64).max(1.0);
        self.epoch_demand = 0;
        for (vm, cap) in self.caps.iter_mut() {
            if *cap != 100 {
                self.restore.push(vm);
            }
            *cap = 100;
        }
    }
}

#[cfg(test)]
mod demand_tests {
    use super::*;
    use crate::config::ResExConfig;
    use crate::pricing::VmSnapshot;
    use resex_simcore::time::SimTime;

    fn run_interval(p: &mut DemandPricing, mtus: u64, interval: u64) -> Vec<VmVerdict> {
        let cfg = ResExConfig::default();
        let vms = vec![(
            VmId::new(0),
            VmSnapshot {
                mtus,
                cpu_pct: 50.0,
                ..Default::default()
            },
        )];
        let lookup = |_vm: VmId| None;
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: interval,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        p.on_interval(&ctx)
    }

    #[test]
    fn price_starts_at_base() {
        let mut p = DemandPricing::new(1_048_576);
        let v = run_interval(&mut p, 500, 0);
        assert_eq!(v[0].io_rate, 1.0);
        assert_eq!(p.current_price(), 1.0);
    }

    #[test]
    fn oversubscription_raises_next_epoch_price() {
        let mut p = DemandPricing::new(1_000_000);
        // 1.5M MTUs of demand in one epoch.
        for i in 0..1000 {
            run_interval(&mut p, 1500, i);
        }
        p.on_epoch(1);
        assert!(
            (p.current_price() - 1.5).abs() < 1e-9,
            "price={}",
            p.current_price()
        );
        let v = run_interval(&mut p, 100, 0);
        assert_eq!(v[0].io_rate, 1.5, "uniform higher price in force");
    }

    #[test]
    fn undersubscription_floors_at_base_price() {
        let mut p = DemandPricing::new(1_000_000);
        for i in 0..1000 {
            run_interval(&mut p, 100, i);
        }
        p.on_epoch(1);
        assert_eq!(p.current_price(), 1.0, "price never drops below 1");
    }

    #[test]
    fn price_resets_each_epoch_from_fresh_demand() {
        let mut p = DemandPricing::new(1_000_000);
        for i in 0..1000 {
            run_interval(&mut p, 2000, i); // 2× oversubscribed
        }
        p.on_epoch(1);
        assert_eq!(p.current_price(), 2.0);
        // A quiet epoch brings the price back down.
        for i in 0..1000 {
            run_interval(&mut p, 0, i);
        }
        p.on_epoch(2);
        assert_eq!(p.current_price(), 1.0);
    }
}
