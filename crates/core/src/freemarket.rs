//! FreeMarket: the maximize-resource-utilization policy (Algorithm 1).
//!
//! Every VM is charged at the same fixed rate (1 Reso per MTU, 1 Reso per
//! CPU percent). VMs spend freely — "the VMs can freely purchase their
//! resources" — which maximizes utilization but does nothing about
//! congestion *until a VM runs low*: when a VM's remaining balance drops
//! below 10% with more than 10% of the epoch still ahead, its CPU cap is
//! walked down by 10 points per interval, giving a gradual slowdown instead
//! of a hard stop. Caps are restored at the epoch boundary when the account
//! replenishes.

use crate::config::DepletionMode;
use crate::pricing::{IntervalCtx, PricingPolicy, VmId, VmVerdict};
use resex_simcore::ids::IdMap;

/// Computes the throttled cap for a low-balance VM under the configured
/// depletion mode. `fraction` is the remaining balance fraction (may be
/// negative when overdrawn).
fn depleted_cap(
    mode: DepletionMode,
    current: u32,
    fraction: f64,
    threshold: f64,
    decrement: u32,
    floor: u32,
) -> u32 {
    match mode {
        DepletionMode::Gradual => current.saturating_sub(decrement).max(floor),
        DepletionMode::HardStop => floor,
        DepletionMode::Proportional => {
            // 100 at the threshold, linear down to the floor at zero.
            let f = (fraction / threshold).clamp(0.0, 1.0);
            ((100.0 * f).round() as u32).clamp(floor, 100)
        }
    }
}

/// The FreeMarket policy.
pub struct FreeMarket {
    /// Current cap per VM (100 = uncapped-equivalent starting point).
    caps: IdMap<VmId, u32>,
    /// VMs whose caps must be restored to 100 (fresh epoch), with the cap
    /// they were throttled to before the boundary — under the hard floor a
    /// still-depleted VM keeps that throttle instead of the restore.
    restore: IdMap<VmId, u32>,
}

impl FreeMarket {
    /// Creates the policy.
    pub fn new() -> Self {
        FreeMarket {
            caps: IdMap::new(),
            restore: IdMap::new(),
        }
    }

    /// The cap FreeMarket believes a VM currently has.
    pub fn cap_of(&self, vm: VmId) -> u32 {
        self.caps.get(&vm).copied().unwrap_or(100)
    }
}

impl Default for FreeMarket {
    fn default() -> Self {
        Self::new()
    }
}

impl PricingPolicy for FreeMarket {
    fn name(&self) -> &'static str {
        "FreeMarket"
    }

    fn on_interval(&mut self, ctx: &IntervalCtx<'_>) -> Vec<VmVerdict> {
        let mut out = Vec::with_capacity(ctx.vms.len());
        for &(vm, _snap) in ctx.vms {
            let mut verdict = VmVerdict::neutral(vm);
            let account = (ctx.accounts)(vm);
            // A fresh epoch releases last epoch's throttle (the account has
            // been replenished); actuate the restoration. Under the hard
            // floor a VM that replenished straight back into debt (carried
            // overdraft) keeps its pre-epoch throttle instead.
            if let Some(prev) = self.restore.remove(&vm) {
                let still_depleted = ctx.cfg.hard_floor
                    && account.is_some_and(|a| a.total_remaining() <= crate::resos::Resos::ZERO);
                if still_depleted {
                    self.caps.insert(vm, prev);
                } else {
                    verdict.cap_pct = Some(100);
                }
            }
            let current = *self.caps.get_or_insert_with(vm, || 100);
            if let Some(acct) = account {
                let low = acct.fraction_remaining() < ctx.cfg.low_balance_fraction;
                let epoch_left =
                    ctx.epoch_remaining_fraction() > ctx.cfg.min_epoch_remaining_fraction;
                // The epoch-tail exemption ("running out near the end is
                // fine") is the window a spend-to-zero free-rider coasts
                // through: the hard floor keeps throttling fully-depleted
                // VMs no matter how little of the epoch remains.
                let exhausted =
                    ctx.cfg.hard_floor && acct.total_remaining() <= crate::resos::Resos::ZERO;
                if low && (epoch_left || exhausted) {
                    // "The CPU is decremented by 10% from its earlier
                    // allocated value" — or an alternative depletion mode
                    // from the configuration.
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
                        verdict.cap_pct = Some(next);
                    }
                }
            }
            out.push(verdict);
        }
        out
    }

    fn on_epoch(&mut self, _epoch: u64) {
        // Fresh Resos, fresh caps: the throttle releases. Restoration is
        // actuated at the next interval (caps only change via verdicts).
        for (vm, cap) in self.caps.iter_mut() {
            if *cap != 100 {
                self.restore.insert(vm, *cap);
            }
            *cap = 100;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::ResoAccount;
    use crate::config::ResExConfig;
    use crate::pricing::VmSnapshot;
    use crate::resos::Resos;
    use resex_simcore::time::SimTime;

    fn ctx_vms() -> Vec<(VmId, VmSnapshot)> {
        vec![(
            VmId::new(0),
            VmSnapshot {
                mtus: 500,
                cpu_pct: 90.0,
                ..Default::default()
            },
        )]
    }

    fn run_interval(fm: &mut FreeMarket, remaining_fraction: f64, interval: u64) -> Vec<VmVerdict> {
        let cfg = ResExConfig::default();
        let vms = ctx_vms();
        let lookup = move |_vm: VmId| {
            let mut a = ResoAccount::new(Resos::from_whole(100), Resos::from_whole(0));
            let spend = (100.0 * (1.0 - remaining_fraction)) as i64;
            a.charge_cpu(Resos::from_whole(spend));
            Some(a)
        };
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: interval,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        fm.on_interval(&ctx)
    }

    #[test]
    fn healthy_balance_keeps_base_rates_and_cap() {
        let mut fm = FreeMarket::new();
        let v = run_interval(&mut fm, 0.8, 100);
        assert_eq!(v[0], VmVerdict::neutral(VmId::new(0)));
        assert_eq!(fm.cap_of(VmId::new(0)), 100);
    }

    #[test]
    fn low_balance_walks_cap_down() {
        let mut fm = FreeMarket::new();
        let v = run_interval(&mut fm, 0.05, 100);
        assert_eq!(v[0].cap_pct, Some(90));
        let v = run_interval(&mut fm, 0.05, 101);
        assert_eq!(v[0].cap_pct, Some(80));
        // Rates stay at 1 — FreeMarket never reprices.
        assert_eq!(v[0].io_rate, 1.0);
        assert_eq!(v[0].cpu_rate, 1.0);
    }

    #[test]
    fn cap_floors_at_min() {
        let mut fm = FreeMarket::new();
        for i in 0..30 {
            run_interval(&mut fm, 0.01, i);
        }
        assert_eq!(fm.cap_of(VmId::new(0)), ResExConfig::default().min_cap_pct);
    }

    #[test]
    fn no_throttle_near_epoch_end() {
        let mut fm = FreeMarket::new();
        // Interval 950 of 1000: only 5% of the epoch remains (< 10%).
        let v = run_interval(&mut fm, 0.05, 950);
        assert_eq!(v[0].cap_pct, None, "running out near the end is fine");
    }

    #[test]
    fn epoch_restores_caps() {
        let mut fm = FreeMarket::new();
        run_interval(&mut fm, 0.01, 10);
        assert_eq!(fm.cap_of(VmId::new(0)), 90);
        fm.on_epoch(1);
        assert_eq!(fm.cap_of(VmId::new(0)), 100);
    }

    fn run_hard_floor_interval(
        fm: &mut FreeMarket,
        overdraft: i64,
        interval: u64,
    ) -> Vec<VmVerdict> {
        let cfg = ResExConfig {
            hard_floor: true,
            ..Default::default()
        };
        let vms = ctx_vms();
        let lookup = move |_vm: VmId| {
            let mut a = ResoAccount::new(Resos::from_whole(100), Resos::from_whole(0));
            a.charge_cpu(Resos::from_whole(100 + overdraft));
            Some(a)
        };
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: interval,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        fm.on_interval(&ctx)
    }

    #[test]
    fn hard_floor_throttles_through_the_epoch_tail() {
        // Legacy loophole: interval 950 of 1000 leaves < 10% of the epoch,
        // so a spend-to-zero VM coasts unthrottled (no_throttle_near_epoch_end
        // above documents it). The hard floor closes it for exhausted VMs.
        let mut fm = FreeMarket::new();
        let v = run_hard_floor_interval(&mut fm, 50, 950);
        assert_eq!(v[0].cap_pct, Some(90), "depleted VMs throttle even late");
        // A merely-low (but positive) balance keeps the paper's exemption.
        let cfg = ResExConfig {
            hard_floor: true,
            ..Default::default()
        };
        let vms = ctx_vms();
        let lookup = |_vm: VmId| {
            let mut a = ResoAccount::new(Resos::from_whole(100), Resos::from_whole(0));
            a.charge_cpu(Resos::from_whole(95));
            Some(a)
        };
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: 950,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        let mut fm = FreeMarket::new();
        let v = fm.on_interval(&ctx);
        assert_eq!(v[0].cap_pct, None, "5% left near the end is still fine");
    }

    #[test]
    fn hard_floor_denies_restore_to_indebted_vms() {
        let mut fm = FreeMarket::new();
        // Walk down to 80 before the boundary.
        run_hard_floor_interval(&mut fm, 50, 100);
        run_hard_floor_interval(&mut fm, 50, 101);
        assert_eq!(fm.cap_of(VmId::new(0)), 80);
        fm.on_epoch(1);
        // Replenished straight back into debt (carried overdraft): the
        // restore is withheld and the walk-down continues from 80.
        let v = run_hard_floor_interval(&mut fm, 50, 0);
        assert_ne!(v[0].cap_pct, Some(100), "no restore while in debt");
        assert_eq!(fm.cap_of(VmId::new(0)), 70);
        // Once the debt clears, the next epoch restores as usual.
        fm.on_epoch(2);
        let v = run_interval(&mut fm, 0.8, 0);
        assert_eq!(v[0].cap_pct, Some(100));
    }

    #[test]
    fn zero_allocation_vm_is_never_throttled() {
        // Regression: fraction_remaining() used to report 0.0 ("fully
        // depleted") for a zero allocation, so FreeMarket walked the VM's
        // cap down every interval and pinned it at the floor forever.
        let mut fm = FreeMarket::new();
        let cfg = ResExConfig::default();
        let vms = ctx_vms();
        let lookup = |_vm: VmId| Some(ResoAccount::new(Resos::ZERO, Resos::ZERO));
        for interval in 0..30 {
            let ctx = IntervalCtx {
                now: SimTime::ZERO,
                interval_in_epoch: interval,
                intervals_per_epoch: 1000,
                vms: &vms,
                accounts: &lookup,
                cfg: &cfg,
            };
            let v = fm.on_interval(&ctx);
            assert_eq!(
                v[0],
                VmVerdict::neutral(VmId::new(0)),
                "interval {interval}: nothing granted means nothing depleted"
            );
        }
        assert_eq!(fm.cap_of(VmId::new(0)), 100);
    }

    #[test]
    fn unknown_account_is_neutral() {
        let mut fm = FreeMarket::new();
        let cfg = ResExConfig::default();
        let vms = ctx_vms();
        let lookup = |_vm: VmId| None;
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: 0,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        let v = fm.on_interval(&ctx);
        assert_eq!(v[0], VmVerdict::neutral(VmId::new(0)));
    }
}

#[cfg(test)]
mod depletion_tests {
    use super::*;
    use crate::config::DepletionMode;

    #[test]
    fn gradual_steps_down() {
        assert_eq!(
            depleted_cap(DepletionMode::Gradual, 100, 0.05, 0.10, 10, 3),
            90
        );
        assert_eq!(
            depleted_cap(DepletionMode::Gradual, 12, 0.05, 0.10, 10, 3),
            3
        );
        assert_eq!(
            depleted_cap(DepletionMode::Gradual, 3, 0.05, 0.10, 10, 3),
            3
        );
    }

    #[test]
    fn hard_stop_goes_straight_to_the_floor() {
        assert_eq!(
            depleted_cap(DepletionMode::HardStop, 100, 0.09, 0.10, 10, 3),
            3
        );
    }

    #[test]
    fn proportional_tracks_the_balance() {
        // At the threshold: full speed.
        assert_eq!(
            depleted_cap(DepletionMode::Proportional, 100, 0.10, 0.10, 10, 3),
            100
        );
        // Half the threshold: half speed.
        assert_eq!(
            depleted_cap(DepletionMode::Proportional, 100, 0.05, 0.10, 10, 3),
            50
        );
        // Exhausted (or overdrawn): floor.
        assert_eq!(
            depleted_cap(DepletionMode::Proportional, 100, 0.0, 0.10, 10, 3),
            3
        );
        assert_eq!(
            depleted_cap(DepletionMode::Proportional, 100, -0.2, 0.10, 10, 3),
            3
        );
    }

    /// End-to-end through FreeMarket: HardStop caps to the floor on the
    /// first low-balance interval; Proportional lands in between.
    #[test]
    fn modes_flow_through_freemarket() {
        use crate::account::ResoAccount;
        use crate::config::ResExConfig;
        use crate::pricing::VmSnapshot;
        use crate::resos::Resos;
        use resex_simcore::time::SimTime;

        let run_mode = |mode: DepletionMode| {
            let cfg = ResExConfig {
                depletion: mode,
                ..Default::default()
            };
            let mut fm = FreeMarket::new();
            let vms = vec![(
                VmId::new(0),
                VmSnapshot {
                    mtus: 500,
                    cpu_pct: 90.0,
                    ..Default::default()
                },
            )];
            let lookup = |_vm: VmId| {
                let mut a = ResoAccount::new(Resos::from_whole(100), Resos::ZERO);
                a.charge_cpu(Resos::from_whole(95)); // 5% left
                Some(a)
            };
            let ctx = IntervalCtx {
                now: SimTime::ZERO,
                interval_in_epoch: 100,
                intervals_per_epoch: 1000,
                vms: &vms,
                accounts: &lookup,
                cfg: &cfg,
            };
            fm.on_interval(&ctx)[0].cap_pct
        };
        assert_eq!(run_mode(DepletionMode::Gradual), Some(90));
        assert_eq!(run_mode(DepletionMode::HardStop), Some(3));
        assert_eq!(run_mode(DepletionMode::Proportional), Some(50));
    }
}
