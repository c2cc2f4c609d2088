//! IOShares: the lower-latency-variation policy (Algorithm 2).
//!
//! Congestion pricing proper: when a VM's reported latencies rise above its
//! SLA baseline, the VM responsible for the congestion — the one pushing
//! the most MTUs — is *repriced*. Its charging rate grows by
//!
//! ```text
//! IncreaseInRate(r') = IOShare × IntfPercent
//! IOShare           = MTUsSentByInterferingVM / TotalMTUsSentByVMs
//! ```
//!
//! and its CPU cap is set from the accumulated rate,
//! `cap = 100 × base_rate / current_rate` — the continuous-iteration form of
//! the paper's `NewCap = 100 × PrevRate / (PrevRate + r')` (which the paper
//! states for a single step from the base rate; accumulating multiplicatively
//! across intervals is the only reading that converges, and reproduces the
//! cap trajectories of Figure 7).
//!
//! When no VM reports interference, elevated rates decay back toward 1 and
//! caps recover — the "back off when there isn't any interference"
//! behaviour Figure 8 demonstrates. Decay is gated by hysteresis: rates
//! hold while any reporter is still above *half* the SLA threshold, so the
//! controller settles at a stable low cap instead of oscillating between
//! taxing and forgiving (the capped system typically rests slightly above
//! the SLA's half-band).

use crate::pricing::{IntervalCtx, PricingPolicy, VmId, VmVerdict};
use resex_simcore::ids::IdMap;
use serde::{Deserialize, Serialize};

/// Per-VM SLA declaration: the latency the VM expects when unperturbed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlaTarget {
    /// Baseline mean service latency, µs (the paper's "base" case).
    pub base_mean_us: f64,
    /// Baseline latency standard deviation, µs (floored internally; a
    /// perfectly stable baseline still allows percentage comparisons).
    pub base_std_us: f64,
}

/// The IOShares policy.
pub struct IoShares {
    slas: IdMap<VmId, SlaTarget>,
    /// Accumulated charging rate per VM (base 1.0).
    rates: IdMap<VmId, f64>,
    /// Last actuated cap per VM, to avoid redundant SetCap actions.
    caps: IdMap<VmId, u32>,
    /// Smoothed per-VM MTU activity (group-clamp hardening only): an EWMA
    /// that remembers a burster's traffic through the intervals it sits
    /// out, so a colluding group alternating bursts cannot rotate blame.
    activity: IdMap<VmId, f64>,
}

/// Floor applied to the baseline std before computing percent increases.
const STD_FLOOR_US: f64 = 2.0;

/// EWMA smoothing factor for the group-clamp activity tracker. At the
/// default 1 ms interval a 0.2 step remembers a burst for over a dozen
/// intervals — longer than any per-interval blame rotation a colluding
/// group can sustain.
const ACTIVITY_ALPHA: f64 = 0.2;

/// Group membership: a VM joins the co-active peer group when its smoothed
/// activity is at least this fraction of the top interferer's. With
/// `ACTIVITY_ALPHA = 0.2`, a member of a rotating group of up to four
/// stays above this between its own bursts (the idle decay per skipped
/// interval is ×0.8, so three skipped intervals leave ~0.5 of the fresh
/// peak).
const GROUP_MEMBER_FRAC: f64 = 0.35;

impl IoShares {
    /// Creates the policy with the given per-VM SLAs. VMs without an SLA
    /// are never treated as *reporting* VMs (but can still be identified as
    /// interferers).
    pub fn new(slas: impl IntoIterator<Item = (VmId, SlaTarget)>) -> Self {
        IoShares {
            slas: slas.into_iter().collect(),
            rates: IdMap::new(),
            caps: IdMap::new(),
            activity: IdMap::new(),
        }
    }

    /// The current charging rate of a VM.
    pub fn rate_of(&self, vm: VmId) -> f64 {
        self.rates.get(&vm).copied().unwrap_or(1.0)
    }

    /// `GetIOIntf`: percentage increase of the VM's reported latency (mean
    /// or deviation, whichever is worse) over its SLA baseline.
    fn interference_pct(&self, vm: VmId, ctx: &IntervalCtx<'_>) -> f64 {
        let sla = match self.slas.get(&vm) {
            Some(s) => s,
            None => return 0.0,
        };
        let report = ctx
            .vms
            .iter()
            .find(|(id, _)| *id == vm)
            .and_then(|(_, s)| s.latency);
        let report = match report {
            Some(r) if r.count > 0 => r,
            _ => return 0.0,
        };
        let mean_pct = 100.0 * (report.mean_us - sla.base_mean_us) / sla.base_mean_us;
        // Jitter growth is normalized by the *mean* latency, not the (near
        // zero) baseline std: a 2 µs → 3 µs std wiggle is noise, a
        // 2 µs → 40 µs explosion on a 209 µs service is interference.
        let base_std = sla.base_std_us.max(STD_FLOOR_US);
        let std_pct = 100.0 * (report.std_us - base_std) / sla.base_mean_us;
        mean_pct.max(std_pct).max(0.0)
    }

    /// `GetIOIntfVMId`: the most I/O-intensive VM other than the reporter —
    /// restricted to VMs *without* a registered SLA. SLA holders are the
    /// latency-sensitive tenants congestion pricing exists to protect;
    /// treating one as a congestion source (because it happened to send the
    /// most MTUs in some interval, e.g. while the real streamer was in its
    /// compute phase) caps a victim and cascades: its latency explodes, it
    /// stays over SLA forever, and the hysteresis freezes the broken state.
    /// The paper's two-VM experiments never exercise this; three reporters
    /// plus one streamer does, immediately.
    fn find_interferer(&self, reporter: VmId, ctx: &IntervalCtx<'_>) -> Option<(VmId, u64)> {
        ctx.vms
            .iter()
            .filter(|(id, _)| *id != reporter)
            .filter(|(id, _)| !self.slas.contains_key(id))
            .map(|(id, s)| (*id, s.mtus))
            .max_by_key(|&(id, mtus)| (mtus, std::cmp::Reverse(id)))
            .filter(|&(_, mtus)| mtus > 0)
    }

    /// Group-clamp variant of `GetIOIntfVMId`: instead of the single VM
    /// with the most *instantaneous* MTUs, the peer group is every non-SLA
    /// VM whose smoothed activity is within [`GROUP_MEMBER_FRAC`] of the
    /// top interferer's.
    /// A colluding group that alternates bursts keeps every member's EWMA
    /// elevated, so all members are repriced together — and, in pass 2,
    /// each member's purchasable cap is divided by the group size, so the
    /// group's aggregate cannot exceed one attacker's share at that rate.
    /// (SLA holders never appear, so reporters are excluded by
    /// construction.)
    fn find_group(&self, ctx: &IntervalCtx<'_>) -> Vec<(VmId, f64)> {
        let candidates: Vec<(VmId, f64)> = ctx
            .vms
            .iter()
            .filter(|(id, _)| !self.slas.contains_key(id))
            .map(|(id, _)| (*id, self.activity.get(id).copied().unwrap_or(0.0)))
            .filter(|&(_, a)| a > 0.0)
            .collect();
        let top = candidates.iter().map(|&(_, a)| a).fold(0.0f64, f64::max);
        if top <= 0.0 {
            return Vec::new();
        }
        candidates
            .into_iter()
            .filter(|&(_, a)| a >= top * GROUP_MEMBER_FRAC)
            .collect()
    }
}

impl PricingPolicy for IoShares {
    fn name(&self) -> &'static str {
        "IOShares"
    }

    fn on_interval(&mut self, ctx: &IntervalCtx<'_>) -> Vec<VmVerdict> {
        let total_mtus = ctx.total_mtus();
        // Group-clamp hardening: fold this interval's traffic into the
        // smoothed per-VM activity before assigning blame.
        if ctx.cfg.group_clamp {
            for &(vm, snap) in ctx.vms {
                let e = self.activity.get_or_insert_with(vm, || 0.0);
                *e = ACTIVITY_ALPHA * snap.mtus as f64 + (1.0 - ACTIVITY_ALPHA) * *e;
            }
        }
        // Pass 1: every reporting VM may indict one interferer (or, under
        // the group clamp, the whole smoothed-activity peer group).
        let mut indicted: IdMap<VmId, f64> = IdMap::new();
        let mut worst_intf_pct = 0.0f64;
        for &(vm, _snap) in ctx.vms {
            let intf_pct = self.interference_pct(vm, ctx);
            worst_intf_pct = worst_intf_pct.max(intf_pct);
            if intf_pct <= ctx.cfg.sla_threshold_pct {
                continue;
            }
            if ctx.cfg.group_clamp {
                let total_activity: f64 = ctx
                    .vms
                    .iter()
                    .map(|(id, _)| self.activity.get(id).copied().unwrap_or(0.0))
                    .sum();
                if total_activity <= 0.0 {
                    continue;
                }
                for (culprit, act) in self.find_group(ctx) {
                    let io_share = act / total_activity;
                    let increase = io_share * intf_pct;
                    let e = indicted.get_or_insert_with(culprit, || 0.0);
                    *e = e.max(increase);
                }
            } else if let Some((culprit, culprit_mtus)) = self.find_interferer(vm, ctx) {
                if total_mtus == 0 {
                    continue;
                }
                let io_share = culprit_mtus as f64 / total_mtus as f64;
                let increase = io_share * intf_pct;
                let e = indicted.get_or_insert_with(culprit, || 0.0);
                *e = e.max(increase);
            }
        }
        // Hysteresis: only forgive when every reporter is comfortably
        // (below half the threshold) inside its SLA.
        let may_decay = worst_intf_pct < ctx.cfg.sla_threshold_pct / 2.0;
        // Group clamp: a co-active peer group of n ≥ 2 is capped as a
        // group — each repriced member's purchasable cap is divided by n,
        // so n colluders at rate r buy ~100/r in aggregate, the same as
        // one attacker pushing their combined traffic, not n×. VMs at the
        // base rate are untouched (honest co-active tenants keep 100).
        let clamp_group: Vec<VmId> = if ctx.cfg.group_clamp {
            let group = self.find_group(ctx);
            if group.len() >= 2 {
                group.into_iter().map(|(id, _)| id).collect()
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };
        // Pass 2: apply rate changes (growth for indicted VMs, decay for
        // the rest) and derive caps + this interval's charging rates.
        let mut out = Vec::with_capacity(ctx.vms.len());
        for &(vm, _snap) in ctx.vms {
            let rate = self.rates.get_or_insert_with(vm, || 1.0);
            match indicted.get(&vm) {
                Some(increase) => *rate += increase,
                None if may_decay => {
                    // Decay toward the base rate when nobody complains.
                    *rate = 1.0 + (*rate - 1.0) * ctx.cfg.rate_decay;
                    if *rate < 1.001 {
                        *rate = 1.0;
                    }
                }
                None => {} // hold: still inside the hysteresis band
            }
            let rate = *rate;
            let target_cap = if rate <= 1.0 {
                100
            } else {
                let mut divisor = rate;
                if clamp_group.contains(&vm) {
                    divisor *= clamp_group.len() as f64;
                }
                ((100.0 / divisor).round() as u32).clamp(ctx.cfg.min_cap_pct, 100)
            };
            let prev_cap = self.caps.insert(vm, target_cap);
            out.push(VmVerdict {
                vm,
                io_rate: rate,
                cpu_rate: rate,
                cap_pct: (prev_cap != Some(target_cap)).then_some(target_cap),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResExConfig;
    use crate::pricing::{LatencyFeedback, VmSnapshot};
    use resex_simcore::time::SimTime;

    const REPORTER: VmId = VmId::new(0);
    const INTF: VmId = VmId::new(1);

    fn sla() -> Vec<(VmId, SlaTarget)> {
        vec![(
            REPORTER,
            SlaTarget {
                base_mean_us: 209.0,
                base_std_us: 2.0,
            },
        )]
    }

    fn interval(
        policy: &mut IoShares,
        reporter_latency: Option<f64>,
        reporter_mtus: u64,
        intf_mtus: u64,
    ) -> Vec<VmVerdict> {
        let cfg = ResExConfig::default();
        let vms = vec![
            (
                REPORTER,
                VmSnapshot {
                    mtus: reporter_mtus,
                    cpu_pct: 50.0,
                    latency: reporter_latency.map(|m| LatencyFeedback {
                        mean_us: m,
                        std_us: 3.0,
                        count: 10,
                    }),
                    est_buffer_bytes: 65536.0,
                    stale: false,
                },
            ),
            (
                INTF,
                VmSnapshot {
                    mtus: intf_mtus,
                    cpu_pct: 95.0,
                    latency: None,
                    est_buffer_bytes: 2_097_152.0,
                    stale: false,
                },
            ),
        ];
        let lookup = |_vm: VmId| None;
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: 5,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        policy.on_interval(&ctx)
    }

    fn verdict(vs: &[VmVerdict], vm: VmId) -> VmVerdict {
        *vs.iter().find(|v| v.vm == vm).unwrap()
    }

    #[test]
    fn no_interference_means_base_rates() {
        let mut p = IoShares::new(sla());
        let v = interval(&mut p, Some(210.0), 64, 100);
        assert_eq!(verdict(&v, INTF).io_rate, 1.0);
        assert_eq!(verdict(&v, REPORTER).io_rate, 1.0);
        // First interval establishes caps at 100.
        assert_eq!(verdict(&v, INTF).cap_pct, Some(100));
    }

    #[test]
    fn interferer_is_taxed_and_capped() {
        let mut p = IoShares::new(sla());
        // 100% over SLA; interferer sends ~97% of MTUs.
        let v = interval(&mut p, Some(420.0), 64, 2048);
        let iv = verdict(&v, INTF);
        // r' ≈ (2048/2112) × 100 ≈ 97; rate ≈ 98 → cap ≈ 1 → clamped to min.
        assert!(iv.io_rate > 50.0, "rate={}", iv.io_rate);
        assert_eq!(iv.cap_pct, Some(ResExConfig::default().min_cap_pct));
        // The reporter itself stays at base price.
        assert_eq!(verdict(&v, REPORTER).io_rate, 1.0);
    }

    #[test]
    fn mild_interference_gives_mild_cap() {
        let mut p = IoShares::new(sla());
        // 25% over SLA, interferer sends 80% of traffic → r' = 20, cap ≈ 5.
        let v = interval(&mut p, Some(261.0), 409, 1639);
        let iv = verdict(&v, INTF);
        assert!(
            iv.io_rate > 15.0 && iv.io_rate < 25.0,
            "rate={}",
            iv.io_rate
        );
        let cap = iv.cap_pct.unwrap();
        assert!((4..=7).contains(&cap), "cap={cap}");
    }

    #[test]
    fn below_threshold_is_ignored() {
        let mut p = IoShares::new(sla());
        // 5% over SLA < 10% threshold.
        let v = interval(&mut p, Some(219.0), 64, 2048);
        assert_eq!(verdict(&v, INTF).io_rate, 1.0);
    }

    #[test]
    fn rates_decay_when_interference_stops() {
        let mut p = IoShares::new(sla());
        interval(&mut p, Some(420.0), 64, 2048);
        let taxed = p.rate_of(INTF);
        assert!(taxed > 50.0);
        // Latency back to normal: rate decays geometrically.
        for _ in 0..100 {
            interval(&mut p, Some(209.0), 64, 100);
        }
        assert_eq!(p.rate_of(INTF), 1.0, "fully backed off");
        // And the cap is restored.
        let v = interval(&mut p, Some(209.0), 64, 100);
        // Cap already back at 100 in an earlier interval; no change now.
        assert_eq!(verdict(&v, INTF).cap_pct, None);
    }

    #[test]
    fn equal_vm_without_sla_violation_is_not_penalized() {
        // Two 64 KiB VMs doing the same I/O: nobody reports over-SLA
        // latency, nobody gets taxed (Figure 8's 64KB-64KB case).
        let mut p = IoShares::new(sla());
        for _ in 0..10 {
            let v = interval(&mut p, Some(212.0), 64, 64);
            assert_eq!(verdict(&v, INTF).io_rate, 1.0);
            assert_eq!(verdict(&v, REPORTER).io_rate, 1.0);
        }
    }

    #[test]
    fn jitter_alone_can_trigger_via_std() {
        let mut p = IoShares::new(vec![(
            REPORTER,
            SlaTarget {
                base_mean_us: 209.0,
                base_std_us: 2.0,
            },
        )]);
        let cfg = ResExConfig::default();
        let vms = vec![
            (
                REPORTER,
                VmSnapshot {
                    mtus: 64,
                    cpu_pct: 50.0,
                    // Mean barely moved, but jitter exploded.
                    latency: Some(LatencyFeedback {
                        mean_us: 211.0,
                        std_us: 40.0,
                        count: 10,
                    }),
                    est_buffer_bytes: 65536.0,
                    stale: false,
                },
            ),
            (
                INTF,
                VmSnapshot {
                    mtus: 2048,
                    ..Default::default()
                },
            ),
        ];
        let lookup = |_vm: VmId| None;
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: 0,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        let v = p.on_interval(&ctx);
        assert!(
            v.iter().find(|x| x.vm == INTF).unwrap().io_rate > 1.0,
            "variance increase counts as interference"
        );
    }

    #[test]
    fn verdict_per_vm_exactly() {
        let mut p = IoShares::new(sla());
        let v = interval(&mut p, Some(300.0), 64, 128);
        assert_eq!(v.len(), 2);
        let mut ids: Vec<u32> = v.iter().map(|x| x.vm.raw()).collect();
        ids.sort();
        assert_eq!(ids, vec![0, 1]);
    }
}

#[cfg(test)]
mod collusion_tests {
    use super::*;
    use crate::config::ResExConfig;
    use crate::pricing::{IntervalCtx, LatencyFeedback, VmSnapshot};
    use resex_simcore::time::SimTime;

    const REPORTER: VmId = VmId::new(0);
    const A1: VmId = VmId::new(1);
    const A2: VmId = VmId::new(2);

    fn policy() -> IoShares {
        IoShares::new(vec![(
            REPORTER,
            SlaTarget {
                base_mean_us: 209.0,
                base_std_us: 2.0,
            },
        )])
    }

    /// One alternating-burst interval: on even intervals A1 sends, on odd
    /// intervals A2 does; the reporter is 12% over SLA throughout (mild —
    /// enough to indict, low enough that caps don't slam straight to the
    /// floor and mask the group arithmetic).
    fn colluding_interval(p: &mut IoShares, cfg: &ResExConfig, k: u64) -> Vec<VmVerdict> {
        let (m1, m2) = if k.is_multiple_of(2) {
            (2048, 0)
        } else {
            (0, 2048)
        };
        let vms = vec![
            (
                REPORTER,
                VmSnapshot {
                    mtus: 64,
                    cpu_pct: 50.0,
                    latency: Some(LatencyFeedback {
                        mean_us: 209.0 * 1.12,
                        std_us: 10.0,
                        count: 10,
                    }),
                    est_buffer_bytes: 65536.0,
                    stale: false,
                },
            ),
            (
                A1,
                VmSnapshot {
                    mtus: m1,
                    cpu_pct: 95.0,
                    ..Default::default()
                },
            ),
            (
                A2,
                VmSnapshot {
                    mtus: m2,
                    cpu_pct: 95.0,
                    ..Default::default()
                },
            ),
        ];
        let lookup = |_vm: VmId| None;
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: k % 1000,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg,
        };
        p.on_interval(&ctx)
    }

    fn cap(p: &IoShares, vm: VmId) -> u32 {
        p.caps.get(&vm).copied().unwrap_or(100)
    }

    #[test]
    fn group_clamp_coindicts_alternating_bursters() {
        let legacy = ResExConfig::default();
        let clamped = ResExConfig {
            group_clamp: true,
            ..Default::default()
        };
        let mut unhardened = policy();
        let mut hardened = policy();
        // Three intervals: past the transient, before the min-cap floor
        // flattens both trajectories into the same saturated aggregate.
        for k in 0..3 {
            colluding_interval(&mut unhardened, &legacy, k);
            colluding_interval(&mut hardened, &clamped, k);
        }
        // Under the clamp, *both* colluders are repriced — including the
        // one idling this interval — so neither coasts at a high cap while
        // its partner takes the blame.
        assert!(
            hardened.rate_of(A1) > 1.0 && hardened.rate_of(A2) > 1.0,
            "rates: {} {}",
            hardened.rate_of(A1),
            hardened.rate_of(A2)
        );
        let agg_hardened = cap(&hardened, A1) + cap(&hardened, A2);
        let agg_unhardened = cap(&unhardened, A1) + cap(&unhardened, A2);
        assert!(
            agg_hardened < agg_unhardened,
            "colluding group buys less in aggregate when clamped: \
             hardened {agg_hardened} vs legacy {agg_unhardened}"
        );
        // The clamped group's aggregate cannot exceed what a single
        // attacker at the group's *slowest-growing* rate would buy alone —
        // the per-member division by group size is exactly the aggregate
        // bound — modulo rounding and the floor.
        let floor = ResExConfig::default().min_cap_pct;
        let min_rate = hardened.rate_of(A1).min(hardened.rate_of(A2));
        let single_share = (100.0 / min_rate).round() as u32;
        assert!(
            agg_hardened <= single_share.max(2 * floor) + 1,
            "aggregate {agg_hardened} vs one attacker's share {single_share}"
        );
    }

    #[test]
    fn group_clamp_leaves_honest_neighbours_alone() {
        // An idle bystander (EWMA stays 0) is never swept into the group.
        let clamped = ResExConfig {
            group_clamp: true,
            ..Default::default()
        };
        let mut p = policy();
        let bystander = VmId::new(7);
        for k in 0..20 {
            let vms = vec![
                (
                    REPORTER,
                    VmSnapshot {
                        mtus: 64,
                        cpu_pct: 50.0,
                        latency: Some(LatencyFeedback {
                            mean_us: 209.0 * 1.6,
                            std_us: 25.0,
                            count: 10,
                        }),
                        est_buffer_bytes: 65536.0,
                        stale: false,
                    },
                ),
                (
                    A1,
                    VmSnapshot {
                        mtus: 2048,
                        cpu_pct: 95.0,
                        ..Default::default()
                    },
                ),
                (
                    bystander,
                    VmSnapshot {
                        mtus: 0,
                        cpu_pct: 10.0,
                        ..Default::default()
                    },
                ),
            ];
            let lookup = |_vm: VmId| None;
            let ctx = IntervalCtx {
                now: SimTime::ZERO,
                interval_in_epoch: k,
                intervals_per_epoch: 1000,
                vms: &vms,
                accounts: &lookup,
                cfg: &clamped,
            };
            p.on_interval(&ctx);
        }
        assert!(p.rate_of(A1) > 1.0);
        assert_eq!(p.rate_of(bystander), 1.0);
        assert_eq!(cap(&p, bystander), 100);
    }
}

#[cfg(test)]
mod victim_tests {
    use super::*;
    use crate::config::ResExConfig;
    use crate::pricing::{IntervalCtx, LatencyFeedback, VmSnapshot};
    use resex_simcore::time::SimTime;

    /// Three suffering reporters + one silent streamer: only the streamer
    /// may be taxed, never a fellow victim — even when a victim happens to
    /// send the most MTUs in an interval (the streamer's compute phase).
    #[test]
    fn victims_never_indict_each_other() {
        let reporters: Vec<VmId> = (0..3).map(VmId::new).collect();
        let streamer = VmId::new(9);
        let mut policy = IoShares::new(reporters.iter().map(|&r| {
            (
                r,
                SlaTarget {
                    base_mean_us: 209.0,
                    base_std_us: 2.0,
                },
            )
        }));
        let cfg = ResExConfig::default();
        // The streamer is mid-compute this interval: it sent *nothing*,
        // while every reporter pushed ~256 MTUs and is 40% over SLA.
        let vms: Vec<(VmId, VmSnapshot)> = reporters
            .iter()
            .map(|&r| {
                (
                    r,
                    VmSnapshot {
                        mtus: 256,
                        cpu_pct: 80.0,
                        latency: Some(LatencyFeedback {
                            mean_us: 209.0 * 1.4,
                            std_us: 20.0,
                            count: 8,
                        }),
                        est_buffer_bytes: 65536.0,
                        stale: false,
                    },
                )
            })
            .chain(std::iter::once((
                streamer,
                VmSnapshot {
                    mtus: 0,
                    cpu_pct: 95.0,
                    ..Default::default()
                },
            )))
            .collect();
        let lookup = |_vm: VmId| None;
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: 3,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        let verdicts = policy.on_interval(&ctx);
        for r in &reporters {
            let v = verdicts.iter().find(|v| v.vm == *r).unwrap();
            assert_eq!(v.io_rate, 1.0, "{r} is a victim, not a culprit");
        }
        // The idle streamer is not taxed either (it sent nothing).
        let vs = verdicts.iter().find(|v| v.vm == streamer).unwrap();
        assert_eq!(vs.io_rate, 1.0);
    }

    /// With a genuinely sending culprit present, victims still route all
    /// blame to it.
    #[test]
    fn blame_routes_past_victims_to_the_sender() {
        let a = VmId::new(0);
        let b = VmId::new(1);
        let hog = VmId::new(2);
        let mut policy = IoShares::new(vec![
            (
                a,
                SlaTarget {
                    base_mean_us: 209.0,
                    base_std_us: 2.0,
                },
            ),
            (
                b,
                SlaTarget {
                    base_mean_us: 209.0,
                    base_std_us: 2.0,
                },
            ),
        ]);
        let cfg = ResExConfig::default();
        let hurting = |mtus| VmSnapshot {
            mtus,
            cpu_pct: 70.0,
            latency: Some(LatencyFeedback {
                mean_us: 320.0,
                std_us: 30.0,
                count: 10,
            }),
            est_buffer_bytes: 65536.0,
            stale: false,
        };
        let vms = vec![
            (a, hurting(256)),
            (b, hurting(300)), // b sends more than a — still not indictable
            (
                hog,
                VmSnapshot {
                    mtus: 900,
                    cpu_pct: 95.0,
                    ..Default::default()
                },
            ),
        ];
        let lookup = |_vm: VmId| None;
        let ctx = IntervalCtx {
            now: SimTime::ZERO,
            interval_in_epoch: 3,
            intervals_per_epoch: 1000,
            vms: &vms,
            accounts: &lookup,
            cfg: &cfg,
        };
        let verdicts = policy.on_interval(&ctx);
        assert!(verdicts.iter().find(|v| v.vm == hog).unwrap().io_rate > 1.0);
        assert_eq!(verdicts.iter().find(|v| v.vm == a).unwrap().io_rate, 1.0);
        assert_eq!(verdicts.iter().find(|v| v.vm == b).unwrap().io_rate, 1.0);
    }
}
