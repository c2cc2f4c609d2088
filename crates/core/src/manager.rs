//! The ResEx manager — the dom0 charging loop.
//!
//! Mechanism, not policy: every interval the manager assembles the
//! [`IntervalCtx`] from usage snapshots (IBMon + XenStat data the platform
//! collects), lets the active [`PricingPolicy`] decide rates and caps,
//! performs the Reso deductions at those rates, and returns the cap
//! actuations for the platform to apply through the hypervisor
//! (`SetVMCap`). Epoch boundaries replenish every account — with a
//! weighted redistribution of the shared I/O pool — and notify the policy.

use crate::account::ResoAccount;
use crate::config::ResExConfig;
use crate::journal::{DecisionJournal, IntervalEntry, JournalRecord};
use crate::pricing::{IntervalCtx, PricingPolicy, VmId, VmSnapshot};
use crate::resos::Resos;
use resex_obs::{subsystem, Scope, Tracer};
use resex_simcore::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An actuation the platform must perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ManagerAction {
    /// Set the VM's CPU cap (percent; Xen semantics, 0 = uncapped).
    SetCap {
        /// Target VM.
        vm: VmId,
        /// New cap.
        cap_pct: u32,
    },
}

/// What one interval charged one VM.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VmCharge {
    /// The VM.
    pub vm: VmId,
    /// I/O Resos deducted.
    pub io: Resos,
    /// CPU Resos deducted.
    pub cpu: Resos,
    /// The I/O rate applied.
    pub io_rate: f64,
    /// Balance after deduction.
    pub remaining: Resos,
    /// Balance after deduction as a fraction of the allocation.
    pub remaining_fraction: f64,
}

/// Result of one charging interval.
#[derive(Clone, Debug, Default)]
pub struct IntervalOutcome {
    /// Cap actuations to apply.
    pub actions: Vec<ManagerAction>,
    /// Per-VM charges performed.
    pub charges: Vec<VmCharge>,
    /// True if this interval opened a new epoch (accounts replenished).
    pub epoch_started: bool,
    /// VMs whose stale-telemetry watchdog tripped this interval (their
    /// fail-safe floor cap is appended to `actions`).
    pub watchdog_trips: Vec<VmId>,
}

struct VmState {
    weight: u32,
    account: ResoAccount,
    /// Last fresh (non-stale) MTU count, the basis for degraded-telemetry
    /// pricing.
    last_mtus: u64,
    /// Last fresh buffer-size estimate.
    last_buffer: f64,
    /// Consecutive stale intervals; drives the confidence decay.
    stale_streak: u32,
}

/// The ResEx manager.
///
/// ```
/// use resex_core::{FreeMarket, ResExConfig, ResExManager, VmId, VmSnapshot};
/// use resex_simcore::time::SimTime;
///
/// let mut mgr = ResExManager::new(
///     ResExConfig::default(),
///     Box::new(FreeMarket::new()),
/// ).unwrap();
/// mgr.register_vm(VmId::new(0), 1);
///
/// // One charging interval: the VM sent 64 MTUs and used 50% CPU.
/// let usage = VmSnapshot { mtus: 64, cpu_pct: 50.0, ..Default::default() };
/// let outcome = mgr.on_interval(SimTime::from_millis(1), &[(VmId::new(0), usage)]);
/// assert_eq!(outcome.charges.len(), 1);
/// assert_eq!(outcome.charges[0].io, resex_core::Resos::from_whole(64));
/// ```
pub struct ResExManager {
    cfg: ResExConfig,
    policy: Box<dyn PricingPolicy>,
    vms: BTreeMap<VmId, VmState>,
    interval_index: u64,
    tracer: Tracer,
    /// Write-ahead decision journal; `None` keeps the manager exactly as
    /// cheap as a journal-unaware build (crash-free runs never arm it).
    journal: Option<DecisionJournal>,
}

impl ResExManager {
    /// Creates a manager with the given configuration and policy.
    pub fn new(cfg: ResExConfig, policy: Box<dyn PricingPolicy>) -> Result<Self, String> {
        cfg.validate()?;
        Ok(ResExManager {
            cfg,
            policy,
            vms: BTreeMap::new(),
            interval_index: 0,
            tracer: Tracer::disabled(),
            journal: None,
        })
    }

    /// Installs an observability tracer. Charging is unaffected; the
    /// manager only *emits* through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The active configuration.
    pub fn config(&self) -> &ResExConfig {
        &self.cfg
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Arms the write-ahead decision journal. Call before any
    /// [`ResExManager::register_vm`] so admissions are replayable.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(DecisionJournal::new());
        }
    }

    /// The decision journal, if armed.
    pub fn journal(&self) -> Option<&DecisionJournal> {
        self.journal.as_ref()
    }

    /// Detaches the journal — the crash protocol: the journal is the part
    /// of the manager that survives, so the world takes it before dropping
    /// a crashed manager and hands it to [`ResExManager::recover`].
    pub fn take_journal(&mut self) -> Option<DecisionJournal> {
        self.journal.take()
    }

    /// The next interval index this manager will charge.
    pub fn interval_index(&self) -> u64 {
        self.interval_index
    }

    /// Rebuilds a manager from a decision journal after a crash. Replays
    /// every admission and the last journaled account of each VM, then
    /// runs a **catch-up settlement**: the intervals slept through charge
    /// nothing (nothing was observed — that usage is the journaled burn a
    /// crash forgives), but epoch boundaries still replenish on schedule,
    /// so account balances land exactly where a live manager that observed
    /// zero usage would have put them and Resos conservation holds across
    /// the outage. The pricing policy restarts cold: its internal state is
    /// deliberately not journaled — losing it is the modeled damage.
    pub fn recover(
        cfg: ResExConfig,
        policy: Box<dyn PricingPolicy>,
        journal: DecisionJournal,
        target_interval_index: u64,
    ) -> Result<Self, String> {
        let mut m = ResExManager::new(cfg, policy)?;
        for rec in journal.records() {
            match rec {
                JournalRecord::Register { vm, weight } => {
                    m.admit(*vm, *weight);
                }
                JournalRecord::Interval { index, entries, .. } => {
                    for e in entries {
                        if let Some(st) = m.vms.get_mut(&e.vm) {
                            st.account = e.account;
                        }
                    }
                    m.interval_index = index + 1;
                }
            }
        }
        let ipe = m.cfg.intervals_per_epoch();
        while m.interval_index < target_interval_index {
            if m.interval_index % ipe == 0 && m.interval_index > 0 {
                m.replenish_all();
                m.policy.on_epoch(m.interval_index / ipe);
            }
            m.interval_index += 1;
        }
        m.journal = Some(journal);
        Ok(m)
    }

    /// Registers a VM with the given share weight. Existing VMs' I/O
    /// shares shrink at the *next* epoch; the new VM starts with its
    /// weighted share immediately.
    pub fn register_vm(&mut self, vm: VmId, weight: u32) {
        self.admit(vm, weight);
        if let Some(j) = self.journal.as_mut() {
            j.append(JournalRecord::Register { vm, weight });
        }
    }

    /// Inserts a freshly funded VM without touching the journal (shared by
    /// registration and journal replay).
    fn admit(&mut self, vm: VmId, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        let cpu = Resos::from_whole(self.cfg.cpu_resos_per_epoch);
        self.vms.insert(
            vm,
            VmState {
                weight,
                account: ResoAccount::new(cpu, Resos::ZERO),
                last_mtus: 0,
                last_buffer: 0.0,
                stale_streak: 0,
            },
        );
        // Give the newcomer its weighted slice right away (it will be
        // normalized with everyone else at the next epoch).
        let share = self.io_share(vm);
        if let Some(st) = self.vms.get_mut(&vm) {
            st.account.replenish(Some((cpu, share)));
        }
    }

    /// Removes a VM (it crashed or was torn down); its telemetry basis and
    /// account leave the books. The journal keeps its history, which is
    /// what funds a later [`ResExManager::readmit_vm`].
    pub fn deregister_vm(&mut self, vm: VmId) -> Option<ResoAccount> {
        self.vms.remove(&vm).map(|st| st.account)
    }

    /// Re-admits a crashed VM through the normal lifecycle: a fresh
    /// telemetry basis, but an account funded by its last journaled
    /// balance (so a crash cannot mint or burn Resos). Falls back to a
    /// plain registration when the journal never saw the VM settle.
    pub fn readmit_vm(&mut self, vm: VmId, weight: u32) {
        let journaled = self.journal.as_ref().and_then(|j| j.last_balance(vm));
        match journaled {
            Some(account) => {
                assert!(weight > 0, "weight must be positive");
                self.vms.insert(
                    vm,
                    VmState {
                        weight,
                        account,
                        last_mtus: 0,
                        last_buffer: 0.0,
                        stale_streak: 0,
                    },
                );
                if let Some(j) = self.journal.as_mut() {
                    j.append(JournalRecord::Register { vm, weight });
                }
            }
            None => self.register_vm(vm, weight),
        }
    }

    /// The set of registered VMs.
    pub fn registered(&self) -> Vec<VmId> {
        self.vms.keys().copied().collect()
    }

    /// A VM's account, if registered.
    pub fn account(&self, vm: VmId) -> Option<ResoAccount> {
        self.vms.get(&vm).map(|s| s.account)
    }

    /// Epoch-boundary refill for every account with freshly weighted
    /// shares (shared by the live interval loop and crash recovery's
    /// catch-up settlement).
    fn replenish_all(&mut self) {
        let shares: Vec<(VmId, Resos)> =
            self.vms.keys().map(|&vm| (vm, self.io_share(vm))).collect();
        let cpu = Resos::from_whole(self.cfg.cpu_resos_per_epoch);
        let carry_debt = self.cfg.debt_carryover;
        for (vm, share) in shares {
            if let Some(st) = self.vms.get_mut(&vm) {
                st.account.replenish_with(Some((cpu, share)), carry_debt);
            }
        }
    }

    /// This VM's weighted share of the epoch I/O pool.
    fn io_share(&self, vm: VmId) -> Resos {
        let total: u64 = self.vms.values().map(|s| s.weight as u64).sum();
        let w = self.vms.get(&vm).map(|s| s.weight).unwrap_or(0);
        if total == 0 {
            return Resos::ZERO;
        }
        Resos::from_whole(self.cfg.io_resos_per_epoch).scale(w as f64 / total as f64)
    }

    /// Runs one charging interval. `snapshots` carries this interval's
    /// usage per VM (missing VMs are treated as idle).
    pub fn on_interval(
        &mut self,
        now: SimTime,
        snapshots: &[(VmId, VmSnapshot)],
    ) -> IntervalOutcome {
        let ipe = self.cfg.intervals_per_epoch();
        let interval_in_epoch = self.interval_index % ipe;
        let mut outcome = IntervalOutcome::default();

        // Epoch boundary (not on the very first interval): replenish with
        // freshly weighted shares, then tell the policy.
        if interval_in_epoch == 0 && self.interval_index > 0 {
            self.replenish_all();
            self.policy.on_epoch(self.interval_index / ipe);
            outcome.epoch_started = true;
            if self.tracer.enabled() {
                self.tracer.instant(
                    now,
                    subsystem::RESEX_MANAGER,
                    "epoch",
                    Scope::Global,
                    vec![("epoch", (self.interval_index / ipe).into())],
                );
            }
        }

        // Snapshot view sorted by VmId for deterministic policy input.
        let mut vms_sorted: Vec<(VmId, VmSnapshot)> = snapshots
            .iter()
            .filter(|(vm, _)| self.vms.contains_key(vm))
            .copied()
            .collect();
        vms_sorted.sort_by_key(|&(vm, _)| vm);

        // Degraded-telemetry fallback: a stale snapshot (IBMon skipped or
        // partially lost the scan) is repriced from the last fresh rate,
        // decayed once per consecutive stale interval so confidence in the
        // stale figure fades instead of freezing.
        for (vm, snap) in vms_sorted.iter_mut() {
            let Some(st) = self.vms.get_mut(vm) else {
                continue;
            };
            if snap.stale {
                st.stale_streak += 1;
                let k = self.cfg.watchdog_stale_intervals;
                if k > 0 && st.stale_streak >= k {
                    // Watchdog: telemetry has been dark long enough that
                    // the decayed estimate is mostly noise. Fail safe
                    // instead of decaying prices forever: charge nothing
                    // (the floor cap bounds what the VM can consume
                    // unobserved), zero the basis, and re-probe from
                    // scratch when fresh telemetry returns.
                    snap.mtus = 0;
                    snap.est_buffer_bytes = 0.0;
                    st.last_mtus = 0;
                    st.last_buffer = 0.0;
                    st.stale_streak = 0;
                    outcome.watchdog_trips.push(*vm);
                    if self.tracer.enabled() {
                        self.tracer.instant(
                            now,
                            subsystem::RECOVERY,
                            "watchdog_stale_trip",
                            Scope::Vm(vm.raw()),
                            vec![
                                ("streak", u64::from(k).into()),
                                ("floor_cap_pct", u64::from(self.cfg.min_cap_pct).into()),
                            ],
                        );
                    }
                    continue;
                }
                let decay = self.cfg.rate_decay.powi(st.stale_streak.min(64) as i32);
                snap.mtus = (st.last_mtus as f64 * decay).round() as u64;
                snap.est_buffer_bytes = st.last_buffer;
                if self.tracer.enabled() {
                    self.tracer.instant(
                        now,
                        subsystem::RESEX_MANAGER,
                        "stale_fallback",
                        Scope::Vm(vm.raw()),
                        vec![
                            ("streak", u64::from(st.stale_streak).into()),
                            ("assumed_mtus", snap.mtus.into()),
                        ],
                    );
                }
            } else {
                st.last_mtus = snap.mtus;
                st.last_buffer = snap.est_buffer_bytes;
                st.stale_streak = 0;
            }
        }

        let verdicts = {
            let vms = &self.vms;
            let lookup = move |vm: VmId| vms.get(&vm).map(|s| s.account);
            let ctx = IntervalCtx {
                now,
                interval_in_epoch,
                intervals_per_epoch: ipe,
                vms: &vms_sorted,
                accounts: &lookup,
                cfg: &self.cfg,
            };
            self.policy.on_interval(&ctx)
        };
        debug_assert_eq!(
            verdicts.len(),
            vms_sorted.len(),
            "policy must return one verdict per VM"
        );

        for verdict in verdicts {
            let snap = match vms_sorted.iter().find(|(vm, _)| *vm == verdict.vm) {
                Some((_, s)) => *s,
                None => continue,
            };
            let st = match self.vms.get_mut(&verdict.vm) {
                Some(st) => st,
                None => continue,
            };
            let io = st
                .account
                .charge_io(Resos::charge(snap.mtus as f64, verdict.io_rate));
            let cpu = st
                .account
                .charge_cpu(Resos::charge(snap.cpu_pct, verdict.cpu_rate));
            let charge = VmCharge {
                vm: verdict.vm,
                io,
                cpu,
                io_rate: verdict.io_rate,
                remaining: st.account.total_remaining(),
                remaining_fraction: st.account.fraction_remaining(),
            };
            if self.tracer.enabled() {
                let vm_raw = verdict.vm.raw();
                self.tracer.instant(
                    now,
                    subsystem::RESEX_MANAGER,
                    "charge",
                    Scope::Vm(vm_raw),
                    vec![
                        ("io_resos", io.as_f64().into()),
                        ("cpu_resos", cpu.as_f64().into()),
                        ("io_rate", verdict.io_rate.into()),
                        ("mtus", snap.mtus.into()),
                        ("cpu_pct", snap.cpu_pct.into()),
                        ("policy", self.policy.name().into()),
                    ],
                );
                self.tracer.counter(
                    now,
                    subsystem::RESEX_MANAGER,
                    "reso_balance",
                    Scope::Vm(vm_raw),
                    charge.remaining.as_f64(),
                );
                self.tracer.counter(
                    now,
                    subsystem::RESEX_MANAGER,
                    "congestion_price",
                    Scope::Vm(vm_raw),
                    verdict.io_rate,
                );
            }
            outcome.charges.push(charge);
            if let Some(cap) = verdict.cap_pct {
                if self.tracer.enabled() {
                    self.tracer.instant(
                        now,
                        subsystem::RESEX_MANAGER,
                        "cap_decision",
                        Scope::Vm(verdict.vm.raw()),
                        vec![
                            ("cap_pct", cap.into()),
                            ("policy", self.policy.name().into()),
                            ("remaining_fraction", charge.remaining_fraction.into()),
                        ],
                    );
                }
                outcome.actions.push(ManagerAction::SetCap {
                    vm: verdict.vm,
                    cap_pct: cap,
                });
            }
        }
        // Watchdog floor caps go last so a policy verdict for the same VM
        // (priced off the zeroed snapshot) cannot override the fail-safe.
        for &vm in &outcome.watchdog_trips {
            outcome.actions.push(ManagerAction::SetCap {
                vm,
                cap_pct: self.cfg.min_cap_pct,
            });
        }
        // Write-ahead: the settled books for this interval go to the
        // journal before the index advances, so a crash between intervals
        // can always restart from the last settled state.
        if let Some(j) = self.journal.as_mut() {
            let entries: Vec<IntervalEntry> = self
                .vms
                .iter()
                .map(|(&vm, st)| IntervalEntry {
                    vm,
                    account: st.account,
                    cap_pct: outcome.actions.iter().rev().find_map(|a| match a {
                        ManagerAction::SetCap { vm: v, cap_pct } if *v == vm => Some(*cap_pct),
                        _ => None,
                    }),
                })
                .collect();
            j.append(JournalRecord::Interval {
                index: self.interval_index,
                epoch_started: outcome.epoch_started,
                entries,
            });
        }
        self.interval_index += 1;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freemarket::FreeMarket;
    use crate::ioshares::{IoShares, SlaTarget};
    use crate::pricing::LatencyFeedback;

    const A: VmId = VmId::new(0);
    const B: VmId = VmId::new(1);

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn mgr(policy: Box<dyn PricingPolicy>) -> ResExManager {
        let mut m = ResExManager::new(ResExConfig::default(), policy).unwrap();
        m.register_vm(A, 1);
        m.register_vm(B, 1);
        m
    }

    fn snap(mtus: u64, cpu: f64) -> VmSnapshot {
        VmSnapshot {
            mtus,
            cpu_pct: cpu,
            latency: None,
            est_buffer_bytes: 0.0,
            stale: false,
        }
    }

    #[test]
    fn charges_deduct_at_base_rate() {
        let mut m = mgr(Box::new(FreeMarket::new()));
        let out = m.on_interval(t(1), &[(A, snap(64, 50.0)), (B, snap(2048, 95.0))]);
        assert_eq!(out.charges.len(), 2);
        let ca = out.charges.iter().find(|c| c.vm == A).unwrap();
        assert_eq!(ca.io, Resos::from_whole(64));
        assert_eq!(ca.cpu, Resos::from_whole(50));
        // A registered first and holds the whole I/O pool until the first
        // epoch boundary re-normalizes shares.
        let before = Resos::from_whole(100_000) + Resos::from_whole(1_048_576);
        assert_eq!(ca.remaining, before - Resos::from_whole(114));
    }

    #[test]
    fn io_pool_is_weighted() {
        let mut m = ResExManager::new(ResExConfig::default(), Box::new(FreeMarket::new())).unwrap();
        m.register_vm(A, 3);
        m.register_vm(B, 1);
        // Force an epoch boundary so both accounts get normalized shares.
        m.on_interval(t(0), &[]);
        for i in 1..=1000u64 {
            m.on_interval(t(i), &[]);
        }
        let a = m.account(A).unwrap();
        let b = m.account(B).unwrap();
        assert_eq!(a.io_alloc, Resos::from_whole(1_048_576).scale(0.75));
        assert_eq!(b.io_alloc, Resos::from_whole(1_048_576).scale(0.25));
    }

    #[test]
    fn epoch_replenishes_and_notifies() {
        let mut m = mgr(Box::new(FreeMarket::new()));
        // Burn most of B's balance.
        for i in 0..1000u64 {
            m.on_interval(t(i), &[(B, snap(1000, 100.0))]);
        }
        assert!(m.account(B).unwrap().fraction_remaining() < 0.2);
        // Interval 1000 opens epoch 1.
        let out = m.on_interval(t(1000), &[(B, snap(0, 0.0))]);
        assert!(out.epoch_started);
        assert!((m.account(B).unwrap().fraction_remaining() - 1.0).abs() < 0.01);
    }

    #[test]
    fn freemarket_emits_cap_actions_when_broke() {
        let mut m = mgr(Box::new(FreeMarket::new()));
        let mut saw_cap = false;
        // B spends way over budget: its 524k I/O Resos deplete long before
        // the epoch ends (5000 MTUs/interval ≈ 5× its share).
        for i in 0..500u64 {
            let out = m.on_interval(t(i), &[(A, snap(64, 50.0)), (B, snap(5000, 100.0))]);
            for a in &out.actions {
                let ManagerAction::SetCap { vm, cap_pct } = a;
                assert_eq!(*vm, B, "only the overspender is throttled");
                assert!(*cap_pct < 100);
                saw_cap = true;
            }
        }
        assert!(saw_cap, "cap action expected before the epoch ends");
    }

    #[test]
    fn ioshares_end_to_end_taxes_the_interferer() {
        let sla = vec![(
            A,
            SlaTarget {
                base_mean_us: 209.0,
                base_std_us: 2.0,
            },
        )];
        let mut m = mgr(Box::new(IoShares::new(sla)));
        let hurt = VmSnapshot {
            latency: Some(LatencyFeedback {
                mean_us: 420.0,
                std_us: 60.0,
                count: 20,
            }),
            ..snap(64, 50.0)
        };
        let out = m.on_interval(t(1), &[(A, hurt), (B, snap(2000, 100.0))]);
        let cap = out.actions.iter().find_map(|a| match a {
            ManagerAction::SetCap { vm, cap_pct } if *vm == B => Some(*cap_pct),
            _ => None,
        });
        assert!(cap.is_some() && cap.unwrap() <= 10, "cap={cap:?}");
        // And B was charged at an elevated rate.
        let cb = out.charges.iter().find(|c| c.vm == B).unwrap();
        assert!(cb.io_rate > 10.0);
        assert!(cb.io > Resos::from_whole(2000), "more than base price");
    }

    #[test]
    fn stale_snapshots_charge_a_decaying_last_known_rate() {
        let mut m = mgr(Box::new(FreeMarket::new()));
        // Establish a fresh rate of 1000 MTUs/interval.
        m.on_interval(t(0), &[(A, snap(1000, 50.0))]);
        // Telemetry goes dark: stale snapshots report zero MTUs, but the
        // manager charges the decayed last-known rate instead.
        let stale = VmSnapshot {
            stale: true,
            ..snap(0, 50.0)
        };
        let decay = ResExConfig::default().rate_decay;
        let mut expected = Vec::new();
        let mut charged = Vec::new();
        for i in 1..=3u64 {
            let out = m.on_interval(t(i), &[(A, stale)]);
            let ca = out.charges.iter().find(|c| c.vm == A).unwrap();
            charged.push(ca.io);
            expected.push(Resos::from_whole(
                (1000.0 * decay.powi(i as i32)).round() as i64
            ));
        }
        assert_eq!(charged, expected);
        // Fresh telemetry resets the streak and the basis.
        m.on_interval(t(4), &[(A, snap(200, 50.0))]);
        let out = m.on_interval(t(5), &[(A, stale)]);
        let ca = out.charges.iter().find(|c| c.vm == A).unwrap();
        assert_eq!(
            ca.io,
            Resos::from_whole((200.0 * decay).round() as i64),
            "streak restarts from the new fresh rate"
        );
    }

    #[test]
    fn stale_watchdog_trips_to_the_floor_and_reprobes() {
        let cfg = ResExConfig::default();
        let k = u64::from(cfg.watchdog_stale_intervals);
        assert!(k > 3, "watchdog must outlast ordinary stale blips");
        let mut m = mgr(Box::new(FreeMarket::new()));
        m.on_interval(t(0), &[(A, snap(1000, 50.0))]);
        let stale = VmSnapshot {
            stale: true,
            ..snap(0, 50.0)
        };
        let mut tripped = None;
        for i in 1..=k {
            let out = m.on_interval(t(i), &[(A, stale)]);
            if !out.watchdog_trips.is_empty() {
                tripped = Some((i, out));
                break;
            }
        }
        let (i, out) = tripped.expect("K consecutive stale intervals trip the watchdog");
        assert_eq!(i, k, "trips exactly at the threshold");
        assert_eq!(out.watchdog_trips, vec![A]);
        assert!(
            out.actions.contains(&ManagerAction::SetCap {
                vm: A,
                cap_pct: cfg.min_cap_pct,
            }),
            "fail-safe floor cap: {:?}",
            out.actions
        );
        let ca = out.charges.iter().find(|c| c.vm == A).unwrap();
        assert_eq!(ca.io, Resos::ZERO, "tripped interval charges no I/O");
        // The basis was zeroed: further dark intervals decay from nothing
        // instead of the stale 1000-MTU figure, and the streak restarts.
        let out = m.on_interval(t(k + 1), &[(A, stale)]);
        assert!(out.watchdog_trips.is_empty());
        let ca = out.charges.iter().find(|c| c.vm == A).unwrap();
        assert_eq!(ca.io, Resos::ZERO, "re-probing from a zero basis");
    }

    #[test]
    fn debt_carryover_survives_the_epoch_boundary() {
        let cfg = ResExConfig {
            debt_carryover: true,
            ..Default::default()
        };
        let mut m = ResExManager::new(cfg, Box::new(FreeMarket::new())).unwrap();
        m.register_vm(A, 1);
        // Spend far past the allocation before the boundary.
        for i in 0..1000u64 {
            m.on_interval(t(i), &[(A, snap(3000, 100.0))]);
        }
        let debt = m.account(A).unwrap().total_remaining();
        assert!(
            debt < Resos::ZERO,
            "overdrawn before the boundary: {debt:?}"
        );
        // Interval 1000 opens the next epoch: the overdraft is carried, so
        // the free-rider does not come back at full priority.
        let out = m.on_interval(t(1000), &[(A, snap(0, 0.0))]);
        assert!(out.epoch_started);
        let frac = m.account(A).unwrap().fraction_remaining();
        assert!(
            frac < 1.0 - 0.05,
            "carried debt keeps the account below full: {frac}"
        );
        // The legacy default still forgives (epoch_replenishes_and_notifies
        // above covers it).
    }

    #[test]
    fn journal_replay_restores_balances_exactly() {
        let mut live =
            ResExManager::new(ResExConfig::default(), Box::new(FreeMarket::new())).unwrap();
        live.enable_journal();
        live.register_vm(A, 2);
        live.register_vm(B, 1);
        for i in 0..300u64 {
            live.on_interval(t(i), &[(A, snap(200, 40.0)), (B, snap(900, 80.0))]);
        }
        // Crash: the in-memory manager dies; only the journal survives.
        let journal = live.take_journal().unwrap();
        let live_a = live.account(A).unwrap();
        let live_b = live.account(B).unwrap();
        let rebuilt = ResExManager::recover(
            ResExConfig::default(),
            Box::new(FreeMarket::new()),
            journal,
            live.interval_index(),
        )
        .unwrap();
        assert_eq!(rebuilt.interval_index(), 300);
        assert_eq!(rebuilt.account(A).unwrap(), live_a, "A replays exactly");
        assert_eq!(rebuilt.account(B).unwrap(), live_b, "B replays exactly");
        assert_eq!(rebuilt.registered(), vec![A, B]);
    }

    #[test]
    fn catch_up_settlement_applies_missed_epoch_replenishments() {
        // Manager dies at interval 900, comes back at interval 1100: the
        // epoch boundary at 1000 happened while it was down. Recovery must
        // land the accounts exactly where a live manager that observed
        // zero usage through the outage would have: replenished at 1000.
        let cfg = ResExConfig::default();
        let ipe = cfg.intervals_per_epoch();
        assert_eq!(ipe, 1000, "test assumes the default epoch shape");
        let mut live = ResExManager::new(cfg, Box::new(FreeMarket::new())).unwrap();
        live.enable_journal();
        live.register_vm(A, 1);
        for i in 0..900u64 {
            live.on_interval(t(i), &[(A, snap(500, 60.0))]);
        }
        assert!(live.account(A).unwrap().fraction_remaining() < 1.0);
        let journal = live.take_journal().unwrap();
        let rebuilt =
            ResExManager::recover(cfg, Box::new(FreeMarket::new()), journal, 1100).unwrap();
        assert_eq!(rebuilt.interval_index(), 1100);
        let acct = rebuilt.account(A).unwrap();
        assert_eq!(acct.epochs, 2, "registration refill + missed boundary");
        assert_eq!(acct.io_remaining(), acct.io_alloc, "replenished at 1000");
        assert_eq!(acct.cpu_remaining(), acct.cpu_alloc);
        // Conservation: lifetime charges survive the crash; the outage
        // itself charged nothing (the journaled burn a crash forgives).
        assert_eq!(
            acct.lifetime_charged,
            live.account(A).unwrap().lifetime_charged
        );
    }

    #[test]
    fn readmitted_vm_is_funded_by_its_journaled_balance() {
        let mut m = ResExManager::new(ResExConfig::default(), Box::new(FreeMarket::new())).unwrap();
        m.enable_journal();
        m.register_vm(A, 1);
        m.register_vm(B, 1);
        for i in 0..50u64 {
            m.on_interval(t(i), &[(A, snap(800, 70.0))]);
        }
        let before = m.account(A).unwrap();
        assert!(before.io_remaining() < before.io_alloc);
        // A crashes: it leaves the books, then rejoins.
        assert!(m.deregister_vm(A).is_some());
        assert!(m.account(A).is_none());
        m.readmit_vm(A, 1);
        let after = m.account(A).unwrap();
        assert_eq!(after, before, "re-admission cannot mint or burn Resos");
        // A VM the journal never saw settle falls back to registration.
        let c = VmId::new(7);
        m.readmit_vm(c, 1);
        let fresh = m.account(c).unwrap();
        assert_eq!(fresh.io_remaining(), fresh.io_alloc);
    }

    #[test]
    fn unregistered_vms_are_ignored() {
        let mut m = mgr(Box::new(FreeMarket::new()));
        let out = m.on_interval(t(1), &[(VmId::new(99), snap(500, 50.0))]);
        assert!(out.charges.is_empty());
    }

    #[test]
    fn conservation_property_sum_of_charges() {
        // Total deducted equals allocation minus remaining, exactly.
        let mut m = mgr(Box::new(FreeMarket::new()));
        let mut total_io = Resos::ZERO;
        for i in 0..100u64 {
            let out = m.on_interval(t(i), &[(A, snap(123, 45.0))]);
            for c in &out.charges {
                total_io += c.io;
            }
        }
        let acct = m.account(A).unwrap();
        assert_eq!(acct.io_alloc - acct.io_remaining(), total_io);
    }
}
