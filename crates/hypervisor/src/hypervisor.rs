//! The hypervisor core: domains, VCPU scheduling, accounting.
//!
//! [`Hypervisor`] is driven like the fabric: the platform asks
//! [`next_time`](Hypervisor::next_time) when the scheduler next has
//! something to say (a job completion) and calls
//! [`advance`](Hypervisor::advance) to collect [`HvEvent`]s.
//!
//! The interesting mechanic is **cap enforcement**: the paper's entire
//! actuation path is "set the interfering VM's CPU cap", because the
//! hypervisor cannot touch VMM-bypass I/O directly. A capped VM's compute
//! jobs finish later, so it posts work requests more slowly, so its I/O
//! rate drops — the cap→I/O coupling the paper establishes in Figures 3/4.

use crate::domain::{Domain, DomainId};
use crate::error::HvError;
use crate::sched::{
    fair_shares_into, fluid_finish, slice_finish, slice_progress, SchedModel, ShareReq,
};
use crate::vcpu::{Job, PcpuId, Vcpu, VcpuId, VcpuMode};
use resex_faults::{ControlFaults, FaultSchedule, FaultStats};
use resex_obs::{subsystem, Scope, Tracer};
use resex_simcore::time::{SimDuration, SimTime};
use resex_simmem::MemoryHandle;
use std::cell::Cell;

/// Events emitted by [`Hypervisor::advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HvEvent {
    /// A compute job finished.
    JobDone {
        /// Owning domain.
        dom: DomainId,
        /// The VCPU it ran on.
        vcpu: VcpuId,
        /// The tag passed to [`Hypervisor::start_job`].
        tag: u64,
    },
}

/// The simulated hypervisor for one physical host.
///
/// ```
/// use resex_hypervisor::{Hypervisor, SchedModel};
/// use resex_simcore::time::{SimDuration, SimTime};
///
/// let mut hv = Hypervisor::new(SchedModel::Fluid);
/// let pcpu = hv.add_pcpu();
/// let dom0 = hv.create_domain("dom0", 1 << 20, true);
/// let vm = hv.create_domain("vm", 1 << 20, false);
/// let vcpu = hv.add_vcpu(vm, pcpu, SimTime::ZERO).unwrap();
///
/// // A 2 ms job at a 25% cap takes 8 ms of wall time.
/// hv.privileged_set_cap(dom0, vm, 25, SimTime::ZERO).unwrap();
/// hv.start_job(vcpu, SimDuration::from_millis(2), 7, SimTime::ZERO).unwrap();
/// assert_eq!(hv.next_time(), Some(SimTime::from_millis(8)));
/// ```
pub struct Hypervisor {
    model: SchedModel,
    domains: Vec<Domain>,
    vcpus: Vec<Vcpu>,
    n_pcpus: u32,
    tracer: Tracer,
    /// Actuation fault injector; `None` (the default) draws nothing and
    /// keeps fault-free runs byte-identical to pre-fault builds.
    faults: Option<ControlFaults>,
    /// Reusable scratch for [`Hypervisor::reschedule`] (runnable VCPU
    /// indices, share requests, computed rates, water-filling open set) —
    /// rescheduling runs on every job start and must not allocate.
    sched_idx: Vec<usize>,
    sched_reqs: Vec<ShareReq>,
    sched_rates: Vec<f64>,
    sched_open: Vec<usize>,
    /// Memo of the earliest job completion `(time, vcpu)`; the outer
    /// `None` means stale. Every mutator calls [`Self::accrue_all`] before
    /// or [`Self::reschedule`] after changing job progress, rates, caps or
    /// modes, and both clear it, so the platform's per-event `next_time`
    /// query is O(1) between changes instead of an O(V) rescan.
    next_due: Cell<Option<Option<(SimTime, VcpuId)>>>,
}

impl Hypervisor {
    /// Creates a hypervisor with the given scheduling model and no PCPUs.
    pub fn new(model: SchedModel) -> Self {
        Hypervisor {
            model,
            domains: Vec::new(),
            vcpus: Vec::new(),
            n_pcpus: 0,
            tracer: Tracer::disabled(),
            faults: None,
            sched_idx: Vec::new(),
            sched_reqs: Vec::new(),
            sched_rates: Vec::new(),
            sched_open: Vec::new(),
            next_due: Cell::new(None),
        }
    }

    /// Arms deterministic actuation faults (transient `SetVMCap`
    /// failures). A schedule with all rates zero is ignored.
    pub fn install_faults(&mut self, schedule: FaultSchedule) {
        if schedule.enabled() {
            self.faults = Some(ControlFaults::new(schedule));
        }
    }

    /// Tally of actuation faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Draws whether the next privileged actuation fails transiently.
    pub(crate) fn actuation_fails(&mut self, now: SimTime) -> bool {
        self.faults.as_mut().is_some_and(|f| f.cap_fails(now))
    }

    /// Installs an observability tracer. Scheduling is unaffected; the
    /// hypervisor only *emits* through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The active scheduling model.
    pub fn model(&self) -> SchedModel {
        self.model
    }

    /// Adds a physical CPU.
    pub fn add_pcpu(&mut self) -> PcpuId {
        self.n_pcpus += 1;
        PcpuId::new(self.n_pcpus - 1)
    }

    /// Creates a domain. The first domain created is dom0 (privileged by
    /// convention; pass `privileged = true` for it).
    pub fn create_domain(
        &mut self,
        name: impl Into<String>,
        mem_bytes: u64,
        privileged: bool,
    ) -> DomainId {
        let id = DomainId::new(self.domains.len() as u32);
        self.domains.push(Domain {
            id,
            name: name.into(),
            mem: MemoryHandle::new(mem_bytes),
            privileged,
            weight: 256,
            cap_pct: 0,
        });
        id
    }

    fn dom(&self, d: DomainId) -> Result<&Domain, HvError> {
        self.domains.get(d.index()).ok_or(HvError::UnknownDomain(d))
    }

    fn dom_mut(&mut self, d: DomainId) -> Result<&mut Domain, HvError> {
        self.domains
            .get_mut(d.index())
            .ok_or(HvError::UnknownDomain(d))
    }

    /// A domain's guest memory.
    pub fn domain_memory(&self, d: DomainId) -> Result<MemoryHandle, HvError> {
        Ok(self.dom(d)?.mem.clone())
    }

    /// Whether a domain is privileged.
    pub fn is_privileged(&self, d: DomainId) -> Result<bool, HvError> {
        Ok(self.dom(d)?.privileged)
    }

    /// Adds a VCPU to a domain, pinned to `pcpu`.
    ///
    /// The slice-granular model supports at most one VCPU per PCPU (the
    /// paper's configuration — "each guest domain is assigned a VCPU each").
    pub fn add_vcpu(
        &mut self,
        dom: DomainId,
        pcpu: PcpuId,
        now: SimTime,
    ) -> Result<VcpuId, HvError> {
        self.dom(dom)?;
        if pcpu.raw() >= self.n_pcpus {
            return Err(HvError::UnknownPcpu(pcpu));
        }
        if matches!(self.model, SchedModel::Slice { .. })
            && self.vcpus.iter().any(|v| v.pcpu == pcpu)
        {
            return Err(HvError::PcpuOvercommitted(pcpu));
        }
        let id = VcpuId::new(self.vcpus.len() as u32);
        let mut v = Vcpu::new(id, dom, pcpu);
        v.last_update = now;
        self.vcpus.push(v);
        self.reschedule(now);
        Ok(id)
    }

    fn vcpu(&self, v: VcpuId) -> Result<&Vcpu, HvError> {
        self.vcpus.get(v.index()).ok_or(HvError::UnknownVcpu(v))
    }

    // ----- tuning knobs ---------------------------------------------------

    /// Sets a domain's CPU cap in percent (0 = uncapped, Xen semantics).
    ///
    /// As in Xen, the cap is a *domain* budget in percent of one PCPU:
    /// values above 100 are meaningful for multi-VCPU domains (e.g. 150 on
    /// a 2-VCPU domain runs each VCPU at 75 %). The budget is split evenly
    /// across the domain's runnable VCPUs.
    pub fn set_cap(&mut self, dom: DomainId, cap_pct: u32, now: SimTime) -> Result<(), HvError> {
        let vcpus = self.vcpus.iter().filter(|v| v.dom == dom).count().max(1) as u32;
        if cap_pct > 100 * vcpus {
            return Err(HvError::BadParameter {
                what: "cap_pct",
                value: cap_pct as i64,
            });
        }
        self.accrue_all(now);
        let old_cap = self.dom(dom)?.cap_pct;
        self.dom_mut(dom)?.cap_pct = cap_pct;
        self.reschedule(now);
        if self.tracer.enabled() {
            self.tracer.instant(
                now,
                subsystem::HV_SCHED,
                "set_cap",
                Scope::Domain(dom.raw()),
                vec![("cap_pct", cap_pct.into()), ("old_cap_pct", old_cap.into())],
            );
            self.tracer.counter(
                now,
                subsystem::HV_SCHED,
                "cap_pct",
                Scope::Domain(dom.raw()),
                cap_pct as f64,
            );
        }
        Ok(())
    }

    /// Sets a domain's scheduling weight.
    pub fn set_weight(&mut self, dom: DomainId, weight: u32, now: SimTime) -> Result<(), HvError> {
        if weight == 0 {
            return Err(HvError::BadParameter {
                what: "weight",
                value: 0,
            });
        }
        self.accrue_all(now);
        self.dom_mut(dom)?.weight = weight;
        self.reschedule(now);
        Ok(())
    }

    /// A domain's current cap (0 = uncapped).
    pub fn cap(&self, dom: DomainId) -> Result<u32, HvError> {
        Ok(self.dom(dom)?.cap_pct)
    }

    // ----- workload interface --------------------------------------------

    /// Starts a finite compute job of `cpu_time` on `vcpu`. Completion is
    /// reported by [`Hypervisor::advance`] as [`HvEvent::JobDone`] with `tag`.
    pub fn start_job(
        &mut self,
        vcpu: VcpuId,
        cpu_time: SimDuration,
        tag: u64,
        now: SimTime,
    ) -> Result<(), HvError> {
        self.vcpu(vcpu)?;
        if self.vcpus[vcpu.index()].mode == VcpuMode::Busy {
            return Err(HvError::VcpuBusy(vcpu));
        }
        self.accrue_all(now);
        let v = &mut self.vcpus[vcpu.index()];
        v.mode = VcpuMode::Busy;
        v.job = Some(Job {
            tag,
            remaining: cpu_time,
        });
        let dom = v.dom;
        self.reschedule(now);
        if self.tracer.enabled() {
            self.tracer.instant(
                now,
                subsystem::HV_SCHED,
                "job_start",
                Scope::Domain(dom.raw()),
                vec![
                    ("cpu_time_ns", cpu_time.as_nanos().into()),
                    ("tag", tag.into()),
                ],
            );
        }
        Ok(())
    }

    /// Puts a VCPU into busy-polling mode (burns CPU, no completion event).
    pub fn set_polling(&mut self, vcpu: VcpuId, now: SimTime) -> Result<(), HvError> {
        self.vcpu(vcpu)?;
        self.accrue_all(now);
        let v = &mut self.vcpus[vcpu.index()];
        v.mode = VcpuMode::Polling;
        v.job = None;
        self.reschedule(now);
        Ok(())
    }

    /// Blocks a VCPU (stops consuming CPU).
    pub fn set_idle(&mut self, vcpu: VcpuId, now: SimTime) -> Result<(), HvError> {
        self.vcpu(vcpu)?;
        self.accrue_all(now);
        let v = &mut self.vcpus[vcpu.index()];
        v.mode = VcpuMode::Idle;
        v.job = None;
        self.reschedule(now);
        Ok(())
    }

    /// A VCPU's current mode.
    pub fn mode(&self, vcpu: VcpuId) -> Result<VcpuMode, HvError> {
        Ok(self.vcpu(vcpu)?.mode)
    }

    // ----- accounting ------------------------------------------------------

    /// Total CPU time consumed by a domain across its VCPUs, accurate as of
    /// `now`. This is the XenStat data source.
    pub fn cpu_time_used(&mut self, dom: DomainId, now: SimTime) -> Result<SimDuration, HvError> {
        self.dom(dom)?;
        self.accrue_all(now);
        let ns: f64 = self
            .vcpus
            .iter()
            .filter(|v| v.dom == dom)
            .map(|v| v.accrued_ns)
            .sum();
        Ok(SimDuration::from_nanos(ns.round() as u64))
    }

    // ----- event loop ------------------------------------------------------

    /// When the next job completion is due, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.next_due().map(|(t, _)| t)
    }

    /// [`Self::next_time`] recomputed by scanning every VCPU, bypassing
    /// the memo. The reference the memo is tested against.
    pub fn next_time_uncached(&self) -> Option<SimTime> {
        self.vcpus
            .iter()
            .filter_map(|v| self.completion_time(v))
            .min()
    }

    /// The earliest job completion and its VCPU (lowest id on ties),
    /// memoized until the next state change.
    fn next_due(&self) -> Option<(SimTime, VcpuId)> {
        if let Some(due) = self.next_due.get() {
            return due;
        }
        let due = self
            .vcpus
            .iter()
            .filter_map(|v| self.completion_time(v).map(|t| (t, v.id)))
            .min();
        self.next_due.set(Some(due));
        due
    }

    /// Processes completions due at or before `now`.
    pub fn advance(&mut self, now: SimTime) -> Vec<(SimTime, HvEvent)> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Allocation-free variant of [`Self::advance`]: pushes completions into
    /// a caller-owned scratch buffer instead of returning a fresh `Vec`.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, HvEvent)>) {
        loop {
            let (t, vid) = match self.next_due() {
                Some((t, vid)) if t <= now => (t, vid),
                _ => break,
            };
            self.accrue_all(t);
            let v = &mut self.vcpus[vid.index()];
            let tag = v.job.map(|j| j.tag).unwrap_or(0);
            v.job = None;
            // The application decides what's next; until told otherwise the
            // VCPU keeps burning CPU polling (matching BenchEx servers).
            v.mode = VcpuMode::Polling;
            let dom = v.dom;
            if self.tracer.enabled() {
                let burned = self.vcpus[vid.index()].accrued_ns;
                self.tracer.instant(
                    t,
                    subsystem::HV_SCHED,
                    "job_done",
                    Scope::Domain(dom.raw()),
                    vec![("tag", tag.into())],
                );
                self.tracer.counter(
                    t,
                    subsystem::HV_SCHED,
                    "credit_burn_ns",
                    Scope::Domain(dom.raw()),
                    burned,
                );
            }
            out.push((
                t,
                HvEvent::JobDone {
                    dom,
                    vcpu: vid,
                    tag,
                },
            ));
            // Busy → Polling does not change the runnable set, so rates
            // stand; nothing to reschedule.
        }
    }

    // ----- internals --------------------------------------------------------

    /// Cap fraction applied to one VCPU: the domain's budget divided by the
    /// domain's *runnable* VCPU count (Xen's cap is a domain-wide budget).
    /// With the paper's one-VCPU-per-domain setup this equals the raw cap.
    fn cap_fraction(&self, v: &Vcpu) -> Option<f64> {
        let dom_cap = self.domains[v.dom.index()].cap_fraction()?;
        let runnable = self
            .vcpus
            .iter()
            .filter(|o| o.dom == v.dom && o.runnable())
            .count()
            .max(1);
        Some(dom_cap / runnable as f64)
    }

    /// The absolute time the VCPU's current job completes, if it has one.
    fn completion_time(&self, v: &Vcpu) -> Option<SimTime> {
        let job = v.job?;
        match self.model {
            SchedModel::Fluid => {
                if v.rate <= 0.0 {
                    None
                } else {
                    Some(fluid_finish(v.last_update, job.remaining, v.rate))
                }
            }
            SchedModel::Slice { period } => {
                let c = self.cap_fraction(v).unwrap_or(1.0);
                if c <= 0.0 {
                    None
                } else {
                    Some(slice_finish(v.last_update, job.remaining, c, period))
                }
            }
        }
    }

    /// Brings every VCPU's accounting (and job progress) up to `now`.
    fn accrue_all(&mut self, now: SimTime) {
        self.next_due.set(None);
        let model = self.model;
        for i in 0..self.vcpus.len() {
            let (dom_cap, runnable) = {
                let v = &self.vcpus[i];
                // Only the slice model reads the cap here (an O(V) scan);
                // the fluid model's rate already folds it in.
                let dom_cap = match model {
                    SchedModel::Slice { .. } => self.cap_fraction(v),
                    SchedModel::Fluid => None,
                };
                (dom_cap, v.runnable())
            };
            let v = &mut self.vcpus[i];
            if now <= v.last_update {
                continue;
            }
            if runnable {
                let served = match model {
                    SchedModel::Fluid => {
                        let dt = now.duration_since(v.last_update).as_nanos() as f64;
                        SimDuration::from_nanos((dt * v.rate).round() as u64)
                    }
                    SchedModel::Slice { period } => {
                        slice_progress(v.last_update, now, dom_cap.unwrap_or(1.0), period)
                    }
                };
                v.accrued_ns += served.as_nanos() as f64;
                if let Some(job) = &mut v.job {
                    job.remaining = job.remaining.saturating_sub(served);
                }
            }
            v.last_update = now;
        }
    }

    /// Recomputes fluid service rates after any runnable-set or knob change.
    fn reschedule(&mut self, now: SimTime) {
        self.next_due.set(None);
        if !matches!(self.model, SchedModel::Fluid) {
            return;
        }
        // Scratch buffers are taken out of `self` for the borrow checker's
        // benefit and restored at the end; steady-state this loop does not
        // allocate.
        let mut idx = std::mem::take(&mut self.sched_idx);
        let mut reqs = std::mem::take(&mut self.sched_reqs);
        let mut rates = std::mem::take(&mut self.sched_rates);
        let mut open = std::mem::take(&mut self.sched_open);
        for p in 0..self.n_pcpus {
            let pcpu = PcpuId::new(p);
            idx.clear();
            idx.extend(
                self.vcpus
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.pcpu == pcpu && v.runnable())
                    .map(|(i, _)| i),
            );
            reqs.clear();
            reqs.extend(idx.iter().map(|&i| {
                let v = &self.vcpus[i];
                ShareReq {
                    weight: self.domains[v.dom.index()].weight,
                    cap: self.cap_fraction(v),
                }
            }));
            fair_shares_into(&reqs, &mut rates, &mut open);
            for (&i, &r) in idx.iter().zip(rates.iter()) {
                let changed = self.vcpus[i].rate != r;
                self.vcpus[i].rate = r;
                // A rate drop while runnable is the fluid model's analogue
                // of a preemption: the scheduler took capacity away.
                if changed && self.tracer.enabled() {
                    self.tracer.counter(
                        now,
                        subsystem::HV_SCHED,
                        "cpu_rate",
                        Scope::Domain(self.vcpus[i].dom.raw()),
                        r,
                    );
                }
            }
            // Non-runnable VCPUs have no rate.
            for v in self.vcpus.iter_mut() {
                if v.pcpu == pcpu && !v.runnable() {
                    v.rate = 0.0;
                }
            }
        }
        self.sched_idx = idx;
        self.sched_reqs = reqs;
        self.sched_rates = rates;
        self.sched_open = open;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv_one_vm() -> (Hypervisor, DomainId, VcpuId) {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p = hv.add_pcpu();
        let _dom0 = hv.create_domain("dom0", 1 << 20, true);
        let dom = hv.create_domain("vm1", 1 << 20, false);
        let v = hv.add_vcpu(dom, p, SimTime::ZERO).unwrap();
        (hv, dom, v)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn uncapped_job_runs_at_full_speed() {
        let (mut hv, dom, v) = hv_one_vm();
        hv.start_job(v, SimDuration::from_millis(5), 42, SimTime::ZERO)
            .unwrap();
        assert_eq!(hv.next_time(), Some(ms(5)));
        let ev = hv.advance(ms(5));
        assert_eq!(
            ev,
            vec![(
                ms(5),
                HvEvent::JobDone {
                    dom,
                    vcpu: v,
                    tag: 42
                }
            )]
        );
        assert_eq!(hv.mode(v).unwrap(), VcpuMode::Polling);
    }

    #[test]
    fn cap_slows_job_proportionally() {
        let (mut hv, dom, v) = hv_one_vm();
        hv.set_cap(dom, 25, SimTime::ZERO).unwrap();
        hv.start_job(v, SimDuration::from_millis(5), 1, SimTime::ZERO)
            .unwrap();
        // 5 ms of CPU at 25% = 20 ms of wall time.
        assert_eq!(hv.next_time(), Some(ms(20)));
    }

    #[test]
    fn cap_change_mid_job_recomputes() {
        let (mut hv, dom, v) = hv_one_vm();
        hv.start_job(v, SimDuration::from_millis(10), 1, SimTime::ZERO)
            .unwrap();
        // Half done at 5 ms, then capped to 50%: the remaining 5 ms of CPU
        // takes 10 ms of wall time.
        assert!(hv.advance(ms(5)).is_empty());
        hv.set_cap(dom, 50, ms(5)).unwrap();
        assert_eq!(hv.next_time(), Some(ms(15)));
        let ev = hv.advance(ms(15));
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn uncapping_speeds_up() {
        let (mut hv, dom, v) = hv_one_vm();
        hv.set_cap(dom, 10, SimTime::ZERO).unwrap();
        hv.start_job(v, SimDuration::from_millis(1), 1, SimTime::ZERO)
            .unwrap();
        assert_eq!(hv.next_time(), Some(ms(10)));
        hv.set_cap(dom, 0, ms(5)).unwrap(); // uncap half-way: 0.5ms left
        assert_eq!(hv.next_time(), Some(SimTime::from_micros(5500)));
    }

    #[test]
    fn polling_burns_cpu_without_events() {
        let (mut hv, dom, v) = hv_one_vm();
        hv.set_polling(v, SimTime::ZERO).unwrap();
        assert_eq!(hv.next_time(), None);
        assert!(hv.advance(ms(100)).is_empty());
        let used = hv.cpu_time_used(dom, ms(100)).unwrap();
        assert_eq!(used, SimDuration::from_millis(100));
    }

    #[test]
    fn idle_consumes_nothing() {
        let (mut hv, dom, _v) = hv_one_vm();
        let used = hv.cpu_time_used(dom, ms(50)).unwrap();
        assert_eq!(used, SimDuration::ZERO);
    }

    #[test]
    fn capped_polling_accounts_at_cap() {
        let (mut hv, dom, v) = hv_one_vm();
        hv.set_cap(dom, 40, SimTime::ZERO).unwrap();
        hv.set_polling(v, SimTime::ZERO).unwrap();
        let used = hv.cpu_time_used(dom, ms(100)).unwrap();
        assert_eq!(used, SimDuration::from_millis(40));
    }

    #[test]
    fn two_vms_share_one_pcpu_by_weight() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let a = hv.create_domain("a", 1 << 20, false);
        let b = hv.create_domain("b", 1 << 20, false);
        let va = hv.add_vcpu(a, p, SimTime::ZERO).unwrap();
        let vb = hv.add_vcpu(b, p, SimTime::ZERO).unwrap();
        hv.set_weight(a, 100, SimTime::ZERO).unwrap();
        hv.set_weight(b, 300, SimTime::ZERO).unwrap();
        hv.set_polling(va, SimTime::ZERO).unwrap();
        hv.set_polling(vb, SimTime::ZERO).unwrap();
        assert_eq!(
            hv.cpu_time_used(a, ms(100)).unwrap(),
            SimDuration::from_millis(25)
        );
        assert_eq!(
            hv.cpu_time_used(b, ms(100)).unwrap(),
            SimDuration::from_millis(75)
        );
    }

    #[test]
    fn contender_going_idle_frees_capacity() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let a = hv.create_domain("a", 1 << 20, false);
        let b = hv.create_domain("b", 1 << 20, false);
        let va = hv.add_vcpu(a, p, SimTime::ZERO).unwrap();
        let vb = hv.add_vcpu(b, p, SimTime::ZERO).unwrap();
        hv.set_polling(va, SimTime::ZERO).unwrap();
        hv.set_polling(vb, SimTime::ZERO).unwrap();
        // Equal shares for 10 ms, then b blocks.
        hv.set_idle(vb, ms(10)).unwrap();
        assert_eq!(
            hv.cpu_time_used(a, ms(20)).unwrap(),
            SimDuration::from_millis(5 + 10),
            "5 ms shared + 10 ms alone"
        );
        assert_eq!(
            hv.cpu_time_used(b, ms(20)).unwrap(),
            SimDuration::from_millis(5)
        );
    }

    #[test]
    fn slice_model_job_completion() {
        let mut hv = Hypervisor::new(SchedModel::Slice {
            period: SimDuration::from_millis(10),
        });
        let p = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let dom = hv.create_domain("vm", 1 << 20, false);
        let v = hv.add_vcpu(dom, p, SimTime::ZERO).unwrap();
        hv.set_cap(dom, 25, SimTime::ZERO).unwrap();
        hv.start_job(v, SimDuration::from_millis(5), 9, SimTime::ZERO)
            .unwrap();
        // 5 ms of CPU at 2.5 ms per 10 ms window: done at 12.5 ms.
        assert_eq!(hv.next_time(), Some(SimTime::from_micros(12_500)));
        let ev = hv.advance(ms(13));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].0, SimTime::from_micros(12_500));
    }

    #[test]
    fn slice_model_rejects_overcommit() {
        let mut hv = Hypervisor::new(SchedModel::Slice {
            period: SimDuration::from_millis(10),
        });
        let p = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let a = hv.create_domain("a", 1 << 20, false);
        let b = hv.create_domain("b", 1 << 20, false);
        hv.add_vcpu(a, p, SimTime::ZERO).unwrap();
        assert!(matches!(
            hv.add_vcpu(b, p, SimTime::ZERO),
            Err(HvError::PcpuOvercommitted(_))
        ));
    }

    #[test]
    fn fluid_and_slice_agree_on_long_run_usage() {
        let run = |model| {
            let mut hv = Hypervisor::new(model);
            let p = hv.add_pcpu();
            let _d0 = hv.create_domain("dom0", 1 << 20, true);
            let dom = hv.create_domain("vm", 1 << 20, false);
            let v = hv.add_vcpu(dom, p, SimTime::ZERO).unwrap();
            hv.set_cap(dom, 30, SimTime::ZERO).unwrap();
            hv.set_polling(v, SimTime::ZERO).unwrap();
            hv.cpu_time_used(dom, SimTime::from_secs(1)).unwrap()
        };
        let fluid = run(SchedModel::Fluid);
        let slice = run(SchedModel::Slice {
            period: SimDuration::from_millis(10),
        });
        assert_eq!(fluid, slice, "both give 300 ms per second at cap 30");
    }

    #[test]
    fn busy_vcpu_rejects_second_job() {
        let (mut hv, _dom, v) = hv_one_vm();
        hv.start_job(v, SimDuration::from_millis(1), 1, SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            hv.start_job(v, SimDuration::from_millis(1), 2, SimTime::ZERO),
            Err(HvError::VcpuBusy(_))
        ));
    }

    #[test]
    fn cap_validation() {
        let (mut hv, dom, _v) = hv_one_vm();
        assert!(hv.set_cap(dom, 101, SimTime::ZERO).is_err());
        assert!(hv.set_cap(dom, 100, SimTime::ZERO).is_ok());
        assert!(hv.set_weight(dom, 0, SimTime::ZERO).is_err());
    }

    #[test]
    fn back_to_back_jobs() {
        let (mut hv, dom, v) = hv_one_vm();
        hv.start_job(v, SimDuration::from_millis(2), 1, SimTime::ZERO)
            .unwrap();
        let ev = hv.advance(ms(2));
        assert_eq!(ev.len(), 1);
        hv.start_job(v, SimDuration::from_millis(3), 2, ms(2))
            .unwrap();
        let ev = hv.advance(ms(5));
        assert_eq!(
            ev,
            vec![(
                ms(5),
                HvEvent::JobDone {
                    dom,
                    vcpu: v,
                    tag: 2
                }
            )]
        );
        // Total CPU: 2 + 3 ms of busy work.
        assert_eq!(
            hv.cpu_time_used(dom, ms(5)).unwrap(),
            SimDuration::from_millis(5)
        );
    }
}

#[cfg(test)]
mod domain_cap_tests {
    use super::*;
    use crate::sched::SchedModel;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// Xen semantics: the cap is a domain budget, split across the
    /// domain's runnable VCPUs.
    #[test]
    fn cap_splits_across_runnable_vcpus() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p0 = hv.add_pcpu();
        let p1 = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let dom = hv.create_domain("wide", 1 << 20, false);
        let v0 = hv.add_vcpu(dom, p0, SimTime::ZERO).unwrap();
        let v1 = hv.add_vcpu(dom, p1, SimTime::ZERO).unwrap();
        hv.set_cap(dom, 100, SimTime::ZERO).unwrap();
        hv.set_polling(v0, SimTime::ZERO).unwrap();
        hv.set_polling(v1, SimTime::ZERO).unwrap();
        // 100% budget over two runnable VCPUs → 50% each → 100 ms total
        // CPU time over a 100 ms window.
        let used = hv.cpu_time_used(dom, ms(100)).unwrap();
        assert_eq!(used, SimDuration::from_millis(100));
    }

    #[test]
    fn idle_sibling_frees_the_whole_budget() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p0 = hv.add_pcpu();
        let p1 = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let dom = hv.create_domain("wide", 1 << 20, false);
        let v0 = hv.add_vcpu(dom, p0, SimTime::ZERO).unwrap();
        let _v1 = hv.add_vcpu(dom, p1, SimTime::ZERO).unwrap();
        hv.set_cap(dom, 80, SimTime::ZERO).unwrap();
        // Only v0 runs: it may use the domain's whole 80% budget.
        hv.set_polling(v0, SimTime::ZERO).unwrap();
        let used = hv.cpu_time_used(dom, ms(100)).unwrap();
        assert_eq!(used, SimDuration::from_millis(80));
    }

    #[test]
    fn caps_above_100_for_multi_vcpu_domains() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p0 = hv.add_pcpu();
        let p1 = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let dom = hv.create_domain("wide", 1 << 20, false);
        let v0 = hv.add_vcpu(dom, p0, SimTime::ZERO).unwrap();
        let v1 = hv.add_vcpu(dom, p1, SimTime::ZERO).unwrap();
        // 150% on a 2-VCPU domain is legal (Xen allows up to vcpus×100)…
        hv.set_cap(dom, 150, SimTime::ZERO).unwrap();
        hv.set_polling(v0, SimTime::ZERO).unwrap();
        hv.set_polling(v1, SimTime::ZERO).unwrap();
        let used = hv.cpu_time_used(dom, ms(100)).unwrap();
        assert_eq!(used, SimDuration::from_millis(150), "75% per VCPU");
        // …but 250% is not.
        assert!(hv.set_cap(dom, 250, SimTime::ZERO).is_err());
    }

    #[test]
    fn single_vcpu_semantics_unchanged() {
        // The paper's configuration must behave exactly as before.
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let dom = hv.create_domain("vm", 1 << 20, false);
        let v = hv.add_vcpu(dom, p, SimTime::ZERO).unwrap();
        hv.set_cap(dom, 25, SimTime::ZERO).unwrap();
        hv.set_polling(v, SimTime::ZERO).unwrap();
        assert_eq!(
            hv.cpu_time_used(dom, ms(100)).unwrap(),
            SimDuration::from_millis(25)
        );
    }
}
