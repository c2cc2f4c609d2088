//! The IBMon service: per-VM usage estimation.
//!
//! One [`IbMon`] instance runs (conceptually) in dom0. For each monitored
//! VM it holds [`CqMonitor`]s over the VM's completion-queue rings (mapped
//! via the hypervisor's foreign-mapping interface) and rolls their scans up
//! into per-VM usage estimates: MTUs sent per interval, byte rates, and the
//! VM's apparent application buffer size — everything the ResEx pricing
//! loop consumes (`GetMTUs` in the paper's pseudo-code).
//!
//! The per-VM table is an [`IdMap`] indexed by domain id: lookups are a
//! bounds check.

use crate::cq_monitor::{CqMonitor, ScanSample};
use resex_faults::{FaultSchedule, FaultStats, IbmonFaults};
use resex_hypervisor::{DomainId, Hypervisor};
use resex_simcore::ids::IdMap;
use resex_simcore::stats::Ewma;
use resex_simcore::time::{SimDuration, SimTime};
use resex_simcore::WindowedRate;
use resex_simmem::Gpa;
use resex_simmem::MemError;
use serde::{Deserialize, Serialize};

/// Per-interval usage estimate for one VM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct VmUsage {
    /// MTUs sent since the previous sample (the paper's `MTUSent` metric).
    pub mtus: u64,
    /// Bytes sent since the previous sample.
    pub bytes: u64,
    /// Completions since the previous sample.
    pub completions: u64,
    /// Smoothed estimate of the application's buffer size in bytes
    /// (bytes / completion) — the input to buffer-ratio policies.
    pub est_buffer_size: f64,
    /// MTU rate over the trailing window, per second.
    pub mtu_rate: f64,
    /// True if any underlying ring scan detected aliasing this interval.
    pub aliased: bool,
    /// True when this sample is degraded: the whole scan was skipped (the
    /// fields repeat the last fresh sample) or at least one ring read
    /// through a stale foreign mapping. Consumers should fall back to
    /// last-known rates instead of trusting the counts.
    #[serde(default)]
    pub stale: bool,
}

/// IBMon configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IbMonConfig {
    /// MTU size used to convert bytes to MTUs (paper default: 1 KiB).
    pub mtu: u32,
    /// Length of the trailing rate window.
    pub rate_window: SimDuration,
    /// Smoothing factor for the buffer-size estimate.
    pub buffer_ewma_alpha: f64,
}

impl Default for IbMonConfig {
    fn default() -> Self {
        IbMonConfig {
            mtu: 1024,
            rate_window: SimDuration::from_millis(100),
            buffer_ewma_alpha: 0.2,
        }
    }
}

struct VmMonitor {
    cqs: Vec<CqMonitor>,
    mtu_window: WindowedRate,
    buffer_est: Ewma,
    /// Last fully fresh sample, replayed (flagged stale) when a scan is
    /// skipped by fault injection.
    last: VmUsage,
}

/// The dom0 monitoring service.
pub struct IbMon {
    cfg: IbMonConfig,
    vms: IdMap<DomainId, VmMonitor>,
    /// Telemetry fault injectors; `None` (the default) draws nothing and
    /// keeps fault-free runs byte-identical to pre-fault builds.
    faults: Option<IbmonFaults>,
}

impl IbMon {
    /// Creates an empty monitor.
    pub fn new(cfg: IbMonConfig) -> Self {
        IbMon {
            cfg,
            vms: IdMap::new(),
            faults: None,
        }
    }

    /// Arms deterministic telemetry faults (scan skips, stale mappings,
    /// torn CQE reads). A schedule with all rates zero is ignored.
    pub fn install_faults(&mut self, schedule: FaultSchedule) {
        if schedule.enabled() {
            self.faults = Some(IbmonFaults::new(schedule));
        }
    }

    /// Tally of telemetry faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Registers a VM's CQ ring for monitoring, mapping it through the
    /// hypervisor as `caller` (must be privileged, i.e. dom0).
    pub fn watch_cq(
        &mut self,
        hv: &Hypervisor,
        caller: DomainId,
        target: DomainId,
        ring_gpa: Gpa,
        capacity: u32,
    ) -> Result<(), String> {
        let mapping = hv
            .map_foreign_range(
                caller,
                target,
                ring_gpa,
                capacity as usize * resex_fabric::CQE_SIZE,
            )
            .map_err(|e| e.to_string())?;
        let mon = CqMonitor::new(mapping, capacity, self.cfg.mtu).map_err(|e| e.to_string())?;
        self.vms
            .get_or_insert_with(target, || VmMonitor {
                // The platform watches one ring (the send CQ) per VM.
                cqs: Vec::with_capacity(1),
                mtu_window: WindowedRate::new(self.cfg.rate_window),
                buffer_est: Ewma::new(self.cfg.buffer_ewma_alpha),
                last: VmUsage::default(),
            })
            .cqs
            .push(mon);
        Ok(())
    }

    /// Scans all of one VM's rings and returns the interval usage.
    pub fn sample_vm(&mut self, dom: DomainId, now: SimTime) -> Result<VmUsage, MemError> {
        let vm = match self.vms.get_mut(&dom) {
            Some(vm) => vm,
            None => return Ok(VmUsage::default()),
        };
        if let Some(f) = self.faults.as_mut() {
            if f.skip_scan(now) {
                // Whole sample lost: replay the last fresh numbers, flagged
                // so consumers discount them.
                return Ok(VmUsage {
                    stale: true,
                    ..vm.last
                });
            }
        }
        let mut agg = ScanSample::default();
        let mut degraded = false;
        for cq in &mut vm.cqs {
            let tear = match self.faults.as_mut() {
                Some(f) => {
                    if f.stale_mapping(now) {
                        // The foreign mapping re-read old page contents:
                        // this ring contributes nothing this interval and
                        // the aggregate is marked stale.
                        degraded = true;
                        continue;
                    }
                    f.torn_slot(now, cq.capacity())
                }
                None => None,
            };
            let s = cq.scan_faulted(now, tear)?;
            agg.completions += s.completions;
            agg.bytes += s.bytes;
            agg.mtus += s.mtus;
            agg.slots_changed += s.slots_changed;
            agg.aliased |= s.aliased;
            agg.torn += s.torn;
        }
        vm.mtu_window.record(now, agg.mtus);
        if agg.completions > 0 {
            vm.buffer_est
                .push(agg.bytes as f64 / agg.completions as f64);
        }
        let usage = VmUsage {
            mtus: agg.mtus,
            bytes: agg.bytes,
            completions: agg.completions,
            est_buffer_size: vm.buffer_est.value_or(0.0),
            mtu_rate: vm.mtu_window.rate_per_sec(now),
            aliased: agg.aliased,
            stale: degraded,
        };
        if !degraded {
            vm.last = usage;
        }
        Ok(usage)
    }

    /// Lifetime MTU count attributed to a VM.
    pub fn lifetime_mtus(&self, dom: DomainId) -> u64 {
        self.vms
            .get(&dom)
            .map_or(0, |v| v.mtu_window.lifetime_count())
    }
}

/// Result of cross-checking a ring-scan MTU estimate against a trusted
/// per-QP completion counter (see [`crosscheck_mtus`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrosscheckOutcome {
    /// The MTU figure to charge from: the scan estimate normally, the
    /// counter-derived delta when poisoning was detected.
    pub corrected_mtus: u64,
    /// True if the scan estimate was rejected as poisoned.
    pub poisoned: bool,
}

/// Minimum counter-derived MTU delta before a shortfall counts as
/// poisoning: tiny-traffic intervals disagree for benign reasons (scan
/// phase, primed rings) and are never worth correcting.
pub const CROSSCHECK_MIN_MTUS: u64 = 16;

/// The ring scan must account for at least this fraction of the
/// counter-derived MTUs; below it, the estimate is treated as poisoned.
/// Aliased-scan extrapolation is routinely off by tens of percent under
/// honest load — a shortfall past 2× only occurs when the surviving slots
/// systematically misrepresent the wrapped traffic.
pub const CROSSCHECK_MIN_SCAN_FRACTION: f64 = 0.5;

/// Hardening vs telemetry poisoning: validate a per-interval ring-scan MTU
/// estimate (`scan_mtus`) against the MTU delta derived from the fabric's
/// per-QP completion counters (`counter_mtus`), which an attacker cannot
/// influence by repainting ring slots. Returns the figure the manager
/// should charge from. Pure and deterministic — callers decide what to do
/// with the detection flag (trace it, count it).
pub fn crosscheck_mtus(scan_mtus: u64, counter_mtus: u64) -> CrosscheckOutcome {
    let poisoned = counter_mtus >= CROSSCHECK_MIN_MTUS
        && (scan_mtus as f64) < counter_mtus as f64 * CROSSCHECK_MIN_SCAN_FRACTION;
    CrosscheckOutcome {
        corrected_mtus: if poisoned { counter_mtus } else { scan_mtus },
        poisoned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resex_fabric::{CompletionQueue, CqNum, Cqe, Opcode, QpNum, WcStatus, CQE_SIZE};
    use resex_hypervisor::SchedModel;

    fn t(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// Builds an hv with dom0 + one guest whose memory holds a CQ ring.
    fn setup() -> (Hypervisor, DomainId, DomainId, CompletionQueue, Gpa) {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        hv.add_pcpu();
        let dom0 = hv.create_domain("dom0", 1 << 20, true);
        let vm = hv.create_domain("vm1", 1 << 20, false);
        let mem = hv.domain_memory(vm).unwrap();
        let gpa = mem.alloc_bytes(64 * CQE_SIZE as u64).unwrap();
        let cq = CompletionQueue::new(CqNum::new(0), mem, gpa, 64).unwrap();
        (hv, dom0, vm, cq, gpa)
    }

    fn push(cq: &mut CompletionQueue, counter: u16, byte_len: u32) {
        cq.push(Cqe {
            wr_id: counter as u64,
            qp_num: QpNum::new(1),
            byte_len,
            wqe_counter: counter,
            opcode: Opcode::Send,
            status: WcStatus::Success,
            imm_data: 0,
        })
        .unwrap();
        cq.poll().unwrap();
    }

    #[test]
    fn end_to_end_usage_estimation() {
        let (hv, dom0, vm, mut cq, gpa) = setup();
        let mut ibmon = IbMon::new(IbMonConfig::default());
        ibmon.watch_cq(&hv, dom0, vm, gpa, 64).unwrap();
        ibmon.sample_vm(vm, t(0)).unwrap(); // prime

        // The VM "sends" 10 × 64 KiB buffers.
        for i in 0..10 {
            push(&mut cq, i, 65536);
        }
        let u = ibmon.sample_vm(vm, t(1)).unwrap();
        assert_eq!(u.completions, 10);
        assert_eq!(u.mtus, 640);
        assert_eq!(u.bytes, 10 * 65536);
        assert!((u.est_buffer_size - 65536.0).abs() < 1.0);
        assert!(!u.aliased);
        assert_eq!(ibmon.lifetime_mtus(vm), 640);
    }

    #[test]
    fn unprivileged_caller_cannot_watch() {
        let (hv, _dom0, vm, _cq, gpa) = setup();
        let mut ibmon = IbMon::new(IbMonConfig::default());
        let err = ibmon.watch_cq(&hv, vm, vm, gpa, 64).unwrap_err();
        assert!(err.contains("privileged"));
    }

    #[test]
    fn unmonitored_vm_reads_zero() {
        let (_hv, _dom0, vm, _cq, _gpa) = setup();
        let mut ibmon = IbMon::new(IbMonConfig::default());
        let u = ibmon.sample_vm(vm, t(0)).unwrap();
        assert_eq!(u, VmUsage::default());
    }

    #[test]
    fn buffer_estimate_tracks_workload_change() {
        let (hv, dom0, vm, mut cq, gpa) = setup();
        let mut ibmon = IbMon::new(IbMonConfig::default());
        ibmon.watch_cq(&hv, dom0, vm, gpa, 64).unwrap();
        ibmon.sample_vm(vm, t(0)).unwrap();
        let mut counter = 0u16;
        // 64 KiB phase.
        for interval in 1..=5u64 {
            for _ in 0..4 {
                push(&mut cq, counter, 65536);
                counter += 1;
            }
            ibmon.sample_vm(vm, t(interval)).unwrap();
        }
        // Switch to 2 MiB responses: estimate should move toward 2 MiB.
        let mut last = VmUsage::default();
        for interval in 6..=40u64 {
            for _ in 0..4 {
                push(&mut cq, counter, 2 * 1024 * 1024);
                counter += 1;
            }
            last = ibmon.sample_vm(vm, t(interval)).unwrap();
        }
        assert!(
            last.est_buffer_size > 1.9 * 1024.0 * 1024.0,
            "est={}",
            last.est_buffer_size
        );
    }

    #[test]
    fn skipped_scan_replays_last_sample_as_stale() {
        use resex_faults::{FaultSchedule, FaultSpec};
        let (hv, dom0, vm, mut cq, gpa) = setup();
        let mut ibmon = IbMon::new(IbMonConfig::default());
        ibmon.watch_cq(&hv, dom0, vm, gpa, 64).unwrap();
        ibmon.install_faults(FaultSchedule::from(FaultSpec {
            scan_skip: 1.0,
            ..FaultSpec::default()
        }));
        let u = ibmon.sample_vm(vm, t(0)).unwrap();
        assert!(u.stale);
        push(&mut cq, 0, 65536);
        let u = ibmon.sample_vm(vm, t(1)).unwrap();
        assert!(u.stale);
        assert_eq!(u.completions, 0, "activity invisible while scans skip");
        assert_eq!(ibmon.fault_stats().scan_skips, 2);
    }

    #[test]
    fn stale_mapping_blanks_the_ring_and_flags_the_sample() {
        use resex_faults::{FaultSchedule, FaultSpec};
        let (hv, dom0, vm, mut cq, gpa) = setup();
        let mut ibmon = IbMon::new(IbMonConfig::default());
        ibmon.watch_cq(&hv, dom0, vm, gpa, 64).unwrap();
        ibmon.install_faults(FaultSchedule::from(FaultSpec {
            stale_mapping: 1.0,
            ..FaultSpec::default()
        }));
        push(&mut cq, 0, 65536);
        let u = ibmon.sample_vm(vm, t(0)).unwrap();
        assert!(u.stale);
        assert_eq!(u.mtus, 0, "stale mapping re-reads old page contents");
        assert!(ibmon.fault_stats().stale_scans >= 1);
    }

    #[test]
    fn zero_rate_schedule_is_inert() {
        use resex_faults::FaultSchedule;
        let (hv, dom0, vm, mut cq, gpa) = setup();
        let mut ibmon = IbMon::new(IbMonConfig::default());
        ibmon.watch_cq(&hv, dom0, vm, gpa, 64).unwrap();
        ibmon.install_faults(FaultSchedule::default());
        ibmon.sample_vm(vm, t(0)).unwrap();
        push(&mut cq, 0, 65536);
        let u = ibmon.sample_vm(vm, t(1)).unwrap();
        assert!(!u.stale);
        assert_eq!(u.completions, 1);
        assert_eq!(ibmon.fault_stats(), resex_faults::FaultStats::default());
    }

    #[test]
    fn mtu_rate_reflects_window() {
        let (hv, dom0, vm, mut cq, gpa) = setup();
        let mut ibmon = IbMon::new(IbMonConfig::default());
        ibmon.watch_cq(&hv, dom0, vm, gpa, 64).unwrap();
        ibmon.sample_vm(vm, t(0)).unwrap();
        // 100 intervals of 1 ms, 64 MTUs each → 64k MTUs/s.
        let mut last = VmUsage::default();
        for i in 1..=100u64 {
            push(&mut cq, (i - 1) as u16, 65536);
            last = ibmon.sample_vm(vm, t(i)).unwrap();
        }
        assert!(
            (last.mtu_rate - 64_000.0).abs() < 1500.0,
            "rate={}",
            last.mtu_rate
        );
    }
}

#[cfg(test)]
mod multi_ring_tests {
    use super::*;
    use resex_fabric::{CompletionQueue, CqNum, Cqe, Opcode, QpNum, WcStatus, CQE_SIZE};
    use resex_hypervisor::SchedModel;

    /// A VM with two monitored rings (e.g. two QPs' send CQs): samples
    /// aggregate across both.
    #[test]
    fn aggregates_across_multiple_rings() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        hv.add_pcpu();
        let dom0 = hv.create_domain("dom0", 1 << 20, true);
        let vm = hv.create_domain("vm", 1 << 20, false);
        let mem = hv.domain_memory(vm).unwrap();
        let gpa_a = mem.alloc_bytes(32 * CQE_SIZE as u64).unwrap();
        let gpa_b = mem.alloc_bytes(32 * CQE_SIZE as u64).unwrap();
        let mut cq_a = CompletionQueue::new(CqNum::new(0), mem.clone(), gpa_a, 32).unwrap();
        let mut cq_b = CompletionQueue::new(CqNum::new(1), mem, gpa_b, 32).unwrap();

        let mut ibmon = IbMon::new(IbMonConfig::default());
        ibmon.watch_cq(&hv, dom0, vm, gpa_a, 32).unwrap();
        ibmon.watch_cq(&hv, dom0, vm, gpa_b, 32).unwrap();
        ibmon.sample_vm(vm, SimTime::ZERO).unwrap();

        let push = |cq: &mut CompletionQueue, qp: u32, counter: u16, len: u32| {
            cq.push(Cqe {
                wr_id: counter as u64,
                qp_num: QpNum::new(qp),
                byte_len: len,
                wqe_counter: counter,
                opcode: Opcode::Send,
                status: WcStatus::Success,
                imm_data: 0,
            })
            .unwrap();
            cq.poll().unwrap();
        };
        // 3 × 64 KiB on ring A, 2 × 128 KiB on ring B.
        for i in 0..3 {
            push(&mut cq_a, 1, i, 65536);
        }
        for i in 0..2 {
            push(&mut cq_b, 2, i, 131072);
        }
        let u = ibmon.sample_vm(vm, SimTime::from_millis(1)).unwrap();
        assert_eq!(u.completions, 5);
        assert_eq!(u.bytes, 3 * 65536 + 2 * 131072);
        assert_eq!(u.mtus, 3 * 64 + 2 * 128);
    }
    #[test]
    fn crosscheck_accepts_honest_estimates_and_rejects_poisoned_ones() {
        // Honest: scan and counters agree (or the scan is merely noisy).
        assert_eq!(
            crosscheck_mtus(1000, 1000),
            CrosscheckOutcome {
                corrected_mtus: 1000,
                poisoned: false
            }
        );
        assert!(!crosscheck_mtus(700, 1000).poisoned);
        // Poisoned: the scan accounts for under half the counter delta.
        let c = crosscheck_mtus(100, 1000);
        assert!(c.poisoned);
        assert_eq!(c.corrected_mtus, 1000, "charge from the counters");
        // Tiny intervals never trip the detector.
        assert!(!crosscheck_mtus(0, CROSSCHECK_MIN_MTUS - 1).poisoned);
        // A scan that *over*-reports is left alone (aliasing scale-up).
        assert!(!crosscheck_mtus(1500, 1000).poisoned);
    }
}
