//! XenControl-style privileged operations.
//!
//! The paper's IBMon maps guest pages into dom0 with
//! `xc_map_foreign_range`; ResEx sets caps through the privileged scheduler
//! interface. Both operations require the caller to be a privileged domain,
//! which is the entire security model of the introspection path — this
//! module enforces it.

use crate::domain::DomainId;
use crate::error::HvError;
use crate::hypervisor::Hypervisor;
use resex_simcore::time::SimTime;
use resex_simmem::{ForeignMapping, Gpa};

impl Hypervisor {
    /// Maps `[gpa, gpa+len)` of `target`'s memory read-only into `caller`'s
    /// address space — the simulated `xc_map_foreign_range`.
    ///
    /// Fails with [`HvError::NotPrivileged`] unless `caller` is privileged.
    pub fn map_foreign_range(
        &self,
        caller: DomainId,
        target: DomainId,
        gpa: Gpa,
        len: usize,
    ) -> Result<ForeignMapping, HvError> {
        if !self.is_privileged(caller)? {
            return Err(HvError::NotPrivileged(caller));
        }
        let mem = self.domain_memory(target)?;
        Ok(ForeignMapping::map(&mem, gpa, len)?)
    }

    /// Privileged cap-setting: the actuation path ResEx uses
    /// (`SetVMCap` in the paper's pseudo-code).
    pub fn privileged_set_cap(
        &mut self,
        caller: DomainId,
        target: DomainId,
        cap_pct: u32,
        now: SimTime,
    ) -> Result<(), HvError> {
        if !self.is_privileged(caller)? {
            return Err(HvError::NotPrivileged(caller));
        }
        if self.actuation_fails(now) {
            return Err(HvError::ActuationFailed(target));
        }
        self.set_cap(target, cap_pct, now)
    }

    /// Privileged cap-setting through the slow-but-reliable reset path —
    /// the escalation the manager watchdog takes after repeated
    /// [`HvError::ActuationFailed`]s on the fast path. Models tearing the
    /// stuck scheduler channel down and re-issuing the hypercall
    /// synchronously, which cannot hit the transient actuation fault
    /// (and draws nothing from the fault stream, so a clean run that
    /// never calls it is byte-identical to one that couldn't).
    pub fn privileged_force_cap(
        &mut self,
        caller: DomainId,
        target: DomainId,
        cap_pct: u32,
        now: SimTime,
    ) -> Result<(), HvError> {
        if !self.is_privileged(caller)? {
            return Err(HvError::NotPrivileged(caller));
        }
        self.set_cap(target, cap_pct, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedModel;

    fn setup() -> (Hypervisor, DomainId, DomainId) {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        hv.add_pcpu();
        let dom0 = hv.create_domain("dom0", 1 << 20, true);
        let domu = hv.create_domain("vm", 1 << 20, false);
        (hv, dom0, domu)
    }

    #[test]
    fn dom0_can_map_guest_memory() {
        let (hv, dom0, domu) = setup();
        let mem = hv.domain_memory(domu).unwrap();
        mem.write(Gpa::new(128), &[1, 2, 3]).unwrap();
        let map = hv.map_foreign_range(dom0, domu, Gpa::new(0), 4096).unwrap();
        let mut buf = [0u8; 3];
        map.read_at(128, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn guest_cannot_map_other_guests() {
        let (hv, _dom0, domu) = setup();
        let err = hv
            .map_foreign_range(domu, domu, Gpa::new(0), 4096)
            .unwrap_err();
        assert!(matches!(err, HvError::NotPrivileged(_)));
    }

    #[test]
    fn privileged_cap_path() {
        let (mut hv, dom0, domu) = setup();
        hv.privileged_set_cap(dom0, domu, 25, SimTime::ZERO)
            .unwrap();
        assert_eq!(hv.cap(domu).unwrap(), 25);
        assert!(matches!(
            hv.privileged_set_cap(domu, domu, 50, SimTime::ZERO),
            Err(HvError::NotPrivileged(_))
        ));
    }

    #[test]
    fn injected_actuation_failure_is_typed_and_leaves_the_cap_alone() {
        use resex_faults::{FaultSchedule, FaultSpec};
        let (mut hv, dom0, domu) = setup();
        hv.privileged_set_cap(dom0, domu, 40, SimTime::ZERO)
            .unwrap();
        hv.install_faults(FaultSchedule::from(FaultSpec {
            cap_fail: 1.0,
            ..FaultSpec::default()
        }));
        let err = hv
            .privileged_set_cap(dom0, domu, 10, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, HvError::ActuationFailed(d) if d == domu));
        assert_eq!(hv.cap(domu).unwrap(), 40, "failed actuation is a no-op");
        assert_eq!(hv.fault_stats().cap_failures, 1);
    }

    #[test]
    fn force_cap_bypasses_injected_actuation_faults_but_not_privilege() {
        use resex_faults::{FaultSchedule, FaultSpec};
        let (mut hv, dom0, domu) = setup();
        hv.install_faults(FaultSchedule::from(FaultSpec {
            cap_fail: 1.0,
            ..FaultSpec::default()
        }));
        assert!(matches!(
            hv.privileged_set_cap(dom0, domu, 10, SimTime::ZERO),
            Err(HvError::ActuationFailed(_))
        ));
        hv.privileged_force_cap(dom0, domu, 10, SimTime::ZERO)
            .unwrap();
        assert_eq!(hv.cap(domu).unwrap(), 10, "force path lands the cap");
        assert!(matches!(
            hv.privileged_force_cap(domu, domu, 50, SimTime::ZERO),
            Err(HvError::NotPrivileged(_))
        ));
    }

    #[test]
    fn zero_rate_schedule_never_fails_actuations() {
        use resex_faults::FaultSchedule;
        let (mut hv, dom0, domu) = setup();
        hv.install_faults(FaultSchedule::default());
        for i in 0..50u64 {
            hv.privileged_set_cap(dom0, domu, 25, SimTime::from_millis(i))
                .unwrap();
        }
    }
}
