//! XenStat-style CPU accounting.
//!
//! The paper: *"We use the XenStat library to interact with the Xen
//! hypervisor. This library allows us to get and set the CPU consumed by
//! the VM."* ResEx samples per-domain CPU usage once per charging interval;
//! [`XenStat`] provides exactly that: differences of the hypervisor's
//! cumulative CPU-time counters between samples, expressed as a percentage
//! of one PCPU.

use crate::domain::DomainId;
use crate::error::HvError;
use crate::hypervisor::Hypervisor;
use resex_simcore::ids::IdMap;
use resex_simcore::time::{SimDuration, SimTime};

/// A sampling window over hypervisor CPU counters.
pub struct XenStat {
    last_sample: IdMap<DomainId, SimDuration>,
    last_time: Option<SimTime>,
}

/// One domain's usage during a sampling window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuUsage {
    /// CPU time consumed during the window.
    pub time: SimDuration,
    /// Usage as a percentage of one PCPU over the window (0–100 per VCPU).
    pub percent: f64,
}

impl XenStat {
    /// Creates an un-primed sampler. The first [`XenStat::sample`] primes the
    /// baseline and reports zero usage.
    pub fn new() -> Self {
        XenStat {
            last_sample: IdMap::new(),
            last_time: None,
        }
    }

    /// Samples one domain's usage since the previous call for that domain.
    pub fn sample(
        &mut self,
        hv: &mut Hypervisor,
        dom: DomainId,
        now: SimTime,
    ) -> Result<CpuUsage, HvError> {
        let total = hv.cpu_time_used(dom, now)?;
        let prev = self.last_sample.insert(dom, total).unwrap_or(total);
        let window = match self.last_time {
            Some(t) if now > t => now.duration_since(t),
            _ => SimDuration::ZERO,
        };
        let time = total.saturating_sub(prev);
        let percent = if window.is_zero() {
            0.0
        } else {
            100.0 * time.as_secs_f64() / window.as_secs_f64()
        };
        Ok(CpuUsage { time, percent })
    }

    /// Marks the end of a sampling round (call once per interval, after
    /// sampling every domain of interest).
    pub fn end_round(&mut self, now: SimTime) {
        self.last_time = Some(now);
    }
}

impl Default for XenStat {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedModel;

    #[test]
    fn percent_tracks_cap() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let dom = hv.create_domain("vm", 1 << 20, false);
        let v = hv.add_vcpu(dom, p, SimTime::ZERO).unwrap();
        hv.set_cap(dom, 40, SimTime::ZERO).unwrap();
        hv.set_polling(v, SimTime::ZERO).unwrap();

        let mut stat = XenStat::new();
        // Prime.
        let u0 = stat.sample(&mut hv, dom, SimTime::ZERO).unwrap();
        stat.end_round(SimTime::ZERO);
        assert_eq!(u0.percent, 0.0);
        // One 1 ms interval at cap 40.
        let t1 = SimTime::from_millis(1);
        let u1 = stat.sample(&mut hv, dom, t1).unwrap();
        stat.end_round(t1);
        assert!((u1.percent - 40.0).abs() < 0.5, "got {}", u1.percent);
        assert_eq!(u1.time, SimDuration::from_micros(400));
    }

    #[test]
    fn idle_domain_reads_zero() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let p = hv.add_pcpu();
        let _d0 = hv.create_domain("dom0", 1 << 20, true);
        let dom = hv.create_domain("vm", 1 << 20, false);
        let _v = hv.add_vcpu(dom, p, SimTime::ZERO).unwrap();
        let mut stat = XenStat::new();
        stat.sample(&mut hv, dom, SimTime::ZERO).unwrap();
        stat.end_round(SimTime::ZERO);
        let u = stat.sample(&mut hv, dom, SimTime::from_millis(5)).unwrap();
        assert_eq!(u.percent, 0.0);
        assert_eq!(u.time, SimDuration::ZERO);
    }

    #[test]
    fn unknown_domain_errors() {
        let mut hv = Hypervisor::new(SchedModel::Fluid);
        let mut stat = XenStat::new();
        assert!(stat
            .sample(&mut hv, DomainId::new(9), SimTime::ZERO)
            .is_err());
    }
}
