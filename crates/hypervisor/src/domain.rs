//! Domains (virtual machines).

use resex_simcore::define_id;
use resex_simmem::MemoryHandle;

define_id!(
    /// A domain (VM). Domain 0 is the privileged control domain.
    DomainId
);

/// One virtual machine.
pub struct Domain {
    /// This domain's id.
    pub id: DomainId,
    /// Human-readable name (shows up in experiment output).
    pub name: String,
    /// The domain's guest-physical memory.
    pub mem: MemoryHandle,
    /// Whether the domain may use privileged interfaces (introspection,
    /// cap-setting). True for dom0.
    pub privileged: bool,
    /// Scheduling weight (Xen credit-scheduler default 256).
    pub weight: u32,
    /// CPU cap in percent; 0 means *uncapped*, matching Xen semantics.
    pub cap_pct: u32,
}

impl Domain {
    /// Effective cap as a fraction of one PCPU: `None` when uncapped.
    pub fn cap_fraction(&self) -> Option<f64> {
        if self.cap_pct == 0 {
            None
        } else {
            Some(self.cap_pct as f64 / 100.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(cap: u32) -> Domain {
        Domain {
            id: DomainId::new(1),
            name: "test".into(),
            mem: MemoryHandle::new(4096),
            privileged: false,
            weight: 256,
            cap_pct: cap,
        }
    }

    #[test]
    fn cap_zero_means_uncapped() {
        assert_eq!(dom(0).cap_fraction(), None);
        assert_eq!(dom(25).cap_fraction(), Some(0.25));
        assert_eq!(dom(100).cap_fraction(), Some(1.0));
    }
}
