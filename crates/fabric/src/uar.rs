//! User Access Regions and doorbells.
//!
//! On real hardware a process triggers the HCA by writing a "doorbell" into
//! its 4 KiB UAR page — an I/O page mapped straight into the process'
//! address space, which is what makes VMM-bypass possible (and what blinds
//! the hypervisor). We model the UAR as a guest page holding one 32-bit
//! doorbell counter per queue pair; `post_send` bumps the counter and the
//! HCA engine is nudged directly. The memory-visible counter exists so that
//! introspection tools can observe posting activity, not just completions.

use crate::error::FabricError;
use crate::types::QpNum;
use resex_simcore::ids::IdMap;
use resex_simmem::{Gpa, MemoryHandle, PAGE_SIZE};

/// Bytes reserved per doorbell slot.
const SLOT_SIZE: usize = 8;

/// One UAR page with per-QP doorbell counters.
pub struct Uar {
    mem: MemoryHandle,
    base: Gpa,
    slots: IdMap<QpNum, usize>,
    next_slot: usize,
}

impl Uar {
    /// Maps a UAR over the page at `base` (must be page-aligned) in `mem`.
    pub fn new(mem: MemoryHandle, base: Gpa) -> Result<Self, FabricError> {
        if !base.is_page_aligned() {
            return Err(FabricError::Config(format!(
                "UAR base {base} is not page-aligned"
            )));
        }
        mem.with_write(|m| m.pin_range(base, PAGE_SIZE))?;
        Ok(Uar {
            mem,
            base,
            slots: IdMap::new(),
            next_slot: 0,
        })
    }

    /// Guest-physical base of the UAR page.
    pub fn base(&self) -> Gpa {
        self.base
    }

    /// Assigns a doorbell slot to a queue pair.
    pub fn assign(&mut self, qp: QpNum) -> Result<(), FabricError> {
        if self.slots.contains_key(&qp) {
            return Ok(());
        }
        if (self.next_slot + 1) * SLOT_SIZE > PAGE_SIZE {
            return Err(FabricError::Config("UAR page full".into()));
        }
        self.slots.insert(qp, self.next_slot);
        self.next_slot += 1;
        Ok(())
    }

    fn slot_gpa(&self, qp: QpNum) -> Option<Gpa> {
        self.slots
            .get(&qp)
            .map(|&s| self.base.add((s * SLOT_SIZE) as u64))
    }

    /// Rings the doorbell: increments the QP's counter in guest memory and
    /// returns the new value.
    pub fn ring(&mut self, qp: QpNum) -> Result<u32, FabricError> {
        let gpa = self
            .slot_gpa(qp)
            .ok_or_else(|| FabricError::Config("doorbell for unassigned queue pair".into()))?;
        let v = self.mem.with_write(|m| -> Result<u32, FabricError> {
            let v = m.read_u32(gpa)?.wrapping_add(1);
            m.write_u32(gpa, v)?;
            Ok(v)
        })?;
        Ok(v)
    }

    /// Reads a QP's doorbell counter (introspection path).
    pub fn read(&self, qp: QpNum) -> Result<u32, FabricError> {
        let gpa = self
            .slot_gpa(qp)
            .ok_or_else(|| FabricError::Config("doorbell for unassigned queue pair".into()))?;
        Ok(self.mem.with_read(|m| m.read_u32(gpa))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uar() -> (MemoryHandle, Uar) {
        let mem = MemoryHandle::new(64 * 1024);
        let base = mem.alloc_bytes(PAGE_SIZE as u64).unwrap();
        let uar = Uar::new(mem.clone(), base).unwrap();
        (mem, uar)
    }

    #[test]
    fn ring_increments_counter() {
        let (_, mut u) = uar();
        let qp = QpNum::new(5);
        u.assign(qp).unwrap();
        assert_eq!(u.read(qp).unwrap(), 0);
        assert_eq!(u.ring(qp).unwrap(), 1);
        assert_eq!(u.ring(qp).unwrap(), 2);
        assert_eq!(u.read(qp).unwrap(), 2);
    }

    #[test]
    fn counters_are_guest_visible() {
        let (mem, mut u) = uar();
        let qp = QpNum::new(0);
        u.assign(qp).unwrap();
        u.ring(qp).unwrap();
        // The doorbell lives in plain guest memory at the UAR base.
        assert_eq!(mem.with_read(|m| m.read_u32(u.base())).unwrap(), 1);
    }

    #[test]
    fn distinct_qps_get_distinct_slots() {
        let (_, mut u) = uar();
        let (a, b) = (QpNum::new(1), QpNum::new(2));
        u.assign(a).unwrap();
        u.assign(b).unwrap();
        u.ring(a).unwrap();
        assert_eq!(u.read(a).unwrap(), 1);
        assert_eq!(u.read(b).unwrap(), 0);
    }

    #[test]
    fn double_assign_is_idempotent() {
        let (_, mut u) = uar();
        let qp = QpNum::new(1);
        u.assign(qp).unwrap();
        u.ring(qp).unwrap();
        u.assign(qp).unwrap();
        assert_eq!(u.read(qp).unwrap(), 1, "slot preserved");
    }

    #[test]
    fn unassigned_doorbell_fails() {
        let (_, mut u) = uar();
        assert!(u.ring(QpNum::new(9)).is_err());
        assert!(u.read(QpNum::new(9)).is_err());
    }

    #[test]
    fn unaligned_base_rejected() {
        let mem = MemoryHandle::new(64 * 1024);
        assert!(Uar::new(mem, Gpa::new(17)).is_err());
    }

    #[test]
    fn page_capacity_limit() {
        let (_, mut u) = uar();
        for i in 0..(PAGE_SIZE / SLOT_SIZE) as u32 {
            u.assign(QpNum::new(i)).unwrap();
        }
        assert!(u.assign(QpNum::new(9999)).is_err());
    }
}
