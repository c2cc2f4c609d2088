//! Memory regions and the Translation and Protection Table (TPT).
//!
//! InfiniBand HCAs hold a TPT mapping *keys* to registered buffers. A
//! registration pins the pages (the HCA will DMA into them), enters the
//! buffer into the table, and returns an `lkey` (used when the local process
//! names the buffer in a work request) and an `rkey` (handed to remote peers
//! for one-sided RDMA). Every data-path access is validated against the TPT:
//! key liveness, address range, and access rights.
//!
//! Keys carry a generation count so that a key kept past deregistration is
//! detected as stale rather than silently matching a recycled slot.

use crate::error::FabricError;
use crate::types::{Access, PdId};
use resex_simmem::{Gpa, MemoryHandle};

/// Number of generation bits in a key. The low bits index the table slot.
const GEN_BITS: u32 = 8;
const GEN_MASK: u32 = (1 << GEN_BITS) - 1;

/// Composes a key from a slot index and generation.
fn make_key(slot: u32, gen: u32) -> u32 {
    (slot << GEN_BITS) | (gen & GEN_MASK)
}

/// A registered memory region, as returned by [`Tpt::register`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MrHandle {
    /// Local key: proves ownership in locally posted work requests.
    pub lkey: u32,
    /// Remote key: handed to peers for one-sided access.
    pub rkey: u32,
    /// Base guest-physical address of the region.
    pub gpa: Gpa,
    /// Region length in bytes.
    pub len: u32,
}

struct TptEntry {
    pd: PdId,
    mem: MemoryHandle,
    gpa: Gpa,
    len: u32,
    access: Access,
    gen: u32,
}

/// The HCA's translation and protection table.
pub struct Tpt {
    slots: Vec<Option<TptEntry>>,
    free: Vec<u32>,
    /// Next generation to assign per slot; advanced on deregistration.
    gen_next: Vec<u32>,
    registered_bytes: u64,
}

/// What a data-path access needs from a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Need {
    /// Local read (send source).
    LocalRead,
    /// Local write (receive destination).
    LocalWrite,
    /// Remote write (incoming RDMA write target).
    RemoteWrite,
}

impl Tpt {
    /// An empty table.
    pub fn new() -> Self {
        Tpt {
            slots: Vec::new(),
            free: Vec::new(),
            gen_next: Vec::new(),
            registered_bytes: 0,
        }
    }

    /// Registers `[gpa, gpa+len)` of `mem` under protection domain `pd`,
    /// pinning the underlying pages.
    pub fn register(
        &mut self,
        pd: PdId,
        mem: &MemoryHandle,
        gpa: Gpa,
        len: u32,
        access: Access,
    ) -> Result<MrHandle, FabricError> {
        if len == 0 {
            return Err(FabricError::InvalidKey {
                key: 0,
                reason: "zero-length registration",
            });
        }
        mem.with_write(|m| m.pin_range(gpa, len as usize))?;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.gen_next.get(slot as usize).copied().unwrap_or(0);
        let entry = TptEntry {
            pd,
            mem: mem.clone(),
            gpa,
            len,
            access,
            gen,
        };
        self.slots[slot as usize] = Some(entry);
        self.registered_bytes += len as u64;
        let key = make_key(slot, gen);
        Ok(MrHandle {
            lkey: key,
            rkey: key,
            gpa,
            len,
        })
    }

    /// Deregisters the region named by `key`, unpinning its pages.
    pub fn deregister(&mut self, key: u32) -> Result<(), FabricError> {
        let slot = key >> GEN_BITS;
        let entry = self
            .slots
            .get_mut(slot as usize)
            .and_then(Option::take)
            .ok_or(FabricError::InvalidKey {
                key,
                reason: "no such region",
            })?;
        if entry.gen != (key & GEN_MASK) {
            // Put it back: the key was stale, the slot holds a newer region.
            self.slots[slot as usize] = Some(entry);
            return Err(FabricError::InvalidKey {
                key,
                reason: "stale generation",
            });
        }
        entry
            .mem
            .with_write(|m| m.unpin_range(entry.gpa, entry.len as usize))?;
        self.registered_bytes -= entry.len as u64;
        self.bump_gen(slot, entry.gen);
        self.free.push(slot);
        Ok(())
    }

    fn bump_gen(&mut self, slot: u32, old: u32) {
        if self.gen_next.len() <= slot as usize {
            self.gen_next.resize(slot as usize + 1, 0);
        }
        self.gen_next[slot as usize] = (old + 1) & GEN_MASK;
    }

    /// Validates an access and returns the region's memory handle for DMA.
    pub fn check(
        &self,
        key: u32,
        gpa: Gpa,
        len: u32,
        need: Need,
        pd: Option<PdId>,
    ) -> Result<&MemoryHandle, FabricError> {
        let slot = key >> GEN_BITS;
        let entry = self
            .slots
            .get(slot as usize)
            .and_then(Option::as_ref)
            .ok_or(FabricError::InvalidKey {
                key,
                reason: "no such region",
            })?;
        if entry.gen != (key & GEN_MASK) {
            return Err(FabricError::InvalidKey {
                key,
                reason: "stale generation",
            });
        }
        if let Some(pd) = pd {
            if entry.pd != pd {
                return Err(FabricError::PdMismatch);
            }
        }
        let start = gpa.raw();
        let end = start
            .checked_add(len as u64)
            .ok_or(FabricError::InvalidKey {
                key,
                reason: "address overflow",
            })?;
        let rstart = entry.gpa.raw();
        let rend = rstart + entry.len as u64;
        if start < rstart || end > rend {
            return Err(FabricError::InvalidKey {
                key,
                reason: "access outside registered range",
            });
        }
        let ok = match need {
            Need::LocalRead => entry.access.local_read,
            Need::LocalWrite => entry.access.local_write,
            Need::RemoteWrite => entry.access.remote_write,
        };
        if !ok {
            return Err(FabricError::InvalidKey {
                key,
                reason: "missing access right",
            });
        }
        Ok(&entry.mem)
    }

    /// Total bytes currently registered (for capacity accounting).
    pub fn registered_bytes(&self) -> u64 {
        self.registered_bytes
    }
}

impl Default for Tpt {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHandle {
        MemoryHandle::new(1024 * 1024)
    }

    #[test]
    fn register_pins_and_deregister_unpins() {
        let m = mem();
        let mut tpt = Tpt::new();
        let mr = tpt
            .register(PdId::new(0), &m, Gpa::new(0), 8192, Access::FULL)
            .unwrap();
        assert!(m.with_read(|g| g.is_pinned(Gpa::new(0), 8192)));
        assert_eq!(tpt.registered_bytes(), 8192);
        tpt.deregister(mr.lkey).unwrap();
        assert!(!m.with_read(|g| g.is_pinned(Gpa::new(0), 8192)));
        assert_eq!(tpt.registered_bytes(), 0);
    }

    #[test]
    fn stale_key_is_rejected() {
        let m = mem();
        let mut tpt = Tpt::new();
        let mr1 = tpt
            .register(PdId::new(0), &m, Gpa::new(0), 4096, Access::FULL)
            .unwrap();
        tpt.deregister(mr1.lkey).unwrap();
        // Slot is recycled with a new generation.
        let mr2 = tpt
            .register(PdId::new(0), &m, Gpa::new(4096), 4096, Access::FULL)
            .unwrap();
        assert_ne!(mr1.lkey, mr2.lkey, "recycled slot gets a new key");
        let err = tpt
            .check(mr1.lkey, Gpa::new(0), 4, Need::LocalRead, None)
            .unwrap_err();
        assert!(matches!(
            err,
            FabricError::InvalidKey {
                reason: "stale generation",
                ..
            }
        ));
        // Deregistering with the stale key fails and leaves the live region intact.
        assert!(tpt.deregister(mr1.lkey).is_err());
        assert!(tpt
            .check(mr2.lkey, Gpa::new(4096), 4, Need::LocalRead, None)
            .is_ok());
        assert_eq!(tpt.registered_bytes(), 4096);
    }

    #[test]
    fn range_checks() {
        let m = mem();
        let mut tpt = Tpt::new();
        let mr = tpt
            .register(PdId::new(0), &m, Gpa::new(4096), 4096, Access::FULL)
            .unwrap();
        // Inside: ok.
        assert!(tpt
            .check(mr.lkey, Gpa::new(4096), 4096, Need::LocalRead, None)
            .is_ok());
        assert!(tpt
            .check(mr.lkey, Gpa::new(5000), 100, Need::RemoteWrite, None)
            .is_ok());
        // Starts before the region.
        assert!(tpt
            .check(mr.lkey, Gpa::new(4000), 200, Need::LocalRead, None)
            .is_err());
        // Runs past the end.
        assert!(tpt
            .check(mr.lkey, Gpa::new(8000), 200, Need::LocalRead, None)
            .is_err());
    }

    #[test]
    fn access_rights_enforced() {
        let m = mem();
        let mut tpt = Tpt::new();
        let mr = tpt
            .register(
                PdId::new(0),
                &m,
                Gpa::new(0),
                4096,
                Access {
                    remote_write: false,
                    ..Access::FULL
                },
            )
            .unwrap();
        assert!(tpt
            .check(mr.lkey, Gpa::new(0), 4, Need::LocalRead, None)
            .is_ok());
        assert!(tpt
            .check(mr.rkey, Gpa::new(0), 4, Need::RemoteWrite, None)
            .is_err());
    }

    #[test]
    fn pd_isolation() {
        let m = mem();
        let mut tpt = Tpt::new();
        let mr = tpt
            .register(PdId::new(1), &m, Gpa::new(0), 4096, Access::FULL)
            .unwrap();
        assert!(tpt
            .check(mr.lkey, Gpa::new(0), 4, Need::LocalRead, Some(PdId::new(1)))
            .is_ok());
        assert_eq!(
            tpt.check(mr.lkey, Gpa::new(0), 4, Need::LocalRead, Some(PdId::new(2)))
                .unwrap_err(),
            FabricError::PdMismatch
        );
    }

    #[test]
    fn zero_length_rejected() {
        let m = mem();
        let mut tpt = Tpt::new();
        assert!(tpt
            .register(PdId::new(0), &m, Gpa::new(0), 0, Access::FULL)
            .is_err());
    }

    #[test]
    fn many_regions_unique_keys() {
        let m = mem();
        let mut tpt = Tpt::new();
        let mut keys = std::collections::BTreeSet::new();
        for i in 0..32 {
            let mr = tpt
                .register(PdId::new(0), &m, Gpa::new(i * 4096), 4096, Access::FULL)
                .unwrap();
            assert!(keys.insert(mr.lkey), "duplicate key");
        }
        assert_eq!(tpt.registered_bytes(), 32 * 4096);
    }
}
