//! Memory regions and the Translation and Protection Table (TPT).
//!
//! InfiniBand HCAs hold a TPT mapping *keys* to registered buffers. A
//! registration pins the pages (the HCA will DMA into them), enters the
//! buffer into the table, and returns an `lkey` (used when the local process
//! names the buffer in a work request) and an `rkey` (handed to remote peers
//! for one-sided RDMA). Every data-path access is validated against the TPT:
//! key liveness, address range, and access rights. Registrations last for
//! the life of the table: simulated applications register their buffers
//! once at setup.

use crate::error::FabricError;
use crate::types::{Access, PdId};
use resex_simmem::{Gpa, MemoryHandle};

/// A key's low byte is its variant, which real HCAs let a consumer change
/// when it re-registers a region; the bits above index the table. Regions
/// are never re-registered here, so the variant is always zero.
const VARIANT_BITS: u32 = 8;

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
}

/// The HCA's translation and protection table.
pub struct Tpt {
    slots: Vec<TptEntry>,
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
        Tpt { slots: Vec::new() }
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
        let key = (self.slots.len() as u32) << VARIANT_BITS;
        self.slots.push(TptEntry {
            pd,
            mem: mem.clone(),
            gpa,
            len,
            access,
        });
        Ok(MrHandle {
            lkey: key,
            rkey: key,
            gpa,
            len,
        })
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
        let entry = self
            .slots
            .get((key >> VARIANT_BITS) as usize)
            .filter(|_| key & ((1 << VARIANT_BITS) - 1) == 0)
            .ok_or(FabricError::InvalidKey {
                key,
                reason: "no such region",
            })?;
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
    fn register_pins() {
        let m = mem();
        let mut tpt = Tpt::new();
        let mr = tpt
            .register(PdId::new(0), &m, Gpa::new(0), 8192, Access::FULL)
            .unwrap();
        assert!(m.with_read(|g| g.is_pinned(Gpa::new(0), 8192)));
        assert!(!m.with_read(|g| g.is_pinned(Gpa::new(0), 8193)));
        assert!(tpt
            .check(mr.lkey, Gpa::new(0), 8192, Need::LocalRead, None)
            .is_ok());
    }

    #[test]
    fn keys_with_a_variant_byte_name_no_region() {
        let m = mem();
        let mut tpt = Tpt::new();
        let mr = tpt
            .register(PdId::new(0), &m, Gpa::new(0), 4096, Access::FULL)
            .unwrap();
        for key in [mr.lkey | 1, mr.lkey | 0xFF, mr.lkey + (1 << VARIANT_BITS)] {
            let err = tpt
                .check(key, Gpa::new(0), 4, Need::LocalRead, None)
                .unwrap_err();
            assert!(matches!(
                err,
                FabricError::InvalidKey {
                    reason: "no such region",
                    ..
                }
            ));
        }
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
    fn keys_are_the_slot_above_a_zero_variant_byte() {
        let m = mem();
        let mut tpt = Tpt::new();
        for i in 0..32 {
            let mr = tpt
                .register(PdId::new(0), &m, Gpa::new(i * 4096), 4096, Access::FULL)
                .unwrap();
            assert_eq!((mr.lkey, mr.rkey), (i as u32 * 256, i as u32 * 256));
        }
    }
}
