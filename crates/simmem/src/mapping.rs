//! Foreign mappings — the introspection path.
//!
//! Xen's `xc_map_foreign_range` lets a privileged domain (dom0) map another
//! domain's physical pages into its own address space and read them while the
//! guest — and the HCA — keep writing. [`ForeignMapping`] is the simulated
//! analogue: a window `[base, base+len)` over another domain's
//! [`GuestMemory`], offering read (and optionally write)
//! access through the same shared storage the guest and the HCA write.
//!
//! [`ForeignMapping::read_pieces_stamped`] is the zero-copy path: it lends
//! the guest's own page storage to the caller, one page-bounded `&[u8]` at
//! a time under a single read lock, so a monitor observes DMA'd bytes where
//! they lie. Each piece comes with its page's write stamp, so a monitor
//! that remembers the stamp it last compared at can skip a page no write
//! has touched since without reading it. [`ForeignMapping::read_at`]
//! copies into a caller buffer.

use crate::error::MemError;
use crate::memory::{Gpa, GuestMemory, MemoryHandle};
use parking_lot::RwLock;
use std::sync::Arc;

/// A mapped window into a (foreign) domain's guest memory.
#[derive(Clone)]
pub struct ForeignMapping {
    mem: Arc<RwLock<GuestMemory>>,
    base: Gpa,
    len: usize,
    writable: bool,
}

impl ForeignMapping {
    /// Maps `[base, base+len)` of `target` read-only.
    ///
    /// Fails if the window exceeds the target address space — like the real
    /// hypercall, you cannot map frames the domain does not own.
    pub fn map(target: &MemoryHandle, base: Gpa, len: usize) -> Result<Self, MemError> {
        Self::map_inner(target, base, len, false)
    }

    /// Maps `[base, base+len)` of `target` read-write (used by control-path
    /// tooling; IBMon itself only ever reads).
    pub fn map_rw(target: &MemoryHandle, base: Gpa, len: usize) -> Result<Self, MemError> {
        Self::map_inner(target, base, len, true)
    }

    fn map_inner(
        target: &MemoryHandle,
        base: Gpa,
        len: usize,
        writable: bool,
    ) -> Result<Self, MemError> {
        let size = target.size();
        if base.raw().checked_add(len as u64).is_none_or(|e| e > size) {
            return Err(MemError::OutOfBounds {
                gpa: base,
                len,
                size,
            });
        }
        Ok(ForeignMapping {
            mem: target.share(),
            base,
            len,
            writable,
        })
    }

    /// Base guest-physical address of the window.
    pub fn base(&self) -> Gpa {
        self.base
    }

    /// Window length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), MemError> {
        if offset.checked_add(len).is_none_or(|e| e > self.len) {
            return Err(MemError::OutOfBounds {
                gpa: self.base.add(offset as u64),
                len,
                size: self.base.raw() + self.len as u64,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset` within the window.
    pub fn read_at(&self, offset: usize, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, buf.len())?;
        self.mem.read().read(self.base.add(offset as u64), buf)
    }

    /// Calls `f` with each page-bounded piece of `[offset, offset+len)`
    /// within the window, in order, borrowing the guest's pages in place
    /// under one read lock, and with each piece's page stamp (see
    /// [`GuestMemory::read_pieces_stamped`]). Untouched pages read as
    /// zeros. Bounds errors match [`ForeignMapping::read_at`].
    pub fn read_pieces_stamped(
        &self,
        offset: usize,
        len: usize,
        f: impl FnMut(&[u8], u64),
    ) -> Result<(), MemError> {
        self.check(offset, len)?;
        self.mem
            .read()
            .read_pieces_stamped(self.base.add(offset as u64), len, f)
    }

    /// Writes through the mapping (read-write mappings only).
    ///
    /// # Panics
    /// If the mapping is read-only — writing through a read-only foreign
    /// mapping is a programming error, not a runtime condition.
    pub fn write_at(&self, offset: usize, buf: &[u8]) -> Result<(), MemError> {
        assert!(self.writable, "write through a read-only foreign mapping");
        self.check(offset, buf.len())?;
        self.mem.write().write(self.base.add(offset as u64), buf)
    }
}

impl std::fmt::Debug for ForeignMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ForeignMapping {{ base: {:?}, len: {}, writable: {} }}",
            self.base, self.len, self.writable
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::PAGE_SIZE;

    #[test]
    fn mapping_sees_guest_writes() {
        let guest = MemoryHandle::new(64 * 1024);
        let map = ForeignMapping::map(&guest, Gpa::new(4096), 8192).unwrap();
        guest.write(Gpa::new(4096 + 100), &[7, 8, 9]).unwrap();
        let mut b = [0u8; 3];
        map.read_at(100, &mut b).unwrap();
        assert_eq!(b, [7, 8, 9]);
    }

    #[test]
    fn mapping_sees_dma_writes() {
        let guest = MemoryHandle::new(64 * 1024);
        guest
            .with_write(|m| m.pin_range(Gpa::new(0), 4096))
            .unwrap();
        let map = ForeignMapping::map(&guest, Gpa::new(0), 4096).unwrap();
        guest
            .dma_write(Gpa::new(16), &0xDEAD_BEEFu32.to_le_bytes())
            .unwrap();
        let mut b = [0u8; 4];
        map.read_at(16, &mut b).unwrap();
        assert_eq!(u32::from_le_bytes(b), 0xDEAD_BEEF);
    }

    #[test]
    fn window_bounds_are_enforced() {
        let guest = MemoryHandle::new(16 * 1024);
        assert!(ForeignMapping::map(&guest, Gpa::new(8192), 16 * 1024).is_err());
        let map = ForeignMapping::map(&guest, Gpa::new(0), 4096).unwrap();
        let mut b = [0u8; 8];
        assert!(map.read_at(4090, &mut b).is_err());
        assert!(map.read_at(4088, &mut b).is_ok());
    }

    /// Concatenates the pieces `read_pieces_stamped` lends, checking each
    /// stays inside one page.
    fn pieces(map: &ForeignMapping, offset: usize, len: usize) -> Result<Vec<u8>, MemError> {
        let mut out = Vec::new();
        let mut gpa = map.base().add(offset as u64);
        map.read_pieces_stamped(offset, len, |p, _| {
            assert!(!p.is_empty());
            assert!(
                gpa.page_offset() + p.len() <= PAGE_SIZE,
                "piece crosses a page"
            );
            gpa = gpa.add(p.len() as u64);
            out.extend_from_slice(p);
        })?;
        Ok(out)
    }

    #[test]
    fn pieces_cover_the_window_in_order() {
        let guest = MemoryHandle::new(64 * 1024);
        // A base 100 bytes into a page: pieces split at every boundary.
        let base = Gpa::new(PAGE_SIZE as u64 + 100);
        let len = 3 * PAGE_SIZE;
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        guest.write(base, &data).unwrap();
        let map = ForeignMapping::map(&guest, base, len).unwrap();
        assert_eq!(pieces(&map, 0, len).unwrap(), data);
        let mut copied = vec![0u8; 5000];
        map.read_at(77, &mut copied).unwrap();
        assert_eq!(pieces(&map, 77, 5000).unwrap(), copied);
        assert!(pieces(&map, 10, 0).unwrap().is_empty());
    }

    #[test]
    fn pieces_of_untouched_pages_read_as_zero() {
        let guest = MemoryHandle::new(64 * 1024);
        guest.write(Gpa::new(0), &[5; 8]).unwrap();
        let map = ForeignMapping::map(&guest, Gpa::new(0), 3 * PAGE_SIZE).unwrap();
        let got = pieces(&map, 0, 3 * PAGE_SIZE).unwrap();
        assert_eq!(&got[..8], &[5; 8]);
        assert!(got[8..].iter().all(|&b| b == 0));
        assert_eq!(
            guest.with_read(|m| m.resident_pages()),
            1,
            "reads materialize nothing"
        );
    }

    #[test]
    fn stamped_pieces_see_dma_and_mapped_writes() {
        let guest = MemoryHandle::new(8 * PAGE_SIZE as u64);
        guest
            .with_write(|m| m.pin_range(Gpa::new(0), 8 * PAGE_SIZE))
            .unwrap();
        let base = Gpa::new(PAGE_SIZE as u64 + 100);
        let map = ForeignMapping::map_rw(&guest, base, 2 * PAGE_SIZE).unwrap();
        let stamps = || {
            let mut out = Vec::new();
            map.read_pieces_stamped(0, 2 * PAGE_SIZE, |p, s| out.push((p.len(), s)))
                .unwrap();
            out
        };
        let head = PAGE_SIZE - 100;
        assert_eq!(stamps(), [(head, 0), (PAGE_SIZE, 0), (100, 0)]);
        guest
            .dma_write(Gpa::new(2 * PAGE_SIZE as u64), &[1])
            .unwrap();
        map.write_at(0, &[2]).unwrap();
        assert_eq!(stamps(), [(head, 2), (PAGE_SIZE, 1), (100, 0)]);
    }

    #[test]
    fn pieces_outside_the_window_fail_like_read_at() {
        let guest = MemoryHandle::new(16 * 1024);
        let map = ForeignMapping::map(&guest, Gpa::new(1024), 4096).unwrap();
        for (offset, len) in [(4090, 8), (4097, 0), (8000, 1)] {
            let mut buf = vec![0u8; len];
            let want = map.read_at(offset, &mut buf).unwrap_err();
            let mut called = false;
            let got = map
                .read_pieces_stamped(offset, len, |_, _| called = true)
                .unwrap_err();
            assert_eq!(got, want, "offset {offset} len {len}");
            assert!(!called, "no piece is lent on a bounds error");
        }
        assert!(pieces(&map, 4088, 8).is_ok());
    }

    #[test]
    fn rw_mapping_writes_through() {
        let guest = MemoryHandle::new(8 * 1024);
        let map = ForeignMapping::map_rw(&guest, Gpa::new(0), 64).unwrap();
        map.write_at(10, &[42]).unwrap();
        let mut b = [0u8; 1];
        guest.read(Gpa::new(10), &mut b).unwrap();
        assert_eq!(b[0], 42);
    }

    #[test]
    #[should_panic]
    fn read_only_mapping_rejects_writes() {
        let guest = MemoryHandle::new(8 * 1024);
        let map = ForeignMapping::map(&guest, Gpa::new(0), 64).unwrap();
        let _ = map.write_at(0, &[1]);
    }
}
