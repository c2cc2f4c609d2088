//! Guest physical address spaces.

use crate::error::MemError;
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;

/// Size of a guest page, matching x86 and the 4 KiB UAR pages of the paper's
/// InfiniBand HCAs.
pub const PAGE_SIZE: usize = 4096;

/// A guest-physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gpa(u64);

impl Gpa {
    /// Wraps a raw address.
    #[inline]
    pub const fn new(addr: u64) -> Self {
        Gpa(addr)
    }

    /// The raw address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The page frame number containing this address.
    #[inline]
    pub const fn frame(self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// Offset within the containing page.
    #[inline]
    pub const fn page_offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// The address `bytes` past this one.
    #[inline]
    pub const fn add(self, bytes: u64) -> Gpa {
        Gpa(self.0 + bytes)
    }

    /// True if this address is page-aligned.
    #[inline]
    pub const fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE as u64)
    }
}

impl fmt::Debug for Gpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gpa({:#x})", self.0)
    }
}

impl fmt::Display for Gpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A backed page: its bytes and the write clock of the last write that
/// touched it.
struct Page {
    bytes: [u8; PAGE_SIZE],
    stamp: u64,
}

struct PageState {
    /// The stamp lives inside the box, not here: every page of every
    /// domain carries a `PageState`, and a `u64` beside the box would grow
    /// it from 16 to 24 bytes.
    data: Option<Box<Page>>,
    pin_count: u32,
    /// Ever pinned or written: counted by [`GuestMemory::resident_pages`]
    /// even while its storage is still unallocated.
    resident: bool,
}

const _: () = assert!(std::mem::size_of::<PageState>() == 16);

impl PageState {
    const fn empty() -> Self {
        PageState {
            data: None,
            pin_count: 0,
            resident: false,
        }
    }
}

/// A single domain's guest-physical memory.
///
/// Pages are materialized lazily on first write, pinned or not (reads of
/// untouched pages return zeros, like freshly ballooned memory). A simple
/// bump allocator hands out page-aligned regions for application buffers
/// and queue rings.
///
/// Every write call ticks a write clock and stamps each page it touches
/// with the new value, so a reader that remembers a page's stamp can tell,
/// without comparing bytes, that no write has touched the page since.
pub struct GuestMemory {
    pages: Vec<PageState>,
    alloc_next: u64,
    /// Stamp of the latest write call; 0 before the first.
    clock: u64,
}

impl GuestMemory {
    /// Creates an address space of `size_bytes` (rounded up to whole pages).
    pub fn new(size_bytes: u64) -> Self {
        let n = (size_bytes as usize).div_ceil(PAGE_SIZE);
        let mut pages = Vec::with_capacity(n);
        pages.resize_with(n, PageState::empty);
        GuestMemory {
            pages,
            alloc_next: 0,
            clock: 0,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Number of resident pages: every page that has ever been pinned or
    /// written. A pinned page counts even before its storage is allocated,
    /// as a real pinned page would be faulted in at registration.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.resident).count()
    }

    fn check_range(&self, gpa: Gpa, len: usize) -> Result<(), MemError> {
        let end = gpa.raw().checked_add(len as u64);
        match end {
            Some(end) if end <= self.size() => Ok(()),
            _ => Err(MemError::OutOfBounds {
                gpa,
                len,
                size: self.size(),
            }),
        }
    }

    /// Allocates `n_pages` contiguous pages; returns the base address.
    pub fn alloc_pages(&mut self, n_pages: u64) -> Result<Gpa, MemError> {
        let total = self.pages.len() as u64;
        let free = total - self.alloc_next;
        if n_pages > free {
            return Err(MemError::OutOfMemory {
                requested_pages: n_pages,
                available_pages: free,
            });
        }
        let base = Gpa::new(self.alloc_next * PAGE_SIZE as u64);
        self.alloc_next += n_pages;
        Ok(base)
    }

    /// Allocates enough pages to hold `bytes`; returns the page-aligned base.
    pub fn alloc_bytes(&mut self, bytes: u64) -> Result<Gpa, MemError> {
        self.alloc_pages(bytes.div_ceil(PAGE_SIZE as u64).max(1))
    }

    /// Reads `buf.len()` bytes starting at `gpa`.
    pub fn read(&self, gpa: Gpa, buf: &mut [u8]) -> Result<(), MemError> {
        let mut done = 0;
        self.read_pieces_stamped(gpa, buf.len(), |piece, _| {
            buf[done..done + piece.len()].copy_from_slice(piece);
            done += piece.len();
        })
    }

    /// Calls `f` with each page-bounded piece of `[gpa, gpa+len)` in
    /// address order, borrowing page storage in place, and with the
    /// piece's page stamp: the write clock of the last write that touched
    /// the page, or 0 for a page never written (it reads as zeros). Stamps
    /// only grow, so an unchanged stamp means unchanged bytes.
    pub fn read_pieces_stamped(
        &self,
        gpa: Gpa,
        len: usize,
        mut f: impl FnMut(&[u8], u64),
    ) -> Result<(), MemError> {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        self.check_range(gpa, len)?;
        let mut addr = gpa.raw();
        let mut done = 0;
        while done < len {
            let frame = (addr / PAGE_SIZE as u64) as usize;
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(len - done);
            let (page, stamp) = match self.pages[frame].data.as_deref() {
                Some(p) => (&p.bytes, p.stamp),
                None => (&ZERO_PAGE, 0),
            };
            f(&page[off..off + n], stamp);
            done += n;
            addr += n as u64;
        }
        Ok(())
    }

    /// Writes `buf` starting at `gpa`, materializing pages as needed.
    pub fn write(&mut self, gpa: Gpa, buf: &[u8]) -> Result<(), MemError> {
        self.write_pieces(gpa, buf.len(), |done, piece| {
            piece.copy_from_slice(&buf[done..done + piece.len()]);
        })
    }

    /// Sets `[gpa, gpa+len)` to `byte` in one pass with no staging buffer;
    /// otherwise the same as [`GuestMemory::write`] of `len` copies.
    pub fn fill(&mut self, gpa: Gpa, len: usize, byte: u8) -> Result<(), MemError> {
        self.write_pieces(gpa, len, |_, piece| piece.fill(byte))
    }

    /// Mutable [`GuestMemory::read_pieces_stamped`]; `f` gets each piece's
    /// offset. Ticks the write clock once and stamps every page touched.
    fn write_pieces(
        &mut self,
        gpa: Gpa,
        len: usize,
        mut f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), MemError> {
        self.check_range(gpa, len)?;
        self.clock += 1;
        let stamp = self.clock;
        let mut addr = gpa.raw();
        let mut done = 0;
        while done < len {
            let frame = (addr / PAGE_SIZE as u64) as usize;
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(len - done);
            let state = &mut self.pages[frame];
            state.resident = true;
            let page = state.data.get_or_insert_with(|| {
                Box::new(Page {
                    bytes: [0; PAGE_SIZE],
                    stamp: 0,
                })
            });
            page.stamp = stamp;
            f(done, &mut page.bytes[off..off + n]);
            done += n;
            addr += n as u64;
        }
        Ok(())
    }

    /// Reads a little-endian `u32` at `gpa`.
    pub fn read_u32(&self, gpa: Gpa) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(gpa, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32` at `gpa`.
    pub fn write_u32(&mut self, gpa: Gpa, v: u32) -> Result<(), MemError> {
        self.write(gpa, &v.to_le_bytes())
    }

    /// Pins every page overlapping `[gpa, gpa+len)` (registration-time
    /// behaviour of RDMA memory regions). Pins nest: each `pin_range` must be
    /// balanced by one `unpin_range`.
    ///
    /// Pinning only counts: a pinned page becomes resident (see
    /// [`GuestMemory::resident_pages`]) but gets storage on its first
    /// write, like any other page, and reads as zeros until then. A 2 MiB
    /// region that the HCA never writes therefore costs no page storage.
    pub fn pin_range(&mut self, gpa: Gpa, len: usize) -> Result<(), MemError> {
        self.check_range(gpa, len)?;
        let first = gpa.frame();
        let last = gpa.add(len.saturating_sub(1) as u64).frame();
        for page in &mut self.pages[first as usize..=last as usize] {
            page.pin_count += 1;
            page.resident = true;
        }
        Ok(())
    }

    /// Reverses one [`GuestMemory::pin_range`] call for the same range.
    pub fn unpin_range(&mut self, gpa: Gpa, len: usize) -> Result<(), MemError> {
        self.check_range(gpa, len)?;
        let first = gpa.frame();
        let last = gpa.add(len.saturating_sub(1) as u64).frame();
        // Validate first so the operation is atomic.
        for frame in first..=last {
            if self.pages[frame as usize].pin_count == 0 {
                return Err(MemError::NotPinnedForUnpin {
                    page_base: Gpa::new(frame * PAGE_SIZE as u64),
                });
            }
        }
        for frame in first..=last {
            self.pages[frame as usize].pin_count -= 1;
        }
        Ok(())
    }

    /// True if every page of `[gpa, gpa+len)` is pinned.
    pub fn is_pinned(&self, gpa: Gpa, len: usize) -> bool {
        if self.check_range(gpa, len).is_err() {
            return false;
        }
        let first = gpa.frame();
        let last = gpa.add(len.saturating_sub(1) as u64).frame();
        (first..=last).all(|f| self.pages[f as usize].pin_count > 0)
    }
}

/// A cloneable, thread-safe handle to one domain's [`GuestMemory`].
#[derive(Clone)]
pub struct MemoryHandle {
    inner: Arc<RwLock<GuestMemory>>,
}

impl MemoryHandle {
    /// Creates a fresh address space of `size_bytes`.
    pub fn new(size_bytes: u64) -> Self {
        MemoryHandle {
            inner: Arc::new(RwLock::new(GuestMemory::new(size_bytes))),
        }
    }

    /// Runs `f` with shared (read) access.
    pub fn with_read<R>(&self, f: impl FnOnce(&GuestMemory) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs `f` with exclusive (write) access.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut GuestMemory) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Allocates a page-aligned region of at least `bytes` bytes.
    pub fn alloc_bytes(&self, bytes: u64) -> Result<Gpa, MemError> {
        self.with_write(|m| m.alloc_bytes(bytes))
    }

    /// Guest-visible read.
    pub fn read(&self, gpa: Gpa, buf: &mut [u8]) -> Result<(), MemError> {
        self.with_read(|m| m.read(gpa, buf))
    }

    /// Guest-visible write.
    pub fn write(&self, gpa: Gpa, buf: &[u8]) -> Result<(), MemError> {
        self.with_write(|m| m.write(gpa, buf))
    }

    /// Device DMA write: identical to [`MemoryHandle::write`] but enforces
    /// that the whole target range is pinned, as a real HCA's IOMMU/TPT would.
    pub fn dma_write(&self, gpa: Gpa, buf: &[u8]) -> Result<(), MemError> {
        self.with_write(|m| {
            m.check_range(gpa, buf.len())?;
            if !m.is_pinned(gpa, buf.len()) {
                let first_unpinned = (gpa.frame()..=gpa.add(buf.len() as u64 - 1).frame())
                    .find(|&f| m.pages[f as usize].pin_count == 0)
                    .unwrap_or(gpa.frame());
                return Err(MemError::NotPinned {
                    page_base: Gpa::new(first_unpinned * PAGE_SIZE as u64),
                });
            }
            m.write(gpa, buf)
        })
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.with_read(|m| m.size())
    }

    /// Clones the underlying `Arc` — used by [`crate::ForeignMapping`].
    pub(crate) fn share(&self) -> Arc<RwLock<GuestMemory>> {
        Arc::clone(&self.inner)
    }
}

impl fmt::Debug for MemoryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemoryHandle({} bytes)", self.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpa_geometry() {
        let g = Gpa::new(4096 * 3 + 17);
        assert_eq!(g.frame(), 3);
        assert_eq!(g.page_offset(), 17);
        assert!(!g.is_page_aligned());
        assert!(Gpa::new(8192).is_page_aligned());
        assert_eq!(g.add(10).raw(), 4096 * 3 + 27);
    }

    #[test]
    fn read_of_untouched_memory_is_zero() {
        let m = GuestMemory::new(64 * 1024);
        let mut buf = [0xFFu8; 16];
        m.read(Gpa::new(1000), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip_across_page_boundary() {
        let mut m = GuestMemory::new(64 * 1024);
        let data: Vec<u8> = (0..=255).collect();
        let gpa = Gpa::new(PAGE_SIZE as u64 - 100);
        m.write(gpa, &data).unwrap();
        let mut out = vec![0u8; 256];
        m.read(gpa, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(m.resident_pages(), 2, "write spans two pages");
    }

    #[test]
    fn read_pieces_borrows_page_bounded_pieces() {
        let mut m = GuestMemory::new(4 * PAGE_SIZE as u64);
        m.write(Gpa::new(PAGE_SIZE as u64 - 2), &[1, 2, 3, 4])
            .unwrap();
        let mut pieces = Vec::new();
        m.read_pieces_stamped(Gpa::new(PAGE_SIZE as u64 - 2), PAGE_SIZE + 4, |p, _| {
            pieces.push(p.to_vec())
        })
        .unwrap();
        let lens: Vec<usize> = pieces.iter().map(Vec::len).collect();
        assert_eq!(lens, [2, PAGE_SIZE, 2], "split at page boundaries");
        assert_eq!(pieces[0], [1, 2]);
        assert_eq!(&pieces[1][..2], &[3, 4]);
        // Page 2 was never written: it reads as zeros without materializing.
        assert_eq!(pieces[2], [0, 0]);
        assert_eq!(m.resident_pages(), 2);
    }

    /// Every piece's page stamp over `[0, len)`.
    fn stamps(m: &GuestMemory, len: usize) -> Vec<u64> {
        let mut out = Vec::new();
        m.read_pieces_stamped(Gpa::new(0), len, |_, s| out.push(s))
            .unwrap();
        out
    }

    #[test]
    fn every_write_call_stamps_the_pages_it_touches() {
        let mut m = GuestMemory::new(4 * PAGE_SIZE as u64);
        assert_eq!(stamps(&m, 4 * PAGE_SIZE), [0; 4], "unwritten pages");
        // One call, two pages, one stamp.
        m.write(Gpa::new(PAGE_SIZE as u64 - 1), &[1, 2]).unwrap();
        m.fill(Gpa::new(3 * PAGE_SIZE as u64), 8, 0xFF).unwrap();
        assert_eq!(stamps(&m, 4 * PAGE_SIZE), [1, 1, 0, 2]);
        // Rewriting the bytes already there still moves the stamp.
        m.write(Gpa::new(PAGE_SIZE as u64), &[2]).unwrap();
        // Pinning, reads and rejected writes stamp nothing.
        m.pin_range(Gpa::new(2 * PAGE_SIZE as u64), PAGE_SIZE)
            .unwrap();
        let mut b = [0u8; 4];
        m.read(Gpa::new(0), &mut b).unwrap();
        assert!(m
            .write(Gpa::new(4 * PAGE_SIZE as u64 - 1), &[0; 2])
            .is_err());
        assert_eq!(stamps(&m, 4 * PAGE_SIZE), [1, 3, 0, 2]);
        // A piece inside a page carries that page's stamp.
        let mut inner = Vec::new();
        m.read_pieces_stamped(Gpa::new(PAGE_SIZE as u64 + 10), 20, |p, s| {
            inner.push((p.len(), s))
        })
        .unwrap();
        assert_eq!(inner, [(20, 3)]);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let mut m = GuestMemory::new(8192);
        assert!(matches!(
            m.write(Gpa::new(8190), &[0; 4]),
            Err(MemError::OutOfBounds { .. })
        ));
        let mut b = [0u8; 1];
        assert!(m.read(Gpa::new(8192), &mut b).is_err());
        // End-of-space access of exact length is fine.
        assert!(m.write(Gpa::new(8188), &[1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn scalar_accessors_are_little_endian() {
        let mut m = GuestMemory::new(4096);
        m.write_u32(Gpa::new(0), 0x1234_5678).unwrap();
        let mut b = [0u8; 4];
        m.read(Gpa::new(0), &mut b).unwrap();
        assert_eq!(b, [0x78, 0x56, 0x34, 0x12]);
        assert_eq!(m.read_u32(Gpa::new(0)).unwrap(), 0x1234_5678);
    }

    #[test]
    fn allocator_hands_out_disjoint_regions() {
        let mut m = GuestMemory::new(10 * PAGE_SIZE as u64);
        let a = m.alloc_pages(2).unwrap();
        let b = m.alloc_pages(3).unwrap();
        assert_eq!(a, Gpa::new(0));
        assert_eq!(b, Gpa::new(2 * PAGE_SIZE as u64));
        let err = m.alloc_pages(100).unwrap_err();
        assert!(matches!(
            err,
            MemError::OutOfMemory {
                available_pages: 5,
                ..
            }
        ));
    }

    #[test]
    fn alloc_bytes_rounds_up() {
        let mut m = GuestMemory::new(10 * PAGE_SIZE as u64);
        let a = m.alloc_bytes(1).unwrap();
        let b = m.alloc_bytes(PAGE_SIZE as u64 + 1).unwrap();
        assert_eq!(b.raw() - a.raw(), PAGE_SIZE as u64);
        let c = m.alloc_bytes(10).unwrap();
        assert_eq!(c.raw() - b.raw(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn pinning_nests_and_unpin_validates() {
        let mut m = GuestMemory::new(4 * PAGE_SIZE as u64);
        let gpa = Gpa::new(100);
        m.pin_range(gpa, 5000).unwrap(); // spans pages 0 and 1
        m.pin_range(gpa, 100).unwrap(); // pins page 0 again
        assert!(m.is_pinned(gpa, 5000));
        m.unpin_range(gpa, 5000).unwrap();
        assert!(m.is_pinned(gpa, 100), "page 0 still pinned once");
        assert!(!m.is_pinned(gpa, 5000), "page 1 fully unpinned");
        m.unpin_range(gpa, 100).unwrap();
        assert!(matches!(
            m.unpin_range(gpa, 100),
            Err(MemError::NotPinnedForUnpin { .. })
        ));
    }

    #[test]
    fn dma_requires_pinning() {
        let h = MemoryHandle::new(64 * 1024);
        let gpa = Gpa::new(0);
        assert!(matches!(
            h.dma_write(gpa, &[1, 2, 3]),
            Err(MemError::NotPinned { .. })
        ));
        h.with_write(|m| m.pin_range(gpa, 3)).unwrap();
        h.dma_write(gpa, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        h.read(gpa, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn dma_partial_pin_is_rejected() {
        let h = MemoryHandle::new(64 * 1024);
        // Pin only the first page, then DMA across into the second.
        h.with_write(|m| m.pin_range(Gpa::new(0), PAGE_SIZE))
            .unwrap();
        let err = h
            .dma_write(Gpa::new(PAGE_SIZE as u64 - 2), &[0u8; 8])
            .unwrap_err();
        assert!(matches!(err, MemError::NotPinned { page_base } if page_base.frame() == 1));
    }

    #[test]
    fn handle_is_shared() {
        let h = MemoryHandle::new(4096);
        let h2 = h.clone();
        h.write(Gpa::new(10), &[42]).unwrap();
        let mut b = [0u8; 1];
        h2.read(Gpa::new(10), &mut b).unwrap();
        assert_eq!(b[0], 42);
    }

    #[test]
    fn pinned_pages_stay_resident_and_back_on_first_dma() {
        let h = MemoryHandle::new(8 * PAGE_SIZE as u64);
        let gpa = Gpa::new(PAGE_SIZE as u64);
        h.with_write(|m| m.pin_range(gpa, PAGE_SIZE)).unwrap();
        h.with_write(|m| m.unpin_range(gpa, PAGE_SIZE)).unwrap();
        assert_eq!(
            h.with_read(|m| m.resident_pages()),
            1,
            "unpin keeps residency"
        );
        h.with_write(|m| m.pin_range(gpa, 2 * PAGE_SIZE)).unwrap();
        let mut out = [0xFFu8; 8];
        h.read(gpa.add(PAGE_SIZE as u64), &mut out).unwrap();
        assert_eq!(out, [0u8; 8], "pinned, never-written page reads as zeros");
        h.dma_write(gpa.add(PAGE_SIZE as u64 + 10), &[7, 8, 9])
            .unwrap();
        let mut back = [0u8; 5];
        h.read(gpa.add(PAGE_SIZE as u64 + 9), &mut back).unwrap();
        assert_eq!(back, [0, 7, 8, 9, 0]);
        assert_eq!(h.with_read(|m| m.resident_pages()), 2);
    }

    #[test]
    fn fill_sets_page_straddling_ranges_and_backs_only_touched_pages() {
        let mut m = GuestMemory::new(8 * PAGE_SIZE as u64);
        // Pages 4..=6 are pinned, so resident but not yet backed.
        m.pin_range(Gpa::new(4 * PAGE_SIZE as u64), 3 * PAGE_SIZE)
            .unwrap();
        m.write(Gpa::new(PAGE_SIZE as u64 - 1), &[9]).unwrap();
        assert_eq!(m.resident_pages(), 4);
        // Straddles pages 0..=2 and leaves its neighbours alone.
        let gpa = Gpa::new(PAGE_SIZE as u64 - 10);
        let len = PAGE_SIZE + 20;
        m.fill(gpa, len, 0xAB).unwrap();
        let mut out = vec![0u8; len + 2];
        m.read(Gpa::new(gpa.raw() - 1), &mut out).unwrap();
        assert_eq!(out[0], 0);
        assert!(
            out[1..=len].iter().all(|&b| b == 0xAB),
            "byte 9 overwritten"
        );
        assert_eq!(out[len + 1], 0);
        // Inside a pinned page: residency is unchanged, storage appears.
        m.fill(Gpa::new(5 * PAGE_SIZE as u64 + 64), 128, 0xFF)
            .unwrap();
        m.fill(Gpa::new(7 * PAGE_SIZE as u64), 0, 0xFF).unwrap();
        assert_eq!(m.resident_pages(), 6, "pages 0..=2 and 4..=6");
        let backed: Vec<usize> = (0..8).filter(|&f| m.pages[f].data.is_some()).collect();
        assert_eq!(backed, [0, 1, 2, 5], "an empty fill backs nothing");
        assert_eq!(
            m.read_u32(Gpa::new(5 * PAGE_SIZE as u64 + 64)).unwrap(),
            u32::MAX
        );
    }

    #[test]
    fn fill_bounds_errors_match_write() {
        let mut m = GuestMemory::new(2 * PAGE_SIZE as u64);
        for (gpa, len) in [(2 * PAGE_SIZE as u64 - 3, 4), (2 * PAGE_SIZE as u64, 1)] {
            let fill = m.fill(Gpa::new(gpa), len, 0xFF).unwrap_err();
            let write = m.write(Gpa::new(gpa), &vec![0xFF; len]).unwrap_err();
            assert_eq!(fill, write);
        }
        let huge = m.fill(Gpa::new(u64::MAX), 2, 0).unwrap_err();
        assert!(matches!(huge, MemError::OutOfBounds { len: 2, .. }));
        assert_eq!(m.resident_pages(), 0, "a rejected fill touches nothing");
    }

    #[test]
    fn pinned_pages_become_resident() {
        let mut m = GuestMemory::new(8 * PAGE_SIZE as u64);
        assert_eq!(m.resident_pages(), 0);
        m.pin_range(Gpa::new(0), 2 * PAGE_SIZE).unwrap();
        assert_eq!(m.resident_pages(), 2);
    }
}
