//! Guest physical address spaces.

use crate::error::MemError;
use parking_lot::RwLock;
use std::fmt;
use std::ops::Range;
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

/// Every byte of a frame the table does not reach, or of a frame whose
/// storage is not allocated after a whole-page fill with 0x00.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
/// Every byte of a frame whose storage is not allocated after a whole-page
/// fill with 0xFF (a fresh completion ring).
static ONES_PAGE: [u8; PAGE_SIZE] = [0xFF; PAGE_SIZE];

struct PageState {
    /// The page's bytes, allocated by the first write that does not cover
    /// the whole page with 0x00 or 0xFF; until then every byte is `fill`.
    data: Option<Box<[u8; PAGE_SIZE]>>,
    /// Write clock of the last write that touched the page; 0 if none did.
    stamp: u64,
    /// The byte every position holds while `data` is `None`: 0x00 or 0xFF.
    fill: u8,
    /// Pinned for DMA. Registrations are never undone, so pins are too.
    pinned: bool,
}

// The table reaches only the highest frame ever pinned or written, so the
// 8-byte stamp beside the box costs 24 bytes per touched page, not per
// page of address space.
const _: () = assert!(std::mem::size_of::<PageState>() == 24);

impl PageState {
    const fn empty() -> Self {
        PageState {
            data: None,
            stamp: 0,
            fill: 0,
            pinned: false,
        }
    }

    /// Ever pinned or written.
    fn resident(&self) -> bool {
        self.pinned || self.stamp != 0
    }

    fn bytes(&self) -> &[u8; PAGE_SIZE] {
        match (&self.data, self.fill) {
            (Some(data), _) => data,
            (None, 0) => &ZERO_PAGE,
            (None, _) => &ONES_PAGE,
        }
    }
}

/// A single domain's guest-physical memory.
///
/// Only touched memory costs anything. The page-state table covers frames
/// up to the highest one ever pinned or written and grows on demand;
/// frames past its end read as zeros with stamp 0. A page gets storage on
/// its first write, pinned or not, unless that write sets the whole page
/// to 0x00 or 0xFF: then only the byte is recorded, and reads borrow a
/// static page. A simple bump allocator hands out page-aligned regions for
/// application buffers and queue rings from address 0 upward, so the
/// touched frames form a compact prefix.
///
/// Every write call ticks a write clock and stamps each page it touches
/// with the new value, so a reader that remembers a page's stamp can tell,
/// without comparing bytes, that no write has touched the page since.
pub struct GuestMemory {
    /// State of frames `0..pages.len()`.
    pages: Vec<PageState>,
    /// Size of the address space in pages.
    frames: u64,
    alloc_next: u64,
    /// Stamp of the latest write call; 0 before the first.
    clock: u64,
}

impl GuestMemory {
    /// Creates an address space of `size_bytes` (rounded up to whole pages).
    pub fn new(size_bytes: u64) -> Self {
        GuestMemory {
            pages: Vec::new(),
            frames: size_bytes.div_ceil(PAGE_SIZE as u64),
            alloc_next: 0,
            clock: 0,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.frames * PAGE_SIZE as u64
    }

    /// Number of resident pages: every page that has ever been pinned or
    /// written. A pinned page counts even before its storage is allocated,
    /// as a real pinned page would be faulted in at registration.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.resident()).count()
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

    /// The frames `[gpa, gpa+len)` overlaps, none for an empty range,
    /// with the table grown to cover them. The range must be in bounds.
    fn cover(&mut self, gpa: Gpa, len: usize) -> Range<usize> {
        if len == 0 {
            return 0..0;
        }
        let first = gpa.frame() as usize;
        let end = gpa.add(len as u64 - 1).frame() as usize + 1;
        if end > self.pages.len() {
            self.pages.resize_with(end, PageState::empty);
        }
        first..end
    }

    fn is_frame_pinned(&self, frame: u64) -> bool {
        self.pages.get(frame as usize).is_some_and(|p| p.pinned)
    }

    /// Allocates `n_pages` contiguous pages; returns the base address.
    pub fn alloc_pages(&mut self, n_pages: u64) -> Result<Gpa, MemError> {
        let free = self.frames - self.alloc_next;
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
        self.check_range(gpa, len)?;
        let mut addr = gpa.raw();
        let mut done = 0;
        while done < len {
            let frame = (addr / PAGE_SIZE as u64) as usize;
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(len - done);
            let (page, stamp) = match self.pages.get(frame) {
                Some(state) => (state.bytes(), state.stamp),
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
        self.write_pieces(gpa, buf.len(), None, |done, piece| {
            piece.copy_from_slice(&buf[done..done + piece.len()]);
        })
    }

    /// Sets `[gpa, gpa+len)` to `byte` in one pass with no staging buffer;
    /// otherwise the same as [`GuestMemory::write`] of `len` copies. A page
    /// the range covers whole with 0x00 or 0xFF gets no storage (and drops
    /// any it had): the byte is recorded instead.
    pub fn fill(&mut self, gpa: Gpa, len: usize, byte: u8) -> Result<(), MemError> {
        let lazy = matches!(byte, 0x00 | 0xFF).then_some(byte);
        self.write_pieces(gpa, len, lazy, |_, piece| piece.fill(byte))
    }

    /// Mutable [`GuestMemory::read_pieces_stamped`]; `f` gets each piece's
    /// offset. Ticks the write clock once and stamps every page touched. A
    /// whole-page piece becomes `lazy`'s byte without storage, if given.
    fn write_pieces(
        &mut self,
        gpa: Gpa,
        len: usize,
        lazy: Option<u8>,
        mut f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), MemError> {
        self.check_range(gpa, len)?;
        self.clock += 1;
        let stamp = self.clock;
        self.cover(gpa, len);
        let mut addr = gpa.raw();
        let mut done = 0;
        while done < len {
            let frame = (addr / PAGE_SIZE as u64) as usize;
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(len - done);
            let state = &mut self.pages[frame];
            state.stamp = stamp;
            match lazy {
                Some(byte) if n == PAGE_SIZE => {
                    state.data = None;
                    state.fill = byte;
                }
                _ => {
                    let fill = state.fill;
                    let page = state
                        .data
                        .get_or_insert_with(|| Box::new([fill; PAGE_SIZE]));
                    f(done, &mut page[off..off + n]);
                }
            }
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
    /// behaviour of RDMA memory regions) for the life of the address space;
    /// an empty range pins nothing.
    ///
    /// Pinning only marks: a pinned page becomes resident (see
    /// [`GuestMemory::resident_pages`]) but gets storage on its first
    /// write, like any other page, and reads as zeros until then. A 2 MiB
    /// region that the HCA never writes therefore costs no page storage.
    pub fn pin_range(&mut self, gpa: Gpa, len: usize) -> Result<(), MemError> {
        self.check_range(gpa, len)?;
        let frames = self.cover(gpa, len);
        for page in &mut self.pages[frames] {
            page.pinned = true;
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
        (first..=last).all(|f| self.is_frame_pinned(f))
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
            let last = gpa.add(buf.len().saturating_sub(1) as u64).frame();
            if let Some(frame) = (gpa.frame()..=last).find(|&f| !m.is_frame_pinned(f)) {
                return Err(MemError::NotPinned {
                    page_base: Gpa::new(frame * PAGE_SIZE as u64),
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
    fn pins_are_idempotent_and_per_page() {
        let mut m = GuestMemory::new(4 * PAGE_SIZE as u64);
        let gpa = Gpa::new(100);
        m.pin_range(gpa, 100).unwrap(); // page 0
        assert!(m.is_pinned(gpa, 100));
        assert!(!m.is_pinned(gpa, 5000), "page 1 not pinned yet");
        m.pin_range(gpa, 5000).unwrap(); // pages 0 and 1, page 0 again
        assert!(m.is_pinned(gpa, 5000));
        assert!(!m.is_pinned(Gpa::new(2 * PAGE_SIZE as u64), 1));
        assert_eq!(m.resident_pages(), 2);
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
        h.with_write(|m| m.pin_range(gpa, 2 * PAGE_SIZE)).unwrap();
        assert_eq!(h.with_read(|m| m.resident_pages()), 2);
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
        let backed: Vec<usize> = (0..8).filter(|&f| backed(&m, f)).collect();
        assert_eq!(backed, [0, 1, 2, 5], "an empty fill backs nothing");
        assert_eq!(
            m.read_u32(Gpa::new(5 * PAGE_SIZE as u64 + 64)).unwrap(),
            u32::MAX
        );
    }

    fn backed(m: &GuestMemory, frame: usize) -> bool {
        m.pages.get(frame).is_some_and(|p| p.data.is_some())
    }

    #[test]
    fn whole_page_fills_of_zero_or_ones_back_nothing() {
        let mut m = GuestMemory::new(8 * PAGE_SIZE as u64);
        // Pages 1 and 2 whole, plus 16 bytes of page 3.
        let gpa = Gpa::new(PAGE_SIZE as u64);
        m.fill(gpa, 2 * PAGE_SIZE + 16, 0xFF).unwrap();
        assert_eq!(m.pages.len(), 4, "the table reaches the last page touched");
        let backed_now: Vec<usize> = (0..8).filter(|&f| backed(&m, f)).collect();
        assert_eq!(backed_now, [3], "only the partial page has storage");
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(stamps(&m, 4 * PAGE_SIZE), [0, 1, 1, 1]);
        let mut out = vec![0u8; 2 * PAGE_SIZE + 17];
        m.read(gpa, &mut out).unwrap();
        assert!(out[..2 * PAGE_SIZE + 16].iter().all(|&b| b == 0xFF));
        assert_eq!(out[2 * PAGE_SIZE + 16], 0);
        // A partial write materializes the page with the filled byte.
        m.write(Gpa::new(2 * PAGE_SIZE as u64 + 5), &[7]).unwrap();
        assert!(backed(&m, 2));
        m.read(gpa, &mut out).unwrap();
        assert_eq!(out[PAGE_SIZE + 5], 7);
        assert_eq!(
            out.iter().filter(|&&b| b == 0xFF).count(),
            2 * PAGE_SIZE + 15
        );
        // A whole-page fill drops storage; other bytes allocate it.
        m.fill(Gpa::new(2 * PAGE_SIZE as u64), PAGE_SIZE, 0)
            .unwrap();
        m.fill(Gpa::new(5 * PAGE_SIZE as u64), PAGE_SIZE, 0x5A)
            .unwrap();
        let backed_now: Vec<usize> = (0..8).filter(|&f| backed(&m, f)).collect();
        assert_eq!(backed_now, [3, 5]);
        assert_eq!(m.read_u32(Gpa::new(2 * PAGE_SIZE as u64 + 4)).unwrap(), 0);
        assert_eq!(stamps(&m, 6 * PAGE_SIZE), [0, 1, 3, 1, 0, 4]);
        // Frames past the table read as untouched; bounds are unchanged.
        assert_eq!(m.read_u32(Gpa::new(8 * PAGE_SIZE as u64 - 4)).unwrap(), 0);
        assert!(m.read_u32(Gpa::new(8 * PAGE_SIZE as u64 - 3)).is_err());
        assert!(!m.is_pinned(Gpa::new(7 * PAGE_SIZE as u64), 1));
        assert_eq!(m.size(), 8 * PAGE_SIZE as u64);
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
