//! Oracle test for the on-demand guest memory.
//!
//! [`Flat`] is the plain model: the whole address space as bytes, plus a
//! write stamp and a pin flag per page. A [`MemoryHandle`] and a [`Flat`]
//! run the same random operations (writes, DMA writes, fills, pins) and
//! must agree on every result and error, on every byte and page stamp a
//! read lends, on `is_pinned` and on `resident_pages`.
//!
//! The real memory keeps its page table only up to the highest page ever
//! pinned or written and gives a page storage only when a write needs it:
//! a whole-page fill with 0x00 or 0xFF records the byte instead. The
//! histories read past the touched prefix, fill over pages that already
//! have storage and write into pages that only a fill has touched.

use proptest::prelude::*;
use resex_simmem::{Gpa, MemError, MemoryHandle, PAGE_SIZE};
use std::ops::RangeInclusive;

/// Pages in the address space under test.
const PAGES: usize = 12;
const SIZE: usize = PAGES * PAGE_SIZE;

/// The reference: every byte, stamp and pin of the space, kept flat.
struct Flat {
    bytes: Vec<u8>,
    stamps: Vec<u64>,
    pinned: Vec<bool>,
    clock: u64,
}

impl Flat {
    fn new() -> Self {
        Flat {
            bytes: vec![0; SIZE],
            stamps: vec![0; PAGES],
            pinned: vec![false; PAGES],
            clock: 0,
        }
    }

    fn check(at: usize, len: usize) -> Result<(), MemError> {
        match at.checked_add(len) {
            Some(end) if end <= SIZE => Ok(()),
            _ => Err(MemError::OutOfBounds {
                gpa: Gpa::new(at as u64),
                len,
                size: SIZE as u64,
            }),
        }
    }

    /// Pages overlapping `[at, at+len)`; an empty range names `at`'s page.
    fn frames(at: usize, len: usize) -> RangeInclusive<usize> {
        at / PAGE_SIZE..=(at + len.saturating_sub(1)) / PAGE_SIZE
    }

    fn write(&mut self, at: usize, data: &[u8]) -> Result<(), MemError> {
        Self::check(at, data.len())?;
        self.clock += 1;
        if !data.is_empty() {
            self.bytes[at..at + data.len()].copy_from_slice(data);
            for f in Self::frames(at, data.len()) {
                self.stamps[f] = self.clock;
            }
        }
        Ok(())
    }

    fn dma_write(&mut self, at: usize, data: &[u8]) -> Result<(), MemError> {
        Self::check(at, data.len())?;
        if let Some(f) = Self::frames(at, data.len()).find(|&f| !self.pinned[f]) {
            return Err(MemError::NotPinned {
                page_base: Gpa::new((f * PAGE_SIZE) as u64),
            });
        }
        self.write(at, data)
    }

    /// Pins the pages overlapping `[at, at+len)`: none for an empty range.
    fn pin(&mut self, at: usize, len: usize) -> Result<(), MemError> {
        Self::check(at, len)?;
        if len > 0 {
            for f in Self::frames(at, len) {
                self.pinned[f] = true;
            }
        }
        Ok(())
    }

    fn is_pinned(&self, at: usize, len: usize) -> bool {
        // An empty range at the end of the space names the page past it.
        Self::check(at, len).is_ok() && Self::frames(at, len).all(|f| f < PAGES && self.pinned[f])
    }

    fn resident_pages(&self) -> usize {
        (0..PAGES)
            .filter(|&f| self.pinned[f] || self.stamps[f] != 0)
            .count()
    }
}

/// One step of a history.
#[derive(Clone, Debug)]
enum Op {
    /// A guest write of `len` bytes counting up from `seed`.
    Write {
        at: usize,
        len: usize,
        seed: u8,
    },
    /// The same through the DMA path, which needs every page pinned.
    DmaWrite {
        at: usize,
        len: usize,
        seed: u8,
    },
    Fill {
        at: usize,
        len: usize,
        byte: u8,
    },
    Pin {
        at: usize,
        len: usize,
    },
    Read {
        at: usize,
        len: usize,
    },
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
}

/// Runs `op` on both and compares results; reads compare every piece.
fn apply(mem: &MemoryHandle, flat: &mut Flat, op: &Op) -> Result<(), TestCaseError> {
    match *op {
        Op::Write { at, len, seed } => {
            let data = pattern(len, seed);
            let got = mem.write(Gpa::new(at as u64), &data);
            prop_assert_eq!(got, flat.write(at, &data), "{:?}", op);
        }
        Op::DmaWrite { at, len, seed } => {
            let data = pattern(len, seed);
            let got = mem.dma_write(Gpa::new(at as u64), &data);
            prop_assert_eq!(got, flat.dma_write(at, &data), "{:?}", op);
        }
        Op::Fill { at, len, byte } => {
            let got = mem.with_write(|m| m.fill(Gpa::new(at as u64), len, byte));
            prop_assert_eq!(got, flat.write(at, &vec![byte; len]), "{:?}", op);
        }
        Op::Pin { at, len } => {
            let got = mem.with_write(|m| m.pin_range(Gpa::new(at as u64), len));
            prop_assert_eq!(got, flat.pin(at, len), "{:?}", op);
        }
        Op::Read { at, len } => {
            let mut pieces = Vec::new();
            let got = mem.with_read(|m| {
                m.read_pieces_stamped(Gpa::new(at as u64), len, |p, s| {
                    pieces.push((p.to_vec(), s))
                })
            });
            prop_assert_eq!(got, Flat::check(at, len), "{:?}", op);
            let mut pos = at;
            for (piece, stamp) in &pieces {
                let page = pos / PAGE_SIZE;
                prop_assert!(
                    !piece.is_empty() && (pos + piece.len() - 1) / PAGE_SIZE == page,
                    "{:?}: piece at {} of {} bytes is not page-bounded",
                    op,
                    pos,
                    piece.len()
                );
                prop_assert!(
                    piece[..] == flat.bytes[pos..pos + piece.len()],
                    "{:?}: bytes differ in page {}",
                    op,
                    page
                );
                prop_assert_eq!(
                    *stamp,
                    flat.stamps[page],
                    "{:?}: stamp of page {}",
                    op,
                    page
                );
                pos += piece.len();
            }
            if got.is_ok() {
                prop_assert_eq!(pos, at + len, "{:?}: pieces cover the range", op);
            }
        }
    }
    let (resident, size) = mem.with_read(|m| (m.resident_pages(), m.size()));
    prop_assert_eq!(resident, flat.resident_pages(), "after {:?}", op);
    prop_assert_eq!(size, SIZE as u64);
    for f in 0..PAGES {
        let gpa = Gpa::new((f * PAGE_SIZE) as u64);
        let got = mem.with_read(|m| m.is_pinned(gpa, PAGE_SIZE));
        prop_assert_eq!(got, flat.pinned[f], "page {} pin after {:?}", f, op);
    }
    if let Op::Pin { at, len } | Op::Read { at, len } = *op {
        let got = mem.with_read(|m| m.is_pinned(Gpa::new(at as u64), len));
        prop_assert_eq!(got, flat.is_pinned(at, len), "is_pinned {:?}", op);
    }
    Ok(())
}

/// Replays `ops` on a fresh pair, then reads the whole space back.
fn replay(ops: &[Op]) -> Result<(), TestCaseError> {
    let mem = MemoryHandle::new(SIZE as u64);
    let mut flat = Flat::new();
    for op in ops {
        apply(&mem, &mut flat, op)?;
    }
    apply(&mem, &mut flat, &Op::Read { at: 0, len: SIZE })
}

/// Start addresses: anywhere (a few past the end), page-aligned, or in the
/// space's last page.
fn addr() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..SIZE + 64,
        (0usize..=PAGES).prop_map(|p| p * PAGE_SIZE),
        (SIZE - PAGE_SIZE)..=SIZE,
    ]
}

/// Lengths: short, up to three pages, or whole pages.
fn length() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..64,
        0usize..3 * PAGE_SIZE,
        (1usize..4).prop_map(|n| n * PAGE_SIZE),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let byte = || prop_oneof![Just(0u8), Just(0xFFu8), any::<u8>()];
    prop_oneof![
        (addr(), length(), any::<u8>()).prop_map(|(at, len, seed)| Op::Write { at, len, seed }),
        (addr(), 1usize..2 * PAGE_SIZE, any::<u8>()).prop_map(|(at, len, seed)| Op::DmaWrite {
            at,
            len,
            seed
        }),
        (addr(), length(), byte()).prop_map(|(at, len, byte)| Op::Fill { at, len, byte }),
        (0usize..PAGES, 1usize..4, byte()).prop_map(|(page, n, byte)| Op::Fill {
            at: page * PAGE_SIZE,
            len: n * PAGE_SIZE,
            byte,
        }),
        (addr(), length()).prop_map(|(at, len)| Op::Pin { at, len }),
        (addr(), length()).prop_map(|(at, len)| Op::Read { at, len }),
        (addr(), length()).prop_map(|(at, len)| Op::Read { at, len }),
    ]
}

proptest! {
    /// Random histories over a twelve-page space: writes, DMA writes,
    /// fills (whole-page 0x00/0xFF, other bytes, unaligned), pins and
    /// reads, in and out of bounds.
    #[test]
    fn lazy_memory_matches_the_flat_reference(ops in prop::collection::vec(op(), 1..40)) {
        replay(&ops)?;
    }
}

/// Every case the lazy paths must get right, in one fixed history.
#[test]
fn fixed_history_matches_the_flat_reference() {
    let page = |p: usize| p * PAGE_SIZE;
    let history = [
        // Nothing touched: the table is empty, the last page reads as zero.
        Op::Read {
            at: page(PAGES - 1),
            len: PAGE_SIZE,
        },
        // A ring-style fill: whole pages of 0xFF and a partial tail page.
        Op::Fill {
            at: page(1),
            len: 2 * PAGE_SIZE + 100,
            byte: 0xFF,
        },
        // Past the highest touched page, and across its end.
        Op::Read {
            at: page(3) + 50,
            len: 2 * PAGE_SIZE,
        },
        // A partial write into a page only the lazy fill touched.
        Op::Write {
            at: page(2) + 7,
            len: 9,
            seed: 1,
        },
        Op::Read {
            at: page(2),
            len: PAGE_SIZE,
        },
        // Whole-page fills over a page with storage: 0x00, then 0xFF, then
        // another byte, then partial 0x00.
        Op::Fill {
            at: page(2),
            len: PAGE_SIZE,
            byte: 0,
        },
        Op::Fill {
            at: page(2),
            len: PAGE_SIZE,
            byte: 0xFF,
        },
        Op::Fill {
            at: page(1),
            len: 2 * PAGE_SIZE,
            byte: 0x5A,
        },
        Op::Fill {
            at: page(1) + 1,
            len: PAGE_SIZE,
            byte: 0,
        },
        // Pin far out, then DMA into and just past the pinned range.
        Op::Pin {
            at: page(8) + 10,
            len: PAGE_SIZE,
        },
        Op::DmaWrite {
            at: page(9) + 4000,
            len: 90,
            seed: 3,
        },
        Op::DmaWrite {
            at: page(9) + 4000,
            len: 96,
            seed: 3,
        },
        // The last page of the space, exactly to the end and one past.
        Op::Write {
            at: SIZE - 3,
            len: 3,
            seed: 9,
        },
        Op::Fill {
            at: page(PAGES - 1),
            len: PAGE_SIZE + 1,
            byte: 0xFF,
        },
        Op::Fill {
            at: page(PAGES - 1),
            len: PAGE_SIZE,
            byte: 0xFF,
        },
        // Empty pins pin nothing, even at the end of the space.
        Op::Pin { at: SIZE, len: 0 },
        Op::Pin {
            at: page(6),
            len: 0,
        },
        // Empty writes tick the clock and stamp nothing.
        Op::Fill {
            at: SIZE,
            len: 0,
            byte: 0xFF,
        },
        Op::Write {
            at: page(5),
            len: 0,
            seed: 0,
        },
        Op::Read {
            at: page(PAGES - 1) - 1,
            len: PAGE_SIZE + 1,
        },
    ];
    replay(&history).unwrap();
}
