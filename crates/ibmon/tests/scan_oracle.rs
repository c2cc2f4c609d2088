//! Oracle test for the decode-on-change ring scan.
//!
//! [`Reference`] is the plain algorithm the shadow scan must reproduce:
//! copy the whole ring, garble the torn slot in the copy, decode every slot
//! and diff per-slot signatures. A [`CqMonitor`] and a [`Reference`] watch
//! the same ring through random histories and must report identical
//! [`ScanSample`]s and lifetime counters after every scan.
//!
//! The monitor skips a page of whole slots by its write stamp alone when no
//! write has touched it since its slots last equalled their shadow; the
//! histories rewrite slots with their own bytes (the stamp moves, the bytes
//! do not) and count the scans where such a skip must have happened.
//!
//! A ring page that no CQE ever reaches keeps the 0xFF fill its queue was
//! created with, held by guest memory as a recorded byte without page
//! storage; the histories count the scans that met such a page.

use proptest::prelude::*;
use resex_fabric::{CompletionQueue, CqNum, Cqe, Opcode, QpNum, WcStatus, CQE_SIZE};
use resex_ibmon::{CqMonitor, ScanSample};
use resex_simcore::time::SimTime;
use resex_simmem::{ForeignMapping, Gpa, MemoryHandle, PAGE_SIZE};
use std::ops::Range;

const MTU: u32 = 1024;

type SlotSig = (u64, u16, u8);

fn wrapping_ahead(from: u16, to: u16) -> u16 {
    let d = to.wrapping_sub(from);
    if d < 0x8000 {
        d
    } else {
        0
    }
}

/// The copying scan: snapshot, garble the torn slot, decode every slot.
struct Reference {
    mapping: ForeignMapping,
    capacity: u32,
    sigs: Vec<Option<SlotSig>>,
    latest_counter: Option<u16>,
    primed: bool,
    lifetime_completions: u64,
    lifetime_bytes: u64,
}

impl Reference {
    fn new(mapping: ForeignMapping, capacity: u32) -> Self {
        Reference {
            mapping,
            capacity,
            sigs: vec![None; capacity as usize],
            latest_counter: None,
            primed: false,
            lifetime_completions: 0,
            lifetime_bytes: 0,
        }
    }

    fn scan(&mut self, tear_slot: Option<u32>) -> ScanSample {
        let mut snapshot = vec![0u8; self.capacity as usize * CQE_SIZE];
        self.mapping.read_at(0, &mut snapshot).unwrap();
        if let Some(slot) = tear_slot {
            if slot < self.capacity {
                snapshot[slot as usize * CQE_SIZE + 19] = 0xEE;
            }
        }
        let mut changed = 0u32;
        let mut changed_bytes = 0u64;
        let mut changed_mtus = 0u64;
        let mut torn = 0u32;
        let mut freshest = self.latest_counter;
        for (slot, raw) in snapshot.chunks_exact(CQE_SIZE).enumerate() {
            let decoded = match Cqe::try_decode(raw) {
                Ok(pair) => Some(pair),
                Err(_) if raw.iter().all(|&b| b == 0xFF) => None,
                Err(_) => {
                    torn += 1;
                    continue;
                }
            };
            let sig = decoded.map(|(c, owner)| (c.wr_id, c.wqe_counter, owner));
            if sig != self.sigs[slot] {
                self.sigs[slot] = sig;
                if let Some((cqe, _)) = decoded {
                    changed += 1;
                    changed_bytes += cqe.byte_len as u64;
                    changed_mtus += cqe.byte_len.div_ceil(MTU).max(1) as u64;
                    freshest = Some(match freshest {
                        None => cqe.wqe_counter,
                        Some(f) if wrapping_ahead(f, cqe.wqe_counter) > 0 => cqe.wqe_counter,
                        Some(f) => f,
                    });
                }
            }
        }
        if !self.primed {
            self.primed = true;
            self.latest_counter = freshest;
            return ScanSample {
                torn,
                ..ScanSample::default()
            };
        }
        let counter_delta = match (self.latest_counter, freshest) {
            (Some(old), Some(new)) => wrapping_ahead(old, new) as u64,
            (None, Some(_)) => changed as u64,
            _ => 0,
        };
        self.latest_counter = freshest;
        let completions = counter_delta.max(changed as u64);
        let aliased = counter_delta > changed as u64 || torn > 0;
        let (bytes, mtus) = if changed == 0 {
            (0, 0)
        } else if aliased {
            let scale = completions as f64 / changed as f64;
            (
                (changed_bytes as f64 * scale).round() as u64,
                (changed_mtus as f64 * scale).round() as u64,
            )
        } else {
            (changed_bytes, changed_mtus)
        };
        self.lifetime_completions += completions;
        self.lifetime_bytes += bytes;
        ScanSample {
            completions,
            bytes,
            mtus,
            slots_changed: changed,
            aliased,
            torn,
        }
    }
}

/// One step of a ring history.
#[derive(Clone, Debug)]
enum Op {
    /// The HCA completes `n` work requests; with `poll` the guest consumes
    /// each at once, without it the ring fills and then overruns.
    Complete { n: u32, byte_len: u32, poll: bool },
    /// The guest drains every pending completion.
    Drain,
    /// The HCA's completion counter skips ahead (by ≥ 2^15 it reads as
    /// "behind").
    Jump(u16),
    /// Bytes land in part of a slot through a read-write mapping: garbage
    /// that stays until the HCA overwrites the slot.
    Garbage {
        slot: u32,
        at: usize,
        bytes: Vec<u8>,
    },
    /// A slot's `byte_len` is rewritten in place, keeping its
    /// `(wr_id, wqe_counter, owner)` signature.
    Resize { slot: u32, byte_len: u32 },
    /// A slot's current bytes are written back unchanged: its pages' write
    /// stamps move, its bytes do not.
    Rewrite { slot: u32 },
    /// Both monitors scan, optionally with an injected torn slot. Random
    /// histories reduce it modulo `capacity + 1`, so one value in
    /// `capacity + 1` lands past the ring, where it is ignored.
    Scan(Option<u32>),
}

/// Summary of what a history exercised, for coverage assertions.
#[derive(Default)]
struct Seen {
    scans: u32,
    torn: u32,
    aliased: u32,
    changed: u32,
    /// Scans in which some page of whole slots kept the stamp it had at a
    /// previous scan that saw no torn slot, so the monitor skipped it
    /// without comparing.
    skipping: u32,
    /// Scans in which some piece of the ring still had the stamp the
    /// queue's creation fill gave it: no CQE or other write reached it.
    untouched: u32,
}

/// A CQ ring watched by both monitors.
struct Ring {
    cq: CompletionQueue,
    rw: ForeignMapping,
    monitor: CqMonitor,
    reference: Reference,
    capacity: u32,
    counter: u16,
    wr_id: u64,
    tick: u64,
    seen: Seen,
    /// Per page-bounded piece of the ring, its stamp if it holds whole
    /// slots, as of the last scan; `None` after a scan that saw a torn slot.
    stamps_at_scan: Option<Vec<Option<u64>>>,
    /// Each piece's stamp right after the queue was created.
    created: Vec<u64>,
}

impl Ring {
    /// A ring of `capacity` slots whose base lies `page_offset` bytes into
    /// a page; an offset that is not a multiple of 32 makes slots straddle
    /// page boundaries.
    fn new(capacity: u32, page_offset: usize, first_counter: u16) -> Ring {
        let mem = MemoryHandle::new(16 * PAGE_SIZE as u64);
        let gpa = Gpa::new((PAGE_SIZE + page_offset) as u64);
        let len = capacity as usize * CQE_SIZE;
        let cq = CompletionQueue::new(CqNum::new(0), mem.clone(), gpa, capacity).unwrap();
        let map = || ForeignMapping::map(&mem, gpa, len).unwrap();
        let mut ring = Ring {
            cq,
            rw: ForeignMapping::map_rw(&mem, gpa, len).unwrap(),
            monitor: CqMonitor::new(map(), capacity, MTU).unwrap(),
            reference: Reference::new(map(), capacity),
            capacity,
            counter: first_counter,
            wr_id: 0,
            tick: 0,
            seen: Seen::default(),
            stamps_at_scan: None,
            created: Vec::new(),
        };
        ring.created = ring.pieces().into_iter().map(|(_, stamp)| stamp).collect();
        ring
    }

    fn slot_offset(&self, slot: u32) -> usize {
        (slot % self.capacity) as usize * CQE_SIZE
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Complete { n, byte_len, poll } => {
                for i in 0..n % (3 * self.capacity + 1) {
                    self.cq
                        .push(Cqe {
                            wr_id: self.wr_id,
                            qp_num: QpNum::new(1),
                            byte_len: byte_len.wrapping_add(i * 4096),
                            wqe_counter: self.counter,
                            opcode: Opcode::Send,
                            status: WcStatus::Success,
                            imm_data: 0,
                        })
                        .unwrap();
                    self.wr_id += 1;
                    self.counter = self.counter.wrapping_add(1);
                    if poll {
                        self.cq.poll().unwrap();
                    }
                }
            }
            Op::Drain => while self.cq.poll().unwrap().is_some() {},
            Op::Jump(by) => self.counter = self.counter.wrapping_add(by),
            Op::Garbage { slot, at, bytes } => {
                // Only over consumed slots: the guest's own poll must never
                // meet garbage (the HCA overwrites a slot before it is
                // pending again).
                if self.cq.depth() == 0 {
                    let n = bytes.len().min(CQE_SIZE - at);
                    let off = self.slot_offset(slot) + at;
                    self.rw.write_at(off, &bytes[..n]).unwrap();
                }
            }
            Op::Resize { slot, byte_len } => {
                let off = self.slot_offset(slot) + 12;
                self.rw.write_at(off, &byte_len.to_le_bytes()).unwrap();
            }
            Op::Rewrite { slot } => {
                let off = self.slot_offset(slot);
                let mut raw = [0u8; CQE_SIZE];
                self.rw.read_at(off, &mut raw).unwrap();
                self.rw.write_at(off, &raw).unwrap();
            }
            Op::Scan(tear) => self.scan(tear.map(|t| t % (self.capacity + 1)))?,
        }
        Ok(())
    }

    /// Each page-bounded piece of the ring: its byte range and stamp.
    fn pieces(&self) -> Vec<(Range<usize>, u64)> {
        let mut pos = 0;
        let mut out = Vec::new();
        let len = self.capacity as usize * CQE_SIZE;
        self.rw
            .read_pieces_stamped(0, len, |piece, stamp| {
                out.push((pos..pos + piece.len(), stamp));
                pos += piece.len();
            })
            .unwrap();
        out
    }

    /// Each piece's stamp, or `None` for a piece that does not start and
    /// end on a slot boundary.
    fn piece_stamps(&self) -> Vec<Option<u64>> {
        let whole =
            |r: &Range<usize>| r.start.is_multiple_of(CQE_SIZE) && r.len().is_multiple_of(CQE_SIZE);
        let pieces = self.pieces().into_iter();
        pieces
            .map(|(r, stamp)| whole(&r).then_some(stamp))
            .collect()
    }

    /// Byte ranges of the pieces that still have their creation stamp.
    fn untouched_pieces(&self) -> Vec<Range<usize>> {
        let pieces = self.pieces().into_iter().zip(&self.created);
        pieces
            .filter(|((_, now), then)| now == *then)
            .map(|((r, _), _)| r)
            .collect()
    }

    fn scan(&mut self, tear: Option<u32>) -> Result<(), TestCaseError> {
        let stamps = self.piece_stamps();
        if let Some(before) = &self.stamps_at_scan {
            let quiet = before
                .iter()
                .zip(&stamps)
                .any(|(a, b)| a.is_some() && a == b);
            self.seen.skipping += quiet as u32;
        }
        self.seen.untouched += !self.untouched_pieces().is_empty() as u32;
        self.tick += 1;
        let now = SimTime::from_millis(self.tick);
        let got = self.monitor.scan_faulted(now, tear).unwrap();
        let want = self.reference.scan(tear);
        prop_assert_eq!(got, want, "scan {} (tear {:?})", self.tick, tear);
        prop_assert_eq!(
            self.monitor.lifetime_completions(),
            self.reference.lifetime_completions
        );
        prop_assert_eq!(self.monitor.lifetime_bytes(), self.reference.lifetime_bytes);
        self.seen.scans += 1;
        self.seen.torn += got.torn;
        self.seen.aliased += got.aliased as u32;
        self.seen.changed += got.slots_changed;
        self.stamps_at_scan = (got.torn == 0).then_some(stamps);
        Ok(())
    }
}

fn op() -> impl Strategy<Value = Op> {
    let small = || {
        (0u32..8, 0u32..(1 << 21), any::<bool>()).prop_map(|(n, byte_len, poll)| Op::Complete {
            n,
            byte_len,
            poll,
        })
    };
    let scan = || prop::option::of(any::<u32>()).prop_map(Op::Scan);
    prop_oneof![
        small(),
        small(),
        small(),
        (any::<u32>(), 0u32..(1 << 21), any::<bool>())
            .prop_map(|(n, byte_len, poll)| Op::Complete { n, byte_len, poll }),
        Just(Op::Drain),
        any::<u16>().prop_map(Op::Jump),
        (
            any::<u32>(),
            0usize..CQE_SIZE,
            prop::collection::vec(any::<u8>(), 1..CQE_SIZE)
        )
            .prop_map(|(slot, at, bytes)| Op::Garbage { slot, at, bytes }),
        (any::<u32>(), any::<u32>()).prop_map(|(slot, byte_len)| Op::Resize { slot, byte_len }),
        any::<u32>().prop_map(|slot| Op::Rewrite { slot }),
        scan(),
        scan(),
        scan(),
    ]
}

proptest! {
    /// Random histories — wraps of the ring and of the u16 counter,
    /// overruns, garbage, in-place rewrites, tears, several intervals
    /// between scans — over every ring size the simulator uses, at aligned
    /// and straddling bases.
    #[test]
    fn shadow_scan_matches_the_copying_reference(
        capacity in prop_oneof![Just(4u32), Just(8), Just(16), Just(1024)],
        page_offset in prop_oneof![
            Just(0usize),
            (0usize..PAGE_SIZE / CQE_SIZE).prop_map(|s| s * CQE_SIZE),
            1usize..PAGE_SIZE,
        ],
        first_counter in prop_oneof![Just(0u16), Just(u16::MAX - 2), any::<u16>()],
        ops in prop::collection::vec(op(), 1..48),
    ) {
        let mut ring = Ring::new(capacity, page_offset, first_counter);
        for op in ops {
            ring.apply(op)?;
        }
        ring.scan(None)?;
    }
}

fn complete(n: u32, byte_len: u32) -> Op {
    Op::Complete {
        n,
        byte_len,
        poll: true,
    }
}

/// Every case the shadow must get right, in one fixed history, on a
/// 1024-slot page-aligned ring, on a small ring of whole slots split across
/// two pages, and on rings whose slots straddle a page boundary.
#[test]
fn fixed_history_matches_the_copying_reference() {
    for (capacity, page_offset) in [
        (1024, 0),
        (16, PAGE_SIZE - 8 * CQE_SIZE),
        (1024, 16),
        (8, PAGE_SIZE - 100),
        (4, PAGE_SIZE - 40),
    ] {
        let mut ring = Ring::new(capacity, page_offset, u16::MAX - 3);
        let history = [
            Op::Scan(None),
            // Counter wraps through u16::MAX.
            complete(6, 65536),
            Op::Scan(None),
            // A tear on an empty slot, then on an untouched far slot.
            Op::Scan(Some(capacity - 1)),
            Op::Scan(Some(capacity / 2)),
            // Tear the slot that just changed, then recover it.
            complete(1, 4096),
            Op::Scan(Some(6 % capacity)),
            Op::Scan(None),
            // Multi-wrap aliasing: many completions between scans.
            complete(5 * capacity / 2 + 3, 2048),
            Op::Scan(None),
            // Skipped scans: several intervals of traffic, one scan.
            complete(2, 100),
            complete(3, 200),
            Op::Scan(Some(capacity)),
            // Persistent garbage counts as torn on every scan.
            Op::Garbage {
                slot: 1,
                at: 3,
                bytes: vec![0x42; 20],
            },
            Op::Scan(None),
            Op::Scan(None),
            // Same signature, different byte_len: not a change.
            Op::Resize {
                slot: 2,
                byte_len: 777,
            },
            Op::Scan(None),
            // Bytes written back unchanged, away from the garbage: the
            // stamp moves, nothing else. Tear the slot, then skip its page.
            Op::Rewrite {
                slot: capacity / 2 + 1,
            },
            Op::Scan(Some(capacity / 2 + 1)),
            Op::Scan(None),
            // Overrun: no polls until the ring is full and then some.
            Op::Complete {
                n: capacity + 3,
                byte_len: 512,
                poll: false,
            },
            Op::Scan(None),
            Op::Drain,
            // A counter jump that reads as "behind".
            Op::Jump(0x9000),
            complete(2, 64),
            Op::Scan(None),
            // The HCA overwrites the garbage: torn no more.
            complete(capacity, 1024),
            Op::Scan(None),
        ];
        for op in history {
            ring.apply(op).unwrap();
        }
        let seen = &ring.seen;
        assert_eq!(seen.scans, 16);
        assert!(
            seen.torn >= 4,
            "cap {capacity}: tears and garbage were seen"
        );
        assert!(seen.aliased >= 2, "cap {capacity}: aliasing was seen");
        assert!(seen.changed > capacity, "cap {capacity}: changes were seen");
        if page_offset % CQE_SIZE == 0 {
            assert!(seen.skipping > 0, "cap {capacity}: stamp skips were taken");
        }
        assert_eq!(ring.monitor.scan(SimTime::ZERO).unwrap().torn, 0);
    }
}

/// Ring pages that no CQE reaches keep their creation fill of 0xFF, held
/// without page storage. Tears land in them and the monitor skips them by
/// stamp; it must still report what the copying reference reports, on a
/// page-aligned ring, on one whose slots straddle pages and on a small ring
/// split across two pages.
#[test]
fn untouched_ring_pages_scan_like_the_reference() {
    for (capacity, page_offset) in [(1024, 0), (1024, 16), (16, PAGE_SIZE - 8 * CQE_SIZE)] {
        let mut ring = Ring::new(capacity, page_offset, 7);
        let history = [
            Op::Scan(None),
            complete(5, 4096),
            Op::Scan(None),
            // A tear in the last slot, far from every CQE.
            Op::Scan(Some(capacity - 1)),
            Op::Scan(None),
            complete(2, 100),
            Op::Rewrite { slot: 1 },
            Op::Scan(Some(capacity / 2)),
            Op::Scan(None),
            Op::Scan(None),
        ];
        for op in history {
            ring.apply(op).unwrap();
        }
        let untouched = ring.untouched_pieces();
        assert!(
            untouched.iter().any(|r| r.start >= 7 * CQE_SIZE),
            "cap {capacity}: pages past the CQEs kept their creation stamp"
        );
        for range in untouched {
            let mut raw = vec![0u8; range.len()];
            ring.rw.read_at(range.start, &mut raw).unwrap();
            assert!(raw.iter().all(|&b| b == 0xFF), "{range:?} is still empty");
        }
        assert_eq!(ring.seen.untouched, ring.seen.scans);
        assert_eq!(ring.seen.torn, 2, "cap {capacity}: both tears were seen");
        if page_offset % CQE_SIZE == 0 {
            assert!(
                ring.seen.skipping > 0,
                "cap {capacity}: stamp skips were taken"
            );
        }
    }
}
