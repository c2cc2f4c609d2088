//! Out-of-band completion-queue scanning.
//!
//! IBMon's core trick (paper §III, ref. 19): dom0 maps the guest pages holding
//! a CQ ring and periodically re-reads them. The HCA keeps DMA-writing CQEs
//! into the same pages, so diffing successive scans reveals how many
//! completions happened, for which QP, and with what byte counts — without
//! any cooperation from the bypassed guest.
//!
//! Two estimators are combined:
//!
//! * **Slot diffing** — a slot whose `(wr_id, wqe_counter, owner)` signature
//!   changed since the last scan was overwritten by the HCA.
//! * **`wqe_counter` deltas** — the HCA stamps CQEs with a wrapping 16-bit
//!   completion counter; the wrapping distance between the freshest counters
//!   of consecutive scans counts completions even when the ring wrapped
//!   multiple times between polls (slot diffing alone would alias).
//!
//! Scans are zero-copy and decode on change. The monitor keeps a *shadow*:
//! the last non-torn bytes it read from every slot (all `0xFF`, the empty
//! pattern, until the HCA first writes one). A scan borrows the ring one
//! page at a time through [`ForeignMapping::read_pieces_stamped`]. A page
//! whose write stamp has not moved since the scan that last found it equal
//! to its shadow is skipped without reading it; any other page equal to
//! its shadow is skipped with one comparison, and inside a page that
//! differs only slots whose bytes differ are decoded. The shadow invariant
//! — a shadow slot always decodes to the signature the slot last had, and
//! the empty pattern to none — is what makes skipping equal bytes exact:
//! equal bytes decode to an equal signature, so the slot did not change.
//! Torn slots never reach the shadow, and a page holding one is not
//! recorded as equal, so persistent garbage reads as torn on every scan.
//! Only pages that start and end on a slot boundary are skipped by stamp:
//! a slot straddling two pages is always reassembled and compared.
//!
//! A `CqMonitor` holds no tables of its own beyond the shadow; the
//! [`IbMon`](crate::IbMon) service keeps each domain's monitors in a
//! dense, hash-free table keyed by domain id and rolls their samples up
//! in ring-registration order.

use resex_fabric::{Cqe, CQE_SIZE};
use resex_simcore::time::SimTime;
use resex_simmem::{ForeignMapping, MemError, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// What one scan of one CQ ring observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScanSample {
    /// Completions inferred since the previous scan.
    pub completions: u64,
    /// Estimated payload bytes those completions carried.
    pub bytes: u64,
    /// Estimated MTUs those completions consumed.
    pub mtus: u64,
    /// Ring slots whose contents changed (≤ ring capacity).
    pub slots_changed: u32,
    /// True when the counter delta exceeded the changed-slot count: the
    /// ring wrapped more than once between polls and per-slot data is
    /// undersampled.
    pub aliased: bool,
    /// Slots whose bytes failed to decode as a CQE without being in the
    /// uninitialized pattern — a torn read racing the HCA's DMA write. The
    /// slot is skipped (its shadow is kept) so the next scan observes the
    /// settled value.
    #[serde(default)]
    pub torn: u32,
}

/// Signature of a ring slot, for change detection.
type SlotSig = (u64, u16, u8);

fn signature((cqe, owner): (Cqe, u8)) -> SlotSig {
    (cqe.wr_id, cqe.wqe_counter, owner)
}

/// Monitors one completion queue through a foreign mapping.
pub struct CqMonitor {
    mapping: ForeignMapping,
    capacity: u32,
    mtu: u32,
    /// The last non-torn bytes of every slot; allocated by the first
    /// (priming) scan.
    shadow: Vec<[u8; CQE_SIZE]>,
    /// Per page-bounded piece of the ring: the page stamp at which the
    /// piece's bytes last equalled its shadow (`NEVER` if they have not
    /// yet). Allocated with the shadow.
    clean_at: Vec<u64>,
    latest_counter: Option<u16>,
    lifetime_completions: u64,
    lifetime_bytes: u64,
}

/// A `clean_at` entry that matches no page stamp.
const NEVER: u64 = u64::MAX;

/// Wrapping forward distance between two u16 counters, treating distances
/// ≥ 2^15 as "behind" (returns 0).
fn wrapping_ahead(from: u16, to: u16) -> u16 {
    let d = to.wrapping_sub(from);
    if d < 0x8000 {
        d
    } else {
        0
    }
}

/// What one scan has seen so far.
struct Tally {
    mtu: u32,
    tear_slot: Option<usize>,
    changed: u32,
    changed_bytes: u64,
    changed_mtus: u64,
    torn: u32,
    freshest: Option<u16>,
}

impl Tally {
    /// Folds in `slots`, whose bytes equal their shadow: only an injected
    /// tear can count.
    fn unchanged(&mut self, slots: Range<usize>) {
        if self.tear_slot.is_some_and(|t| slots.contains(&t)) {
            self.torn += 1;
        }
    }

    /// Classifies slot `index` from its current bytes, folding a change
    /// into the tally and the bytes into the slot's `shadow`.
    fn slot(&mut self, index: usize, raw: &[u8; CQE_SIZE], shadow: &mut [u8; CQE_SIZE]) {
        if self.tear_slot == Some(index) {
            self.torn += 1;
            return;
        }
        if raw == shadow {
            return;
        }
        let decoded = match Cqe::try_decode(raw) {
            Ok(pair) => Some(pair),
            // The uninitialized fill pattern is not torn — just empty.
            Err(_) if raw.iter().all(|&b| b == 0xFF) => None,
            Err(_) => {
                self.torn += 1;
                return;
            }
        };
        let old = Cqe::try_decode(shadow).ok().map(signature);
        *shadow = *raw;
        if decoded.map(signature) == old {
            return;
        }
        if let Some((cqe, _)) = decoded {
            self.changed += 1;
            self.changed_bytes += cqe.byte_len as u64;
            self.changed_mtus += cqe.byte_len.div_ceil(self.mtu).max(1) as u64;
            self.freshest = Some(match self.freshest {
                Some(f) if wrapping_ahead(f, cqe.wqe_counter) == 0 => f,
                _ => cqe.wqe_counter,
            });
        }
    }
}

impl CqMonitor {
    /// Creates a monitor over a mapped ring of `capacity` CQEs.
    ///
    /// The mapping must cover `capacity * 32` bytes.
    pub fn new(mapping: ForeignMapping, capacity: u32, mtu: u32) -> Result<Self, MemError> {
        assert!(mtu > 0, "mtu must be positive");
        // Validate the window size eagerly.
        let needed = capacity as usize * CQE_SIZE;
        if mapping.len() < needed {
            return Err(MemError::OutOfBounds {
                gpa: mapping.base(),
                len: needed,
                size: mapping.len() as u64,
            });
        }
        Ok(CqMonitor {
            mapping,
            capacity,
            mtu,
            shadow: Vec::new(),
            clean_at: Vec::new(),
            latest_counter: None,
            lifetime_completions: 0,
            lifetime_bytes: 0,
        })
    }

    /// Completions observed over the monitor's lifetime.
    pub fn lifetime_completions(&self) -> u64 {
        self.lifetime_completions
    }

    /// Bytes observed over the monitor's lifetime.
    pub fn lifetime_bytes(&self) -> u64 {
        self.lifetime_bytes
    }

    /// Ring capacity in CQE slots.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Scans the ring and reports activity since the previous scan.
    ///
    /// The first scan primes the shadow and reports zero (the monitor
    /// cannot know how old pre-existing entries are).
    pub fn scan(&mut self, now: SimTime) -> Result<ScanSample, MemError> {
        self.scan_faulted(now, None)
    }

    /// [`CqMonitor::scan`] with an injected torn read of `tear_slot`, as if
    /// dom0's read raced the HCA's DMA write: the slot counts as torn and
    /// keeps its shadow, whatever its bytes. Guest memory is untouched.
    pub fn scan_faulted(
        &mut self,
        _now: SimTime,
        tear_slot: Option<u32>,
    ) -> Result<ScanSample, MemError> {
        let ring_len = self.capacity as usize * CQE_SIZE;
        let priming = self.shadow.is_empty();
        if priming {
            self.shadow = vec![[0xFF; CQE_SIZE]; self.capacity as usize];
            let pieces = (self.mapping.base().page_offset() + ring_len).div_ceil(PAGE_SIZE);
            self.clean_at = vec![NEVER; pieces];
        }
        let mut tally = Tally {
            mtu: self.mtu,
            tear_slot: tear_slot.map(|t| t as usize),
            changed: 0,
            changed_bytes: 0,
            changed_mtus: 0,
            torn: 0,
            freshest: self.latest_counter,
        };
        let shadow = &mut self.shadow;
        let clean_at = &mut self.clean_at;
        // Window offset and index of the next piece, and the bytes read so
        // far of a slot that straddles a page boundary. A piece's
        // `clean_at` is recorded only when its whole slots all equal their
        // shadow; only a piece of whole slots is ever skipped by it.
        let mut pos = 0;
        let mut index = 0;
        let mut split = [0u8; CQE_SIZE];
        self.mapping
            .read_pieces_stamped(0, ring_len, |mut piece, stamp| {
                let clean = &mut clean_at[index];
                index += 1;
                if pos % CQE_SIZE == 0 && piece.len() % CQE_SIZE == 0 && *clean == stamp {
                    // Whole slots no write has touched since they last
                    // equalled their shadow.
                    let first = pos / CQE_SIZE;
                    tally.unchanged(first..first + piece.len() / CQE_SIZE);
                    pos += piece.len();
                    return;
                }
                let filled = pos % CQE_SIZE;
                if filled != 0 {
                    let take = (CQE_SIZE - filled).min(piece.len());
                    split[filled..filled + take].copy_from_slice(&piece[..take]);
                    piece = &piece[take..];
                    pos += take;
                    if pos % CQE_SIZE == 0 {
                        let slot = pos / CQE_SIZE - 1;
                        tally.slot(slot, &split, &mut shadow[slot]);
                    }
                }
                let (body, tail) = piece.as_chunks::<CQE_SIZE>();
                let first = pos / CQE_SIZE;
                let seen = &mut shadow[first..first + body.len()];
                if body == seen {
                    tally.unchanged(first..first + body.len());
                    *clean = stamp;
                } else {
                    let torn = tally.torn;
                    for (i, (raw, sh)) in body.iter().zip(seen).enumerate() {
                        tally.slot(first + i, raw, sh);
                    }
                    // Every slot now equals its shadow unless one was torn.
                    if tally.torn == torn {
                        *clean = stamp;
                    }
                }
                pos += piece.len();
                split[..tail.len()].copy_from_slice(tail);
            })?;
        let Tally {
            changed,
            changed_bytes,
            changed_mtus,
            torn,
            freshest,
            ..
        } = tally;
        if priming {
            self.latest_counter = freshest;
            return Ok(ScanSample {
                torn,
                ..ScanSample::default()
            });
        }
        let counter_delta = match (self.latest_counter, freshest) {
            (Some(old), Some(new)) => wrapping_ahead(old, new) as u64,
            (None, Some(_)) => changed as u64,
            _ => 0,
        };
        self.latest_counter = freshest;
        // The counter is authoritative for *how many*; slot contents tell
        // us *how big*. When aliased, scale the per-slot averages up.
        let completions = counter_delta.max(changed as u64);
        // A torn slot hides activity just like a multi-wrap alias does, so
        // it marks the sample the same way.
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
        Ok(ScanSample {
            completions,
            bytes,
            mtus,
            slots_changed: changed,
            aliased,
            torn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resex_fabric::{CompletionQueue, CqNum, Opcode, QpNum, WcStatus};
    use resex_simmem::MemoryHandle;

    fn setup(capacity: u32) -> (MemoryHandle, CompletionQueue, CqMonitor) {
        let mem = MemoryHandle::new(1024 * 1024);
        let gpa = mem
            .alloc_bytes((capacity as usize * CQE_SIZE) as u64)
            .unwrap();
        let cq = CompletionQueue::new(CqNum::new(0), mem.clone(), gpa, capacity).unwrap();
        let mapping = ForeignMapping::map(&mem, gpa, capacity as usize * CQE_SIZE).unwrap();
        let mon = CqMonitor::new(mapping, capacity, 1024).unwrap();
        (mem, cq, mon)
    }

    fn push(cq: &mut CompletionQueue, wr_id: u64, counter: u16, byte_len: u32) {
        cq.push(Cqe {
            wr_id,
            qp_num: QpNum::new(1),
            byte_len,
            wqe_counter: counter,
            opcode: Opcode::Send,
            status: WcStatus::Success,
            imm_data: 0,
        })
        .unwrap();
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn first_scan_is_a_zero_baseline() {
        let (_m, mut cq, mut mon) = setup(16);
        push(&mut cq, 1, 0, 4096);
        let s = mon.scan(t(0)).unwrap();
        assert_eq!(s.completions, 0, "priming scan");
        // But subsequent activity is counted.
        push(&mut cq, 2, 1, 4096);
        let s = mon.scan(t(1)).unwrap();
        assert_eq!(s.completions, 1);
        assert_eq!(s.bytes, 4096);
        assert_eq!(s.mtus, 4);
    }

    #[test]
    fn counts_multiple_completions_between_scans() {
        let (_m, mut cq, mut mon) = setup(32);
        mon.scan(t(0)).unwrap();
        for i in 0..5 {
            push(&mut cq, i, i as u16, 65536);
            cq.poll().unwrap();
        }
        let s = mon.scan(t(1)).unwrap();
        assert_eq!(s.completions, 5);
        assert_eq!(s.bytes, 5 * 65536);
        assert_eq!(s.mtus, 5 * 64);
        assert!(!s.aliased);
    }

    #[test]
    fn quiet_ring_reports_zero() {
        let (_m, mut cq, mut mon) = setup(8);
        push(&mut cq, 1, 0, 1024);
        mon.scan(t(0)).unwrap();
        let s = mon.scan(t(1)).unwrap();
        assert_eq!(s, ScanSample::default());
    }

    #[test]
    fn ring_wrap_within_capacity_is_exact() {
        let (_m, mut cq, mut mon) = setup(4);
        mon.scan(t(0)).unwrap();
        let mut counter = 0u16;
        for round in 0..3 {
            for _ in 0..4 {
                push(&mut cq, counter as u64, counter, 2048);
                cq.poll().unwrap();
                counter += 1;
            }
            let s = mon.scan(t(round + 1)).unwrap();
            assert_eq!(s.completions, 4, "round {round}");
            assert_eq!(s.mtus, 8);
        }
        assert_eq!(mon.lifetime_completions(), 12);
    }

    #[test]
    fn aliasing_detected_and_scaled() {
        // 20 completions through a 4-slot ring between scans: slot diffing
        // sees at most 4 changes; the wqe_counter reveals all 20. A counter
        // baseline must exist (one observed completion) for the delta to be
        // usable — just like the real tool.
        let (_m, mut cq, mut mon) = setup(4);
        push(&mut cq, 99, 0, 1024);
        cq.poll().unwrap();
        mon.scan(t(0)).unwrap();
        for i in 1..=20u16 {
            push(&mut cq, i as u64, i, 1024);
            cq.poll().unwrap();
        }
        let s = mon.scan(t(1)).unwrap();
        assert_eq!(s.completions, 20);
        assert!(s.aliased);
        assert!(s.slots_changed <= 4);
        assert_eq!(s.bytes, 20 * 1024, "scaled from per-slot average");
    }

    #[test]
    fn counter_wraparound_at_u16_boundary() {
        let (_m, mut cq, mut mon) = setup(8);
        push(&mut cq, 1, u16::MAX - 1, 1024);
        cq.poll().unwrap();
        mon.scan(t(0)).unwrap();
        // Counter wraps: 65534 → 2 is a forward distance of 4.
        for (i, c) in [u16::MAX, 0, 1, 2].iter().enumerate() {
            push(&mut cq, 10 + i as u64, *c, 1024);
            cq.poll().unwrap();
        }
        let s = mon.scan(t(1)).unwrap();
        assert_eq!(s.completions, 4);
    }

    #[test]
    fn torn_read_is_skipped_and_recovered_next_scan() {
        let (_m, mut cq, mut mon) = setup(8);
        push(&mut cq, 1, 0, 1024);
        mon.scan(t(0)).unwrap();
        // New CQE lands in slot 1; the scan reads that slot torn.
        push(&mut cq, 2, 1, 2048);
        let s = mon.scan_faulted(t(1), Some(1)).unwrap();
        assert_eq!(s.torn, 1);
        assert_eq!(s.completions, 0, "the torn slot is not counted");
        assert!(s.aliased, "a torn scan is flagged as undersampled");
        // The shadow was not poisoned: the next clean scan sees the
        // settled value and recovers the completion.
        let s = mon.scan(t(2)).unwrap();
        assert_eq!(s.torn, 0);
        assert_eq!(s.completions, 1);
        assert_eq!(s.bytes, 2048);
    }

    #[test]
    fn tearing_an_empty_slot_still_counts_as_torn() {
        let (_m, _cq, mut mon) = setup(8);
        mon.scan(t(0)).unwrap();
        // Slot 7 is uninitialized (all 0xFF) and equal to its shadow, yet a
        // torn read of it counts as torn, not as empty or a completion.
        let s = mon.scan_faulted(t(1), Some(7)).unwrap();
        assert_eq!(s.torn, 1);
        assert_eq!(s.completions, 0);
    }

    #[test]
    fn unassigned_opcode_byte_reads_as_torn() {
        let (mem, mut cq, mut mon) = setup(8);
        push(&mut cq, 1, 0, 1024);
        mon.scan(t(0)).unwrap();
        // A CQE lands in slot 1 carrying opcode byte 3, which names no
        // opcode: it is a torn slot, not a completion.
        push(&mut cq, 2, 1, 2048);
        let opcode_at = cq.ring_gpa().add(CQE_SIZE as u64 + 18);
        mem.write(opcode_at, &[3]).unwrap();
        let s = mon.scan(t(1)).unwrap();
        assert_eq!(s.torn, 1);
        assert_eq!(s.completions, 0);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn mapping_too_small_is_rejected() {
        let mem = MemoryHandle::new(64 * 1024);
        let gpa = mem.alloc_bytes(4 * CQE_SIZE as u64).unwrap();
        let mapping = ForeignMapping::map(&mem, gpa, 2 * CQE_SIZE).unwrap();
        assert!(CqMonitor::new(mapping, 4, 1024).is_err());
    }

    #[test]
    fn wrapping_ahead_math() {
        assert_eq!(wrapping_ahead(5, 10), 5);
        assert_eq!(wrapping_ahead(10, 5), 0, "behind reads as zero");
        assert_eq!(wrapping_ahead(65534, 2), 4);
        assert_eq!(wrapping_ahead(7, 7), 0);
    }
}
