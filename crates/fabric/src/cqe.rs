//! Completion queue entries and the in-guest-memory CQ ring.
//!
//! Completion queues are the introspection surface of the whole system: the
//! HCA DMA-writes a 32-byte CQE into a ring that lives in *guest* memory,
//! the guest polls it, and IBMon maps the same pages from dom0 and watches
//! the entries change. The binary layout is therefore a contract shared by
//! three parties and lives here, with explicit offsets.
//!
//! Layout (little-endian, 32 bytes):
//!
//! ```text
//! offset  size  field
//!      0     8  wr_id        — caller's work-request cookie
//!      8     4  qp_num       — owning queue pair
//!     12     4  byte_len     — payload length (message size)
//!     16     2  wqe_counter  — HCA-side completion counter (mod 2^16)
//!     18     1  opcode       — crate::types::Opcode
//!     19     1  status       — crate::types::WcStatus
//!     20     4  imm_data     — immediate value (WriteImm/Send-with-imm)
//!     24     7  reserved
//!     31     1  owner        — ownership parity bit (ring pass & 1)
//! ```
//!
//! The `owner` byte flips meaning on every pass around the ring, exactly like
//! mlx4 hardware: a consumer at pass `p` treats a slot as valid when
//! `owner == p & 1`.

use crate::error::FabricError;
use crate::types::{CqNum, Opcode, QpNum, WcStatus};
use resex_simmem::{Gpa, MemoryHandle};

/// Size of one CQE in bytes.
pub const CQE_SIZE: usize = 32;

/// A decoded completion queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cqe {
    /// Caller's work-request cookie.
    pub wr_id: u64,
    /// Owning queue pair.
    pub qp_num: QpNum,
    /// Payload length in bytes.
    pub byte_len: u32,
    /// HCA-side completion counter, wrapping at 2^16.
    pub wqe_counter: u16,
    /// Completed operation.
    pub opcode: Opcode,
    /// Completion status.
    pub status: WcStatus,
    /// Immediate data (meaningful for `RdmaWriteImm` receive completions).
    pub imm_data: u32,
}

impl Cqe {
    /// Serializes into the 32-byte wire format with the given owner parity.
    pub fn encode(&self, owner: u8) -> [u8; CQE_SIZE] {
        let mut b = [0u8; CQE_SIZE];
        b[0..8].copy_from_slice(&self.wr_id.to_le_bytes());
        b[8..12].copy_from_slice(&self.qp_num.raw().to_le_bytes());
        b[12..16].copy_from_slice(&self.byte_len.to_le_bytes());
        b[16..18].copy_from_slice(&self.wqe_counter.to_le_bytes());
        b[18] = self.opcode as u8;
        b[19] = self.status as u8;
        b[20..24].copy_from_slice(&self.imm_data.to_le_bytes());
        b[31] = owner & 1;
        b
    }

    /// Decodes from the wire format, returning the entry and its owner bit.
    /// Returns `None` if the slice is short or the opcode or status byte is
    /// invalid (e.g. an uninitialized slot).
    pub fn decode(b: &[u8; CQE_SIZE]) -> Option<(Cqe, u8)> {
        Cqe::try_decode(b).ok()
    }

    /// Fully fallible decode from a raw byte slice — the form IBMon uses
    /// when scanning foreign rings, where a slot may be observed mid-DMA
    /// (torn) and *why* a decode failed matters: a torn read must be
    /// recorded as an unreliable scan, not trusted or silently skipped.
    pub fn try_decode(b: &[u8]) -> Result<(Cqe, u8), CqeDecodeError> {
        fn arr<const N: usize>(b: &[u8], at: usize) -> Result<[u8; N], CqeDecodeError> {
            b.get(at..at + N)
                .and_then(|s| s.try_into().ok())
                .ok_or(CqeDecodeError::TooShort { got: b.len() })
        }
        if b.len() < CQE_SIZE {
            return Err(CqeDecodeError::TooShort { got: b.len() });
        }
        let opcode = Opcode::from_u8(b[18]).ok_or(CqeDecodeError::BadOpcode(b[18]))?;
        let status = WcStatus::from_u8(b[19]).ok_or(CqeDecodeError::BadStatus(b[19]))?;
        Ok((
            Cqe {
                wr_id: u64::from_le_bytes(arr(b, 0)?),
                qp_num: QpNum::new(u32::from_le_bytes(arr(b, 8)?)),
                byte_len: u32::from_le_bytes(arr(b, 12)?),
                wqe_counter: u16::from_le_bytes(arr(b, 16)?),
                opcode,
                status,
                imm_data: u32::from_le_bytes(arr(b, 20)?),
            },
            b[31] & 1,
        ))
    }
}

/// Why a raw CQE slot failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeDecodeError {
    /// The slice holds fewer than [`CQE_SIZE`] bytes.
    TooShort {
        /// Bytes actually available.
        got: usize,
    },
    /// The opcode byte does not name a [`Opcode`] variant.
    BadOpcode(u8),
    /// The status byte does not name a [`WcStatus`] variant.
    BadStatus(u8),
}

impl std::fmt::Display for CqeDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CqeDecodeError::TooShort { got } => {
                write!(f, "CQE slice too short: {got} of {CQE_SIZE} bytes")
            }
            CqeDecodeError::BadOpcode(v) => write!(f, "invalid CQE opcode byte {v:#04x}"),
            CqeDecodeError::BadStatus(v) => write!(f, "invalid CQE status byte {v:#04x}"),
        }
    }
}

impl std::error::Error for CqeDecodeError {}

/// HCA-side state of one completion queue. The ring's *contents* live in
/// guest memory; this struct holds the producer/consumer cursors and the
/// location of the ring.
pub struct CompletionQueue {
    /// The queue's number on its HCA.
    pub num: CqNum,
    mem: MemoryHandle,
    ring_gpa: Gpa,
    capacity: u32,
    /// Total entries ever produced.
    produced: u64,
    /// Total entries ever consumed.
    consumed: u64,
    /// Entries dropped because the ring was full.
    overruns: u64,
}

impl CompletionQueue {
    /// Creates a CQ whose ring occupies `capacity * 32` bytes at `ring_gpa`
    /// in `mem`. Capacity must be a power of two. The ring pages are pinned
    /// (the HCA writes them) for the lifetime of the queue.
    pub fn new(
        num: CqNum,
        mem: MemoryHandle,
        ring_gpa: Gpa,
        capacity: u32,
    ) -> Result<Self, FabricError> {
        if capacity == 0 || !capacity.is_power_of_two() {
            return Err(FabricError::Config(format!(
                "CQ capacity must be a power of two, got {capacity}"
            )));
        }
        let bytes = capacity as usize * CQE_SIZE;
        // Initialize every slot's owner byte to the *wrong* parity for pass
        // zero so unwritten slots never read as valid.
        mem.with_write(|m| {
            m.pin_range(ring_gpa, bytes)?;
            m.fill(ring_gpa, bytes, 0xFF)
        })?;
        Ok(CompletionQueue {
            num,
            mem,
            ring_gpa,
            capacity,
            produced: 0,
            consumed: 0,
            overruns: 0,
        })
    }

    /// Ring capacity in entries.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Guest-physical location of the ring (what IBMon maps).
    pub fn ring_gpa(&self) -> Gpa {
        self.ring_gpa
    }

    /// Ring length in bytes.
    pub fn ring_len(&self) -> usize {
        self.capacity as usize * CQE_SIZE
    }

    /// Entries produced over the queue's lifetime.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Entries dropped due to overrun.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Entries currently waiting to be polled.
    pub fn depth(&self) -> u32 {
        (self.produced - self.consumed) as u32
    }

    fn slot_gpa(&self, index: u64) -> Gpa {
        let slot = (index % self.capacity as u64) as usize;
        self.ring_gpa.add((slot * CQE_SIZE) as u64)
    }

    /// HCA path: DMA-writes a completion into the ring. On overflow the
    /// entry is dropped and counted (real hardware would transition the CQ
    /// to error; experiments size rings to avoid this).
    pub fn push(&mut self, cqe: Cqe) -> Result<bool, FabricError> {
        if self.depth() >= self.capacity {
            self.overruns += 1;
            return Ok(false);
        }
        let owner = ((self.produced / self.capacity as u64) & 1) as u8;
        let gpa = self.slot_gpa(self.produced);
        let bytes = cqe.encode(owner);
        self.mem.dma_write(gpa, &bytes)?;
        self.produced += 1;
        Ok(true)
    }

    /// Guest path: polls the next completion, if any. Mirrors `ibv_poll_cq`
    /// with batch size 1.
    pub fn poll(&mut self) -> Result<Option<Cqe>, FabricError> {
        if self.consumed == self.produced {
            return Ok(None);
        }
        let expected_owner = ((self.consumed / self.capacity as u64) & 1) as u8;
        let gpa = self.slot_gpa(self.consumed);
        let mut raw = [0u8; CQE_SIZE];
        self.mem.read(gpa, &mut raw)?;
        let (cqe, owner) =
            Cqe::decode(&raw).ok_or_else(|| FabricError::Config("corrupt CQE in ring".into()))?;
        debug_assert_eq!(owner, expected_owner, "ownership parity mismatch");
        self.consumed += 1;
        Ok(Some(cqe))
    }

    /// Drains up to `max` completions.
    pub fn poll_batch(&mut self, max: usize) -> Result<Vec<Cqe>, FabricError> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.poll()? {
                Some(c) => out.push(c),
                None => break,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_cqe(wr_id: u64, counter: u16) -> Cqe {
        Cqe {
            wr_id,
            qp_num: QpNum::new(3),
            byte_len: 65536,
            wqe_counter: counter,
            opcode: Opcode::Send,
            status: WcStatus::Success,
            imm_data: 0xABCD,
        }
    }

    fn mk_cq(capacity: u32) -> CompletionQueue {
        let mem = MemoryHandle::new(1024 * 1024);
        let gpa = mem
            .alloc_bytes((capacity as usize * CQE_SIZE) as u64)
            .unwrap();
        CompletionQueue::new(CqNum::new(0), mem, gpa, capacity).unwrap()
    }

    #[test]
    fn fresh_ring_reads_all_ones_and_pass_zero_still_works() {
        let mut cq = mk_cq(256); // 8 KiB: two pages
        let mut ring = vec![0u8; cq.ring_len()];
        cq.mem.read(cq.ring_gpa(), &mut ring).unwrap();
        assert!(ring.iter().all(|&b| b == 0xFF), "every byte initialized");
        assert!(cq
            .mem
            .with_read(|m| m.is_pinned(cq.ring_gpa(), cq.ring_len())));
        assert_eq!(cq.mem.with_read(|m| m.resident_pages()), 2);
        assert!(cq.push(mk_cqe(7, 1)).unwrap());
        assert_eq!(cq.poll().unwrap(), Some(mk_cqe(7, 1)));
        assert_eq!(cq.poll().unwrap(), None);
    }

    #[test]
    fn cqe_encode_decode_roundtrip() {
        let cqe = mk_cqe(0xDEAD_BEEF_0102_0304, 777);
        for owner in [0u8, 1] {
            let raw = cqe.encode(owner);
            let (back, o) = Cqe::decode(&raw).unwrap();
            assert_eq!(back, cqe);
            assert_eq!(o, owner);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let raw = [0xFFu8; CQE_SIZE];
        assert!(Cqe::decode(&raw).is_none(), "uninitialized slot is invalid");
    }

    #[test]
    fn unassigned_opcode_byte_3_is_rejected() {
        let mut raw = mk_cqe(1, 2).encode(0);
        raw[18] = 3;
        assert_eq!(Cqe::try_decode(&raw), Err(CqeDecodeError::BadOpcode(3)));
    }

    #[test]
    fn try_decode_reports_why() {
        let good = mk_cqe(1, 2).encode(0);
        assert!(Cqe::try_decode(&good).is_ok());
        assert_eq!(
            Cqe::try_decode(&good[..CQE_SIZE - 1]),
            Err(CqeDecodeError::TooShort { got: CQE_SIZE - 1 })
        );
        let mut bad_op = good;
        bad_op[18] = 0xEE;
        assert_eq!(
            Cqe::try_decode(&bad_op),
            Err(CqeDecodeError::BadOpcode(0xEE))
        );
        let mut bad_status = good;
        bad_status[19] = 0xEE;
        assert_eq!(
            Cqe::try_decode(&bad_status),
            Err(CqeDecodeError::BadStatus(0xEE))
        );
        for e in [
            CqeDecodeError::TooShort { got: 3 },
            CqeDecodeError::BadOpcode(9),
            CqeDecodeError::BadStatus(9),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn push_poll_fifo() {
        let mut cq = mk_cq(8);
        for i in 0..5 {
            assert!(cq.push(mk_cqe(i, i as u16)).unwrap());
        }
        assert_eq!(cq.depth(), 5);
        for i in 0..5 {
            let c = cq.poll().unwrap().unwrap();
            assert_eq!(c.wr_id, i);
        }
        assert_eq!(cq.poll().unwrap(), None);
        assert_eq!(cq.depth(), 0);
    }

    #[test]
    fn ring_wraps_with_owner_parity() {
        let mut cq = mk_cq(4);
        // Three full passes around the ring.
        for i in 0..12u64 {
            assert!(cq.push(mk_cqe(i, i as u16)).unwrap());
            let c = cq.poll().unwrap().unwrap();
            assert_eq!(c.wr_id, i);
        }
        assert_eq!(cq.produced(), 12);
    }

    #[test]
    fn overrun_drops_and_counts() {
        let mut cq = mk_cq(4);
        for i in 0..4 {
            assert!(cq.push(mk_cqe(i, 0)).unwrap());
        }
        assert!(!cq.push(mk_cqe(99, 0)).unwrap(), "fifth push overruns");
        assert_eq!(cq.overruns(), 1);
        assert_eq!(cq.depth(), 4);
        // Draining makes room again.
        cq.poll().unwrap().unwrap();
        assert!(cq.push(mk_cqe(100, 0)).unwrap());
    }

    #[test]
    fn poll_batch_drains() {
        let mut cq = mk_cq(8);
        for i in 0..6 {
            cq.push(mk_cqe(i, 0)).unwrap();
        }
        let batch = cq.poll_batch(4).unwrap();
        assert_eq!(batch.len(), 4);
        let rest = cq.poll_batch(100).unwrap();
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn ring_contents_visible_in_guest_memory() {
        let mem = MemoryHandle::new(64 * 1024);
        let gpa = mem.alloc_bytes(8 * CQE_SIZE as u64).unwrap();
        let mut cq = CompletionQueue::new(CqNum::new(1), mem.clone(), gpa, 8).unwrap();
        cq.push(mk_cqe(42, 7)).unwrap();
        // Read the raw ring bytes the way IBMon would.
        let mut raw = [0u8; CQE_SIZE];
        mem.read(gpa, &mut raw).unwrap();
        let (cqe, owner) = Cqe::decode(&raw).unwrap();
        assert_eq!(cqe.wr_id, 42);
        assert_eq!(cqe.wqe_counter, 7);
        assert_eq!(owner, 0);
    }

    #[test]
    fn capacity_must_be_power_of_two() {
        let mem = MemoryHandle::new(64 * 1024);
        let gpa = mem.alloc_bytes(4096).unwrap();
        assert!(CompletionQueue::new(CqNum::new(0), mem.clone(), gpa, 3).is_err());
        assert!(CompletionQueue::new(CqNum::new(0), mem, gpa, 0).is_err());
    }
}
