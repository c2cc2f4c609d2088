//! Identifiers and wire-level enums shared across the fabric model.

use resex_simcore::define_id;
use serde::{Deserialize, Serialize};

define_id!(
    /// One HCA port / fabric endpoint (the simulated analogue of an
    /// InfiniBand LID). The paper's testbed has two nodes.
    NodeId
);

define_id!(
    /// Queue-pair number, unique within one HCA.
    QpNum
);

define_id!(
    /// Completion-queue number, unique within one HCA.
    CqNum
);

define_id!(
    /// Protection domain, unique within one HCA.
    PdId
);

/// Verbs opcode carried by a work request and echoed in its completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Opcode {
    /// Two-sided send; consumes a receive WQE at the destination.
    Send = 0,
    /// One-sided RDMA write; invisible to the destination CPU.
    RdmaWrite = 1,
    /// RDMA write with immediate; also consumes a receive WQE and generates
    /// a receive completion carrying the immediate value.
    RdmaWriteImm = 2,
    // Byte 3 stays unassigned: it decodes to `None`, so a CQE carrying it
    // is rejected like any other unknown opcode (IBMon reads it as torn).
    /// Receive completion (never posted; only appears in CQEs).
    Recv = 4,
}

impl Opcode {
    /// Decodes from the CQE byte.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        Some(match v {
            0 => Opcode::Send,
            1 => Opcode::RdmaWrite,
            2 => Opcode::RdmaWriteImm,
            4 => Opcode::Recv,
            _ => return None,
        })
    }
}

/// Completion status, mirroring the subset of `ibv_wc_status` the fabric
/// writes into CQEs. Bytes 1, 4 and 5 are unassigned: local key errors and
/// wrong QP states fail the post itself, and a CQ overrun is counted in
/// the CQ, so no CQE carries them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum WcStatus {
    /// Operation completed successfully.
    Success = 0,
    /// Remote key validation failed at the responder.
    RemoteAccessError = 2,
    /// The responder had no receive WQE posted (receiver-not-ready).
    RnrRetryExceeded = 3,
    /// Transport retransmission exhausted its retry budget (wire loss or
    /// persistent corruption); the QP transitions to `ERROR`.
    RetryExceeded = 6,
    /// The work request was flushed from a QP that entered `ERROR` before
    /// the request could execute.
    WrFlushError = 7,
}

impl WcStatus {
    /// Decodes from the CQE byte.
    pub fn from_u8(v: u8) -> Option<WcStatus> {
        Some(match v {
            0 => WcStatus::Success,
            2 => WcStatus::RemoteAccessError,
            3 => WcStatus::RnrRetryExceeded,
            6 => WcStatus::RetryExceeded,
            7 => WcStatus::WrFlushError,
            _ => return None,
        })
    }

    /// True for [`WcStatus::Success`].
    pub fn is_ok(self) -> bool {
        self == WcStatus::Success
    }
}

/// Access rights requested when registering a memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// Local read (always required for sends).
    pub local_read: bool,
    /// Local write (required for receive placement).
    pub local_write: bool,
    /// Remote write (required for incoming RDMA writes).
    pub remote_write: bool,
}

impl Access {
    /// Full local + remote access (typical for benchmark buffers).
    pub const FULL: Access = Access {
        local_read: true,
        local_write: true,
        remote_write: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_roundtrip() {
        for op in [
            Opcode::Send,
            Opcode::RdmaWrite,
            Opcode::RdmaWriteImm,
            Opcode::Recv,
        ] {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
        // Byte 3 is unassigned and must not decode.
        assert_eq!(Opcode::from_u8(3), None);
        assert_eq!(Opcode::from_u8(200), None);
    }

    #[test]
    fn status_roundtrip() {
        for st in [
            WcStatus::Success,
            WcStatus::RemoteAccessError,
            WcStatus::RnrRetryExceeded,
            WcStatus::RetryExceeded,
            WcStatus::WrFlushError,
        ] {
            assert_eq!(WcStatus::from_u8(st as u8), Some(st));
        }
        // Bytes 1, 4 and 5 are unassigned and must not decode.
        for b in [1, 4, 5, 8] {
            assert_eq!(WcStatus::from_u8(b), None);
        }
        assert!(WcStatus::Success.is_ok());
        assert!(!WcStatus::WrFlushError.is_ok());
    }
}
