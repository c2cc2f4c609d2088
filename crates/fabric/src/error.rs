//! Fabric error types.

use crate::types::{CqNum, NodeId, PdId, QpNum};
use resex_simmem::MemError;
use std::fmt;

/// Failures of verbs-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// Referenced node does not exist.
    UnknownNode(NodeId),
    /// Referenced queue pair does not exist on that node.
    UnknownQp(NodeId, QpNum),
    /// Referenced completion queue does not exist on that node.
    UnknownCq(NodeId, CqNum),
    /// Referenced protection domain does not exist on that node.
    UnknownPd(NodeId, PdId),
    /// A memory key failed TPT validation.
    InvalidKey {
        /// The offending key.
        key: u32,
        /// Human-readable reason (unknown key, bad range, missing access).
        reason: &'static str,
    },
    /// The QP is not in the state required for the operation.
    BadQpState {
        /// The queue pair.
        qp: QpNum,
        /// What the operation required.
        needed: &'static str,
    },
    /// The send queue is full.
    SendQueueFull(QpNum),
    /// The receive queue is full.
    RecvQueueFull(QpNum),
    /// Objects from different protection domains were mixed.
    PdMismatch,
    /// An underlying guest-memory failure.
    Mem(MemError),
    /// Bad configuration at construction time.
    Config(String),
    /// The engine's internal bookkeeping referenced state that no longer
    /// exists (e.g. a timer fired for a destroyed node). Carries enough
    /// context to locate the inconsistency; surfaced instead of panicking
    /// so fault-injected scenarios fail loudly but recoverably.
    InternalInconsistency(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownNode(n) => write!(f, "unknown node {n}"),
            FabricError::UnknownQp(n, q) => write!(f, "unknown queue pair {q} on {n}"),
            FabricError::UnknownCq(n, c) => write!(f, "unknown completion queue {c} on {n}"),
            FabricError::UnknownPd(n, p) => write!(f, "unknown protection domain {p} on {n}"),
            FabricError::InvalidKey { key, reason } => {
                write!(f, "memory key {key:#x} rejected: {reason}")
            }
            FabricError::BadQpState { qp, needed } => {
                write!(f, "{qp} is in the wrong state: operation needs {needed}")
            }
            FabricError::SendQueueFull(q) => write!(f, "send queue of {q} is full"),
            FabricError::RecvQueueFull(q) => write!(f, "receive queue of {q} is full"),
            FabricError::PdMismatch => write!(f, "protection-domain mismatch"),
            FabricError::Mem(e) => write!(f, "guest memory error: {e}"),
            FabricError::Config(msg) => write!(f, "invalid fabric configuration: {msg}"),
            FabricError::InternalInconsistency(msg) => {
                write!(f, "fabric internal inconsistency: {msg}")
            }
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for FabricError {
    fn from(e: MemError) -> Self {
        FabricError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<FabricError> = vec![
            FabricError::UnknownNode(NodeId::new(1)),
            FabricError::UnknownQp(NodeId::new(0), QpNum::new(5)),
            FabricError::InvalidKey {
                key: 0xAB,
                reason: "no such region",
            },
            FabricError::BadQpState {
                qp: QpNum::new(1),
                needed: "RTS",
            },
            FabricError::SendQueueFull(QpNum::new(2)),
            FabricError::PdMismatch,
            FabricError::InternalInconsistency("timer for missing node".into()),
        ];
        for c in cases {
            assert!(!format!("{c}").is_empty());
        }
    }

    #[test]
    fn mem_error_converts() {
        let me = MemError::NotPinned {
            page_base: resex_simmem::Gpa::new(0),
        };
        let fe: FabricError = me.clone().into();
        assert_eq!(fe, FabricError::Mem(me));
        assert!(std::error::Error::source(&fe).is_some());
    }
}
