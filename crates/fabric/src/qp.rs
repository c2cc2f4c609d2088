//! Queue pairs: the verbs work-request interface.
//!
//! A queue pair (QP) is a send queue and a receive queue plus a connection
//! state machine. We model the RC (reliable connected) transport the paper's
//! benchmark uses: a QP must be walked through
//! `RESET → INIT → RTR → RTS` before it can send, receives may be posted
//! from `INIT` onward, and any fatal condition drops it into `ERROR`.

use crate::error::FabricError;
use crate::types::{CqNum, NodeId, Opcode, PdId, QpNum};
use resex_simmem::Gpa;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Connection state of a queue pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QpState {
    /// Freshly created; nothing may be posted.
    Reset,
    /// Initialized; receives may be posted.
    Init,
    /// Ready to receive; remote peer is known.
    Rtr,
    /// Ready to send; fully operational.
    Rts,
    /// Fatal error; all posts are rejected.
    Error,
}

/// Target of a one-sided operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteTarget {
    /// Remote key naming the peer's registered region.
    pub rkey: u32,
    /// Remote guest-physical address.
    pub gpa: Gpa,
}

/// A send-side work request (`ibv_post_send`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkRequest {
    /// Caller cookie, echoed in the completion.
    pub wr_id: u64,
    /// Operation.
    pub opcode: Opcode,
    /// Local key covering the source buffer.
    pub lkey: u32,
    /// Local buffer address.
    pub local_gpa: Gpa,
    /// Transfer length in bytes.
    pub len: u32,
    /// Remote side for one-sided operations; `None` for plain sends.
    pub remote: Option<RemoteTarget>,
    /// Immediate value (delivered with `RdmaWriteImm`).
    pub imm: u32,
    /// Whether a completion should be generated.
    pub signaled: bool,
}

/// A receive-side work request (`ibv_post_recv`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvRequest {
    /// Caller cookie, echoed in the completion.
    pub wr_id: u64,
    /// Local key covering the landing buffer.
    pub lkey: u32,
    /// Landing buffer address.
    pub gpa: Gpa,
    /// Landing buffer capacity.
    pub len: u32,
}

/// Per-QP traffic counters.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct QpCounters {
    /// Send-side work requests accepted.
    pub posted_sends: u64,
    /// Receive-side work requests accepted.
    pub posted_recvs: u64,
    /// Completions generated (both directions).
    pub completions: u64,
    /// Payload bytes fully serialized onto the link.
    pub bytes_sent: u64,
    /// MTUs serialized onto the link.
    pub mtus_sent: u64,
    /// Incoming sends dropped because no receive was posted.
    ///
    /// Counted only when the RNR retry budget is exhausted; transient
    /// receiver-not-ready conditions that a backoff retry absorbs show up
    /// in [`rnr_retries`](Self::rnr_retries) instead.
    pub rnr_drops: u64,
    /// Messages retransmitted after wire loss or corruption.
    pub retransmits: u64,
    /// RNR NAK backoff retries (receiver not ready, message re-sent).
    pub rnr_retries: u64,
    /// Work requests flushed with `WrFlushError` when the QP entered
    /// `ERROR`.
    pub flushed: u64,
    /// Times the connection manager cycled this QP back to `RTS` after an
    /// `ERROR`.
    pub reconnects: u64,
    /// Journaled send WQEs replayed onto the link after a reconnect.
    pub replayed: u64,
}

/// One queue pair.
pub struct QueuePair {
    /// This QP's number.
    pub num: QpNum,
    /// Protection domain it belongs to.
    pub pd: PdId,
    /// CQ receiving send-side completions.
    pub send_cq: CqNum,
    /// CQ receiving receive-side completions.
    pub recv_cq: CqNum,
    state: QpState,
    sq_capacity: usize,
    rq_capacity: usize,
    /// Send WQEs accepted but not yet picked up by the HCA engine.
    pub(crate) sq: VecDeque<WorkRequest>,
    /// Posted receive WQEs awaiting incoming messages.
    pub(crate) rq: VecDeque<RecvRequest>,
    remote: Option<(NodeId, QpNum)>,
    /// Send-queue completion counter written into send CQEs (mod 2^16).
    pub(crate) sq_counter: u16,
    /// Receive-queue completion counter written into receive CQEs.
    pub(crate) rq_counter: u16,
    /// Traffic counters.
    pub counters: QpCounters,
}

impl QueuePair {
    /// Creates a QP in `Reset` with the given queue depths.
    pub fn new(
        num: QpNum,
        pd: PdId,
        send_cq: CqNum,
        recv_cq: CqNum,
        sq_capacity: usize,
        rq_capacity: usize,
    ) -> Self {
        QueuePair {
            num,
            pd,
            send_cq,
            recv_cq,
            state: QpState::Reset,
            sq_capacity,
            rq_capacity,
            sq: VecDeque::new(),
            rq: VecDeque::new(),
            remote: None,
            sq_counter: 0,
            rq_counter: 0,
            counters: QpCounters::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        self.state
    }

    /// The connected peer, once in `Rtr`/`Rts`.
    pub fn remote(&self) -> Option<(NodeId, QpNum)> {
        self.remote
    }

    /// `RESET → INIT`.
    pub fn to_init(&mut self) -> Result<(), FabricError> {
        self.transition(QpState::Reset, QpState::Init)
    }

    /// `INIT → RTR`, learning the remote peer.
    pub fn to_rtr(&mut self, remote: (NodeId, QpNum)) -> Result<(), FabricError> {
        self.transition(QpState::Init, QpState::Rtr)?;
        self.remote = Some(remote);
        Ok(())
    }

    /// `RTR → RTS`.
    pub fn to_rts(&mut self) -> Result<(), FabricError> {
        self.transition(QpState::Rtr, QpState::Rts)
    }

    /// Any state → `ERROR`.
    pub fn to_error(&mut self) {
        self.state = QpState::Error;
    }

    /// `ERROR → RESET` (`ibv_modify_qp` back to RESET): drops any queued
    /// work but keeps the learned peer and lifetime counters, so the
    /// connection manager can re-walk `INIT → RTR → RTS` and resume on the
    /// same connection.
    pub fn reset(&mut self) -> Result<(), FabricError> {
        self.transition(QpState::Error, QpState::Reset)?;
        self.sq.clear();
        self.rq.clear();
        Ok(())
    }

    fn transition(&mut self, from: QpState, to: QpState) -> Result<(), FabricError> {
        if self.state != from {
            return Err(FabricError::BadQpState {
                qp: self.num,
                needed: match from {
                    QpState::Reset => "RESET",
                    QpState::Init => "INIT",
                    QpState::Rtr => "RTR",
                    QpState::Rts => "RTS",
                    QpState::Error => "ERROR",
                },
            });
        }
        self.state = to;
        Ok(())
    }

    /// Enqueues a send-side work request (validation of memory keys happens
    /// in the HCA engine, which owns the TPT).
    pub fn post_send(&mut self, wr: WorkRequest) -> Result<(), FabricError> {
        if self.state != QpState::Rts {
            return Err(FabricError::BadQpState {
                qp: self.num,
                needed: "RTS",
            });
        }
        if self.sq.len() >= self.sq_capacity {
            return Err(FabricError::SendQueueFull(self.num));
        }
        self.sq.push_back(wr);
        self.counters.posted_sends += 1;
        Ok(())
    }

    /// Enqueues a receive-side work request.
    pub fn post_recv(&mut self, rr: RecvRequest) -> Result<(), FabricError> {
        if !matches!(self.state, QpState::Init | QpState::Rtr | QpState::Rts) {
            return Err(FabricError::BadQpState {
                qp: self.num,
                needed: "INIT, RTR, or RTS",
            });
        }
        if self.rq.len() >= self.rq_capacity {
            return Err(FabricError::RecvQueueFull(self.num));
        }
        self.rq.push_back(rr);
        self.counters.posted_recvs += 1;
        Ok(())
    }

    /// Advances and returns the send-queue completion counter.
    pub(crate) fn next_sq_counter(&mut self) -> u16 {
        let c = self.sq_counter;
        self.sq_counter = self.sq_counter.wrapping_add(1);
        c
    }

    /// Advances and returns the receive-queue completion counter.
    pub(crate) fn next_rq_counter(&mut self) -> u16 {
        let c = self.rq_counter;
        self.rq_counter = self.rq_counter.wrapping_add(1);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp() -> QueuePair {
        QueuePair::new(
            QpNum::new(1),
            PdId::new(0),
            CqNum::new(0),
            CqNum::new(1),
            4,
            4,
        )
    }

    fn wr(id: u64) -> WorkRequest {
        WorkRequest {
            wr_id: id,
            opcode: Opcode::Send,
            lkey: 0,
            local_gpa: Gpa::new(0),
            len: 64,
            remote: None,
            imm: 0,
            signaled: true,
        }
    }

    fn rr(id: u64) -> RecvRequest {
        RecvRequest {
            wr_id: id,
            lkey: 0,
            gpa: Gpa::new(0),
            len: 4096,
        }
    }

    #[test]
    fn state_machine_happy_path() {
        let mut q = qp();
        assert_eq!(q.state(), QpState::Reset);
        q.to_init().unwrap();
        q.to_rtr((NodeId::new(1), QpNum::new(9))).unwrap();
        q.to_rts().unwrap();
        assert_eq!(q.state(), QpState::Rts);
        assert_eq!(q.remote(), Some((NodeId::new(1), QpNum::new(9))));
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut q = qp();
        assert!(q.to_rtr((NodeId::new(0), QpNum::new(0))).is_err());
        assert!(q.to_rts().is_err());
        q.to_init().unwrap();
        assert!(q.to_init().is_err(), "double INIT");
    }

    #[test]
    fn send_requires_rts() {
        let mut q = qp();
        assert!(matches!(
            q.post_send(wr(1)),
            Err(FabricError::BadQpState { .. })
        ));
        q.to_init().unwrap();
        q.to_rtr((NodeId::new(1), QpNum::new(2))).unwrap();
        q.to_rts().unwrap();
        q.post_send(wr(1)).unwrap();
        assert_eq!(q.sq.len(), 1);
        assert_eq!(q.counters.posted_sends, 1);
    }

    #[test]
    fn recv_allowed_from_init() {
        let mut q = qp();
        assert!(q.post_recv(rr(1)).is_err(), "not in RESET");
        q.to_init().unwrap();
        q.post_recv(rr(1)).unwrap();
        assert_eq!(q.rq.len(), 1);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut q = qp();
        q.to_init().unwrap();
        q.to_rtr((NodeId::new(1), QpNum::new(2))).unwrap();
        q.to_rts().unwrap();
        for i in 0..4 {
            q.post_send(wr(i)).unwrap();
            q.post_recv(rr(i)).unwrap();
        }
        assert!(matches!(
            q.post_send(wr(9)),
            Err(FabricError::SendQueueFull(_))
        ));
        assert!(matches!(
            q.post_recv(rr(9)),
            Err(FabricError::RecvQueueFull(_))
        ));
    }

    #[test]
    fn error_state_blocks_everything() {
        let mut q = qp();
        q.to_init().unwrap();
        q.to_error();
        assert!(q.post_recv(rr(1)).is_err());
        assert!(q.post_send(wr(1)).is_err());
    }

    #[test]
    fn reset_recycles_an_errored_qp_keeping_the_peer() {
        let mut q = qp();
        q.to_init().unwrap();
        q.to_rtr((NodeId::new(1), QpNum::new(9))).unwrap();
        q.to_rts().unwrap();
        q.post_send(wr(1)).unwrap();
        q.to_error();
        assert!(q.reset().is_ok());
        assert_eq!(q.state(), QpState::Reset);
        assert_eq!(q.sq.len(), 0, "queued work dropped by the reset");
        assert_eq!(q.remote(), Some((NodeId::new(1), QpNum::new(9))));
        assert_eq!(q.counters.posted_sends, 1, "lifetime counters survive");
        // Only ERROR may be reset; a live QP refuses.
        q.to_init().unwrap();
        assert!(q.reset().is_err());
    }

    #[test]
    fn work_queue_counters_are_independent_and_wrap() {
        let mut q = qp();
        q.sq_counter = u16::MAX;
        assert_eq!(q.next_sq_counter(), u16::MAX);
        assert_eq!(q.next_sq_counter(), 0);
        // The receive counter is untouched by send completions.
        assert_eq!(q.next_rq_counter(), 0);
        assert_eq!(q.next_rq_counter(), 1);
    }
}
