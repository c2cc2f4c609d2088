//! The fabric engine: HCAs, the switch, and the data-path state machine.
//!
//! [`Fabric`] owns every node's HCA state (TPT, queue pairs, completion
//! queues, UARs, egress arbiter) plus an internal event agenda. The platform
//! drives it with two calls:
//!
//! * [`Fabric::next_time`] — when does the fabric need attention next?
//! * [`Fabric::advance`] — process everything due up to `now`, returning the
//!   externally visible [`FabricEvent`]s (completions, deliveries, drops).
//!
//! The data path of one work request:
//!
//! ```text
//! post_send ─→ doorbell ─→ egress arbiter ─(grants)─→ serialization
//!        ─(switch+wire)─→ delivery at destination ─→ receiver effects
//!        ─(ack)─→ sender completion CQE
//! ```
//!
//! Completions are *really written* into guest-memory CQE rings — the same
//! bytes IBMon later introspects.

use crate::config::FabricConfig;
use crate::cqe::{CompletionQueue, Cqe, CQE_SIZE};
use crate::error::FabricError;
use crate::link::{EgressJob, FlowParams, GrantDecision, GrantPlan, JobKind, LinkArbiter};
use crate::mr::{MrHandle, Need, Tpt};
use crate::qp::{QpState, QueuePair, RecvRequest, WorkRequest};
use crate::types::{Access, CqNum, NodeId, Opcode, PdId, QpNum, WcStatus};
use crate::uar::Uar;
use resex_faults::{FabricFaults, FaultSchedule, FaultStats};
use resex_obs::{subsystem, Scope, Tracer};
use resex_simcore::event::{EventKey, EventQueue};
use resex_simcore::ids::{IdAllocator, IdMap};
use resex_simcore::rng::SimRng;
use resex_simcore::time::{SimDuration, SimTime};
use resex_simmem::{Gpa, MemoryHandle, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

resex_simcore::define_id!(
    /// One UAR (doorbell) page on an HCA.
    UarId
);

/// Cap on every exponential-backoff shift (RNR NAK waits and connection-
/// manager reconnect waits): `base << shift` is computed in `u64`, so the
/// exponent must stay far away from 64, and a bounded shift also keeps the
/// worst-case wait finite no matter how many consecutive NAKs or failed
/// reconnect probes pile up.
pub const MAX_BACKOFF_SHIFT: u32 = 16;

/// Per-node (per-HCA) aggregate counters.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct NodeCounters {
    /// Payload bytes serialized onto the egress link.
    pub bytes_sent: u64,
    /// MTUs serialized onto the egress link.
    pub mtus_sent: u64,
    /// Arbiter grants issued.
    pub grants: u64,
    /// Cumulative link-busy time (for utilization).
    pub busy: SimDuration,
    /// Incoming messages dropped for lack of a posted receive (counted only
    /// when the RNR retry budget is exhausted).
    pub rnr_drops: u64,
    /// Messages lost on the wire (fault injection).
    #[serde(default)]
    pub wire_lost: u64,
    /// Messages delivered corrupted and NAKed by the receiver (fault
    /// injection; retransmitted like losses on RC).
    #[serde(default)]
    pub wire_corrupted: u64,
    /// Messages re-serialized after a wire loss/corruption.
    #[serde(default)]
    pub retransmits: u64,
}

/// Externally visible fabric happenings, timestamped by [`Fabric::advance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricEvent {
    /// A sender-side completion CQE was written.
    SendComplete {
        /// Node owning the sending QP.
        node: NodeId,
        /// The sending queue pair.
        qp: QpNum,
        /// The work request's cookie.
        wr_id: u64,
        /// The completed operation.
        opcode: Opcode,
        /// Completion status.
        status: WcStatus,
        /// Message length.
        byte_len: u32,
    },
    /// A receive-side completion CQE was written (Send or WriteImm arrival).
    RecvComplete {
        /// Node owning the receiving QP.
        node: NodeId,
        /// The receiving queue pair.
        qp: QpNum,
        /// The receive request's cookie.
        wr_id: u64,
        /// Message length.
        byte_len: u32,
        /// Immediate value, for `RdmaWriteImm`.
        imm: Option<u32>,
    },
    /// A plain RDMA write landed (no CQE; the destination CPU is not
    /// notified on real hardware — the platform uses this to model apps
    /// that poll memory).
    RdmaWriteDelivered {
        /// Destination node.
        node: NodeId,
        /// Destination queue pair.
        qp: QpNum,
        /// Where the data landed.
        gpa: Gpa,
        /// Bytes written.
        byte_len: u32,
    },
    /// An incoming send found no posted receive and was dropped.
    RnrDrop {
        /// Destination node.
        node: NodeId,
        /// Destination queue pair.
        qp: QpNum,
    },
    /// The connection manager cycled an errored QP back to `RTS` and
    /// replayed its journaled send WQEs.
    QpReconnected {
        /// Node owning the recovered QP.
        node: NodeId,
        /// The recovered queue pair.
        qp: QpNum,
        /// Journaled send WQEs replayed onto the link.
        replayed: u64,
    },
}

enum Timer {
    GrantDone {
        node: NodeId,
        plan: GrantPlan,
    },
    LinkRetry {
        node: NodeId,
    },
    Deliver {
        job: EgressJob,
    },
    SenderComplete {
        node: NodeId,
        qp: QpNum,
        wr_id: u64,
        opcode: Opcode,
        byte_len: u32,
    },
    /// Re-enqueue a message after a wire loss or RNR NAK backoff.
    Retransmit {
        job: EgressJob,
    },
    /// Connection-manager reconnect attempt for a broken QP.
    Reconnect {
        node: NodeId,
        qp: QpNum,
    },
    /// End of a batched multi-grant transfer: every serialization step
    /// since the batch opened is replayed at its historical time.
    BatchDone {
        node: NodeId,
    },
}

/// An in-flight batched transfer on one egress link: chunk 0 has been
/// granted (its plan is held here, its completion effects not yet applied)
/// and the remaining serialization steps of the same job are represented by
/// a single `BatchDone` event at the batch's end instead of one `GrantDone`
/// per chunk. Any interim operation that could observe or perturb link
/// state settles the batch first (`settle_node`), so observable state never
/// diverges from the chunk-at-a-time path.
///
/// After chunk 0 every chunk but the last is exactly `grant_bytes` long
/// and takes `ser`, so both opening and settling a batch are closed-form:
/// the host work per transfer does not grow with its length.
struct LinkBatch {
    /// Grant plan of the batch's first chunk (effects still pending).
    plan0: GrantPlan,
    /// When the first chunk started serializing.
    start: SimTime,
    /// Serialization time of the first chunk (incl. WQE overhead if any).
    dur0: SimDuration,
    /// Serialization time of a full-size (grant_bytes) chunk.
    ser: SimDuration,
    /// When the final chunk finishes (the `BatchDone` time).
    fire_end: SimTime,
    /// The chunk boundary before `fire_end` — the moment the
    /// chunk-at-a-time execution would have scheduled the final
    /// completion event (its "arming" time for ordering purposes).
    prev_end: SimTime,
    /// The pending `BatchDone` event, cancelled when settling early.
    timer: EventKey,
}

/// Connection-manager bookkeeping for one broken QP: everything needed to
/// bring the connection back and resume where it left off.
struct CmEntry {
    /// Unacked send WQEs captured when the QP broke (the failing message
    /// first, then the arbiter backlog in queue order), replayed after the
    /// reconnect.
    journal: Vec<EgressJob>,
    /// Posted receives captured at break time, re-posted on reconnect.
    recvs: Vec<RecvRequest>,
    /// Reconnect attempts so far (drives the exponential backoff).
    attempt: u32,
    /// When the QP dropped into `ERROR`, for downtime metrics.
    broken_at: SimTime,
}

/// Outcome of the per-message wire-fault draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WireFault {
    /// The message vanished on the wire (no NAK reaches the sender until
    /// its transport timeout).
    Lost,
    /// The message arrived but failed the receiver's ICRC check; on RC the
    /// NAK triggers the same retransmission path as a loss.
    Corrupted,
}

struct Node {
    tpt: Tpt,
    qps: IdMap<QpNum, QueuePair>,
    cqs: IdMap<CqNum, CompletionQueue>,
    pds: BTreeSet<PdId>,
    uars: IdMap<UarId, Uar>,
    qp_uar: IdMap<QpNum, UarId>,
    qp_alloc: IdAllocator<QpNum>,
    cq_alloc: IdAllocator<CqNum>,
    pd_alloc: IdAllocator<PdId>,
    uar_alloc: IdAllocator<UarId>,
    arbiter: LinkArbiter,
    link_busy: bool,
    /// Pending batched transfer on this node's egress link, if any.
    batch: Option<LinkBatch>,
    /// Pending rate-limit retry, if one is scheduled.
    next_retry: Option<SimTime>,
    /// Virtual-clock cursor of the node's *ingress* port: the instant the
    /// last-accepted chunk finished arriving. Models switch output-port
    /// contention (incast) without penalizing uncongested cut-through
    /// traffic.
    ingress_free: SimTime,
    counters: NodeCounters,
}

impl Node {
    fn new() -> Self {
        Node {
            tpt: Tpt::new(),
            qps: IdMap::new(),
            cqs: IdMap::new(),
            pds: BTreeSet::new(),
            uars: IdMap::new(),
            qp_uar: IdMap::new(),
            // QP numbers start at 1 like real HCAs (0 is reserved).
            qp_alloc: IdAllocator::starting_at(1),
            cq_alloc: IdAllocator::new(),
            pd_alloc: IdAllocator::new(),
            uar_alloc: IdAllocator::new(),
            arbiter: LinkArbiter::new(),
            link_busy: false,
            batch: None,
            next_retry: None,
            ingress_free: SimTime::ZERO,
            counters: NodeCounters::default(),
        }
    }
}

/// The simulated fabric: all HCAs plus the crossbar switch between them.
pub struct Fabric {
    cfg: FabricConfig,
    nodes: Vec<Node>,
    agenda: EventQueue<Timer>,
    outputs: Vec<(SimTime, FabricEvent)>,
    job_seq: u64,
    jitter_rng: SimRng,
    tracer: Tracer,
    /// Wire/grant fault injectors; `None` (the default) draws nothing and
    /// keeps fault-free runs byte-identical to pre-fault builds.
    faults: Option<FabricFaults>,
    /// Connection manager armed? Off (the default) preserves the legacy
    /// flush-and-stay-broken semantics; on, errored QPs are journaled and
    /// reconnected. See [`Fabric::enable_recovery`].
    recovery: bool,
    /// Per-broken-QP connection-manager state, keyed by `(node, qp)`.
    /// Touched only when a QP breaks or reconnects, so an ordered map is
    /// cheap enough.
    cm: BTreeMap<(NodeId, QpNum), CmEntry>,
    /// Internal inconsistencies caught by the event loop instead of
    /// panicking (timer references to destroyed state and the like).
    internal_errors: Vec<(SimTime, FabricError)>,
    /// Recycled payload buffers for the copy-under-threshold path: posting
    /// a small message pops a buffer here instead of allocating, and the
    /// receive side pushes it back once the bytes have landed.
    payload_pool: Vec<Vec<u8>>,
}

/// Upper bound on pooled payload buffers (each at most
/// `payload_copy_threshold` bytes of capacity).
const PAYLOAD_POOL_CAP: usize = 64;

impl Fabric {
    /// Creates a fabric with the given configuration.
    pub fn new(cfg: FabricConfig) -> Result<Self, FabricError> {
        cfg.validate().map_err(FabricError::Config)?;
        let jitter_rng = SimRng::seed_from_u64(cfg.jitter_seed);
        Ok(Fabric {
            cfg,
            nodes: Vec::new(),
            agenda: EventQueue::new(),
            outputs: Vec::new(),
            job_seq: 0,
            jitter_rng,
            tracer: Tracer::disabled(),
            faults: None,
            recovery: false,
            cm: BTreeMap::new(),
            internal_errors: Vec::new(),
            payload_pool: Vec::new(),
        })
    }

    /// Pops a pooled payload buffer resized (zero-filled) to `len` bytes.
    fn pool_buf(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.payload_pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// Returns a consumed payload buffer to the pool (capacity kept).
    fn recycle_payload(&mut self, buf: Option<Vec<u8>>) {
        if let Some(mut b) = buf {
            if self.payload_pool.len() < PAYLOAD_POOL_CAP {
                b.clear();
                self.payload_pool.push(b);
            }
        }
    }

    /// Creates a fabric with default (paper-testbed) parameters.
    pub fn with_defaults() -> Self {
        Fabric::new(FabricConfig::default()).expect("default config is valid")
    }

    /// The active configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Installs an observability tracer. Timing and behaviour are
    /// unaffected; the fabric only *emits* through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs wire/grant fault injection. A schedule with no enabled
    /// fault class is ignored, so passing a default schedule is exactly
    /// equivalent to never calling this.
    pub fn install_faults(&mut self, schedule: FaultSchedule) {
        if schedule.enabled() {
            self.faults = Some(FabricFaults::new(schedule));
        }
    }

    /// Tally of faults injected into this fabric so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Arms the connection manager. With recovery on, a QP that exhausts
    /// its transport or RNR retry budget no longer flushes `WrFlushError`
    /// completions and stays broken: its unacked send WQEs and posted
    /// receives are journaled, the QP transitions `Connected → Broken →
    /// Reconnecting` on an exponential-backoff timer
    /// (`reconnect_backoff << min(attempt, reconnect_max_shift)`), and
    /// once the link is back up the CM cycles RESET→INIT→RTR→RTS and
    /// replays the journal — so no completion is ever surfaced for a
    /// journaled WQE. An *injected* ERROR via [`Fabric::set_qp_error`]
    /// still flushes (the CQEs are already drained by then) but is also
    /// scheduled for reconnect. Recovery only changes behaviour on paths
    /// that faults create, so arming it on a fault-free run costs nothing
    /// and keeps outputs byte-identical.
    pub fn enable_recovery(&mut self) {
        self.recovery = true;
    }

    /// Number of QPs currently broken and awaiting reconnection.
    pub fn broken_qp_count(&self) -> usize {
        self.cm.len()
    }

    /// Internal inconsistencies caught (not panicked) by the event loop,
    /// draining the log. Healthy runs return an empty vector.
    pub fn take_internal_errors(&mut self) -> Vec<(SimTime, FabricError)> {
        std::mem::take(&mut self.internal_errors)
    }

    /// Number of internal inconsistencies caught so far (non-draining).
    pub fn internal_error_count(&self) -> usize {
        self.internal_errors.len()
    }

    /// Adds a node (HCA + switch port) and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.nodes.push(Node::new());
        NodeId::new((self.nodes.len() - 1) as u32)
    }

    fn node(&self, n: NodeId) -> Result<&Node, FabricError> {
        self.nodes.get(n.index()).ok_or(FabricError::UnknownNode(n))
    }

    fn node_mut(&mut self, n: NodeId) -> Result<&mut Node, FabricError> {
        self.nodes
            .get_mut(n.index())
            .ok_or(FabricError::UnknownNode(n))
    }

    // ----- control path (verbs) ---------------------------------------

    /// Allocates a protection domain.
    pub fn create_pd(&mut self, node: NodeId) -> Result<PdId, FabricError> {
        let n = self.node_mut(node)?;
        let pd = n.pd_alloc.next();
        n.pds.insert(pd);
        Ok(pd)
    }

    /// Allocates a UAR (doorbell page) inside `mem`.
    pub fn create_uar(&mut self, node: NodeId, mem: &MemoryHandle) -> Result<UarId, FabricError> {
        let base = mem.alloc_bytes(PAGE_SIZE as u64)?;
        let uar = Uar::new(mem.clone(), base)?;
        let n = self.node_mut(node)?;
        let id = n.uar_alloc.next();
        n.uars.insert(id, uar);
        Ok(id)
    }

    /// Registers a memory region, pinning its pages.
    pub fn register_mr(
        &mut self,
        node: NodeId,
        pd: PdId,
        mem: &MemoryHandle,
        gpa: Gpa,
        len: u32,
        access: Access,
    ) -> Result<MrHandle, FabricError> {
        let n = self.node_mut(node)?;
        if !n.pds.contains(&pd) {
            return Err(FabricError::UnknownPd(node, pd));
        }
        n.tpt.register(pd, mem, gpa, len, access)
    }

    /// Creates a completion queue whose ring is allocated inside `mem`.
    pub fn create_cq(
        &mut self,
        node: NodeId,
        mem: &MemoryHandle,
        capacity: u32,
    ) -> Result<CqNum, FabricError> {
        let ring_gpa = mem.alloc_bytes((capacity as usize * CQE_SIZE) as u64)?;
        let n = self.node_mut(node)?;
        let num = n.cq_alloc.next();
        let cq = CompletionQueue::new(num, mem.clone(), ring_gpa, capacity)?;
        n.cqs.insert(num, cq);
        Ok(num)
    }

    /// Creates a queue pair bound to the given CQs and UAR.
    #[allow(clippy::too_many_arguments)] // mirrors ibv_create_qp's surface
    pub fn create_qp(
        &mut self,
        node: NodeId,
        pd: PdId,
        send_cq: CqNum,
        recv_cq: CqNum,
        sq_depth: usize,
        rq_depth: usize,
        uar: UarId,
    ) -> Result<QpNum, FabricError> {
        let n = self.node_mut(node)?;
        if !n.pds.contains(&pd) {
            return Err(FabricError::UnknownPd(node, pd));
        }
        if !n.cqs.contains_key(&send_cq) {
            return Err(FabricError::UnknownCq(node, send_cq));
        }
        if !n.cqs.contains_key(&recv_cq) {
            return Err(FabricError::UnknownCq(node, recv_cq));
        }
        let num = n.qp_alloc.next();
        let u = n
            .uars
            .get_mut(&uar)
            .ok_or_else(|| FabricError::Config("unknown UAR".into()))?;
        u.assign(num)?;
        n.qp_uar.insert(num, uar);
        n.qps.insert(
            num,
            QueuePair::new(num, pd, send_cq, recv_cq, sq_depth, rq_depth),
        );
        Ok(num)
    }

    /// Connects two queue pairs (both walked `INIT → RTR → RTS`).
    pub fn connect(
        &mut self,
        a_node: NodeId,
        a_qp: QpNum,
        b_node: NodeId,
        b_qp: QpNum,
    ) -> Result<(), FabricError> {
        {
            let n = self.node_mut(a_node)?;
            let qp = n
                .qps
                .get_mut(&a_qp)
                .ok_or(FabricError::UnknownQp(a_node, a_qp))?;
            qp.to_init()?;
            qp.to_rtr((b_node, b_qp))?;
            qp.to_rts()?;
        }
        {
            let n = self.node_mut(b_node)?;
            let qp = n
                .qps
                .get_mut(&b_qp)
                .ok_or(FabricError::UnknownQp(b_node, b_qp))?;
            qp.to_init()?;
            qp.to_rtr((a_node, a_qp))?;
            qp.to_rts()?;
        }
        Ok(())
    }

    // ----- data path ---------------------------------------------------

    /// Posts a send-side work request at simulated time `now`.
    ///
    /// Local memory keys are validated synchronously (as `ibv_post_send`
    /// does); remote keys are validated at the responder when data arrives.
    pub fn post_send(
        &mut self,
        node: NodeId,
        qp_num: QpNum,
        wr: WorkRequest,
        now: SimTime,
    ) -> Result<(), FabricError> {
        self.settle_node(node, now, false);
        let threshold = self.cfg.payload_copy_threshold;
        let seq = self.job_seq;
        let copy = wr.len <= threshold
            && matches!(
                wr.opcode,
                Opcode::Send | Opcode::RdmaWrite | Opcode::RdmaWriteImm
            );
        // Pooled buffer taken before the node borrow; an error path below
        // simply drops it (rare, and the pool refills on the next recycle).
        let pooled = if copy {
            Some(self.pool_buf(wr.len as usize))
        } else {
            None
        };
        let n = self.node_mut(node)?;
        // Local key validation + optional payload capture.
        let payload = {
            let qp = n
                .qps
                .get(&qp_num)
                .ok_or(FabricError::UnknownQp(node, qp_num))?;
            let mem = n
                .tpt
                .check(wr.lkey, wr.local_gpa, wr.len, Need::LocalRead, Some(qp.pd))?;
            if let Some(mut buf) = pooled {
                mem.read(wr.local_gpa, &mut buf)?;
                Some(buf)
            } else {
                None
            }
        };
        let (dst_node, dst_qp, kind) = {
            let qp = n
                .qps
                .get_mut(&qp_num)
                .ok_or(FabricError::UnknownQp(node, qp_num))?;
            qp.post_send(wr)?;
            let remote = qp.remote().ok_or(FabricError::BadQpState {
                qp: qp_num,
                needed: "a connected peer",
            })?;
            let kind = match wr.opcode {
                Opcode::Send => JobKind::Send,
                Opcode::RdmaWrite => JobKind::Write,
                Opcode::RdmaWriteImm => JobKind::WriteImm,
                Opcode::Recv => {
                    return Err(FabricError::BadQpState {
                        qp: qp_num,
                        needed: "a send-side opcode",
                    })
                }
            };
            // The WQE is consumed by the engine immediately (the HCA's DMA
            // engine picks it up at doorbell time).
            qp.sq.pop_back();
            (remote.0, remote.1, kind)
        };
        // Ring the doorbell (guest-visible posting signal).
        if let Some(&uid) = n.qp_uar.get(&qp_num) {
            if let Some(uar) = n.uars.get_mut(&uid) {
                uar.ring(qp_num)?;
            }
        }
        self.job_seq += 1;
        let job = EgressJob {
            seq,
            src_node: node,
            qp: qp_num,
            wr_id: wr.wr_id,
            opcode: wr.opcode,
            kind,
            dst_node,
            dst_qp,
            len: wr.len,
            sent: 0,
            signaled: wr.signaled,
            remote_gpa: wr.remote.map(|r| r.gpa).unwrap_or(Gpa::new(0)),
            rkey: wr.remote.map(|r| r.rkey).unwrap_or(0),
            imm: wr.imm,
            payload,
            attempt: 0,
            rnr_attempt: 0,
        };
        let n = self.node_mut(node)?;
        n.arbiter.enqueue(job);
        self.kick_link(node, now);
        Ok(())
    }

    /// Posts a receive-side work request.
    pub fn post_recv(
        &mut self,
        node: NodeId,
        qp_num: QpNum,
        rr: RecvRequest,
    ) -> Result<(), FabricError> {
        let n = self.node_mut(node)?;
        let qp = n
            .qps
            .get(&qp_num)
            .ok_or(FabricError::UnknownQp(node, qp_num))?;
        n.tpt
            .check(rr.lkey, rr.gpa, rr.len, Need::LocalWrite, Some(qp.pd))?;
        n.qps
            .get_mut(&qp_num)
            .ok_or(FabricError::UnknownQp(node, qp_num))?
            .post_recv(rr)
    }

    /// Polls up to `max` completions from a CQ.
    pub fn poll_cq(
        &mut self,
        node: NodeId,
        cq: CqNum,
        max: usize,
    ) -> Result<Vec<Cqe>, FabricError> {
        let n = self.node_mut(node)?;
        let c = n.cqs.get_mut(&cq).ok_or(FabricError::UnknownCq(node, cq))?;
        c.poll_batch(max)
    }

    /// Drains and discards up to `max` completions from a CQ, returning how
    /// many were consumed. Allocation-free flavour of [`Fabric::poll_cq`]
    /// for callers that only need the ring emptied; every per-entry side
    /// effect (ring cursor, guest-visible bytes) still happens.
    pub fn drain_cq(&mut self, node: NodeId, cq: CqNum, max: usize) -> Result<usize, FabricError> {
        let n = self.node_mut(node)?;
        let c = n.cqs.get_mut(&cq).ok_or(FabricError::UnknownCq(node, cq))?;
        let mut drained = 0;
        while drained < max {
            match c.poll()? {
                Some(_) => drained += 1,
                None => break,
            }
        }
        Ok(drained)
    }

    // ----- introspection & accounting -----------------------------------

    /// Location and capacity of a CQ's ring, for IBMon mapping.
    pub fn cq_ring_info(&self, node: NodeId, cq: CqNum) -> Result<(Gpa, u32), FabricError> {
        let n = self.node(node)?;
        let c = n.cqs.get(&cq).ok_or(FabricError::UnknownCq(node, cq))?;
        Ok((c.ring_gpa(), c.capacity()))
    }

    /// Ground-truth per-QP counters (used by tests and the oracle baseline).
    pub fn qp_counters(
        &self,
        node: NodeId,
        qp: QpNum,
    ) -> Result<crate::qp::QpCounters, FabricError> {
        let n = self.node(node)?;
        n.qps
            .get(&qp)
            .map(|q| q.counters)
            .ok_or(FabricError::UnknownQp(node, qp))
    }

    /// Per-node aggregate counters.
    pub fn node_counters(&self, node: NodeId) -> Result<NodeCounters, FabricError> {
        Ok(self.node(node)?.counters)
    }

    /// Current doorbell value for a QP (introspection).
    pub fn doorbell_value(&self, node: NodeId, qp: QpNum) -> Result<u32, FabricError> {
        let n = self.node(node)?;
        let uid = n.qp_uar.get(&qp).ok_or(FabricError::UnknownQp(node, qp))?;
        n.uars[uid].read(qp)
    }

    /// Bytes queued but not yet serialized on a node's egress link.
    pub fn egress_backlog(&self, node: NodeId) -> Result<u64, FabricError> {
        Ok(self.node(node)?.arbiter.pending_bytes())
    }

    /// Installs HCA QoS parameters (priority, WRR weight, rate limit) for a
    /// queue pair's egress flow — the hardware-side isolation knobs the
    /// paper contrasts with ResEx's hypervisor-side cap.
    ///
    /// The defensive settle runs at the fabric's own clock (its last
    /// processed event), not at the caller's instant, so a batched chunk
    /// that finished in between is granted under the new parameters,
    /// where the per-chunk path would have used the old ones. A caller
    /// changing QoS mid-transfer that needs the chunk-exact switch calls
    /// [`Fabric::settle_links`] with its own instant first.
    pub fn set_qp_flow_params(
        &mut self,
        node: NodeId,
        qp: QpNum,
        params: FlowParams,
    ) -> Result<(), FabricError> {
        let now = self.agenda.now();
        self.settle_node(node, now, false);
        let n = self.node_mut(node)?;
        if !n.qps.contains_key(&qp) {
            return Err(FabricError::UnknownQp(node, qp));
        }
        n.arbiter.set_flow_params(qp, params);
        Ok(())
    }

    // ----- time & event loop --------------------------------------------

    /// When the fabric next needs to run, if ever.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.agenda.peek_time()
    }

    /// Processes all internal events due at or before `now`; returns the
    /// externally visible events that occurred, in time order.
    ///
    /// Convenience wrapper over [`Fabric::advance_into`] that allocates a
    /// fresh vector per call; hot loops should hold a scratch buffer and
    /// call `advance_into` instead.
    pub fn advance(&mut self, now: SimTime) -> Vec<(SimTime, FabricEvent)> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Processes all internal events due at or before `now`, appending the
    /// externally visible events (in time order) to the caller-owned `out`
    /// buffer. The fabric's internal output staging keeps its capacity, so
    /// a steady-state advance performs no heap allocation.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, FabricEvent)>) {
        while self.agenda.peek_time().is_some_and(|t| t <= now) {
            let Some((t, timer)) = self.agenda.pop() else {
                break;
            };
            if let Err(e) = self.handle(t, timer) {
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::FABRIC_ENGINE,
                        "internal_error",
                        Scope::Global,
                        vec![("error", format!("{e}").into())],
                    );
                }
                self.internal_errors.push((t, e));
            }
        }
        out.append(&mut self.outputs);
    }

    fn kick_link(&mut self, node: NodeId, now: SimTime) {
        self.kick_link_inner(node, now, true);
    }

    /// Starts the next grant on `node`'s egress link. `allow_batch` is
    /// false only when called from `settle_node`, whose caller is about to
    /// mutate link state and must not find a freshly-opened batch.
    fn kick_link_inner(&mut self, node: NodeId, now: SimTime, allow_batch: bool) {
        let (grant_bytes, mtu, overhead) = (
            self.cfg.grant_mtus * self.cfg.mtu_bytes,
            self.cfg.mtu_bytes,
            self.cfg.wqe_overhead,
        );
        let n = match self.nodes.get_mut(node.index()) {
            Some(n) => n,
            None => return,
        };
        if n.link_busy {
            return;
        }
        match n.arbiter.next_grant(grant_bytes, mtu, now) {
            GrantDecision::Grant(plan) => {
                n.link_busy = true;
                let mut dur = self.cfg.serialization_time(plan.bytes as u64);
                if plan.is_first {
                    dur += overhead;
                }
                if self.cfg.hw_jitter > 0.0 {
                    // Multiplicative timing noise, clamped to stay causal.
                    let f = 1.0 + self.cfg.hw_jitter * self.jitter_rng.standard_normal();
                    dur = dur.mul_f64(f.max(0.1));
                }
                if let Some(f) = self.faults.as_mut() {
                    if let Some(extra) = f.grant_delay(now) {
                        dur += extra;
                        if self.tracer.enabled() {
                            self.tracer.instant(
                                now,
                                subsystem::FAULTS,
                                "grant_delay",
                                Scope::Qp(plan.job.qp.raw()),
                                vec![("extra_ns", extra.as_nanos().into())],
                            );
                        }
                    }
                }
                n.counters.busy += dur;
                let chunk = (plan.bytes, plan.mtus, plan.is_first, plan.job_finished);
                self.trace_grant(now, dur, plan.job.qp, chunk);
                // Batched fast path: a multi-grant transfer on an otherwise
                // idle, unlimited, fault- and jitter-free link serializes
                // its chunks back-to-back with no other event able to run
                // between them, so the per-chunk `GrantDone` events are
                // collapsed into a single `BatchDone` at the transfer's
                // end. `settle_node` replays the chunks at their historical
                // times (and their trace records) if anything touches the
                // link before then.
                let batchable = allow_batch
                    && !plan.job_finished
                    && self.cfg.hw_jitter == 0.0
                    && self.faults.is_none()
                    && self.nodes.len() == 2
                    && {
                        let n = &self.nodes[node.index()];
                        n.next_retry.is_none()
                            && n.arbiter.sole_unlimited_flow() == Some(plan.job.qp)
                    };
                if batchable {
                    // After chunk 0, `left` bytes go out as `full` full
                    // chunks and one final chunk of 1..=grant_bytes bytes.
                    let left = plan.job.len - plan.job.sent;
                    let full = (left - 1) / grant_bytes;
                    let ser = self.cfg.serialization_time(grant_bytes as u64);
                    let last = left - full * grant_bytes;
                    let prev = now + dur + ser * full as u64;
                    let end = prev + self.cfg.serialization_time(last as u64);
                    let timer = self.agenda.schedule_at(end, Timer::BatchDone { node });
                    self.nodes[node.index()].batch = Some(LinkBatch {
                        plan0: plan,
                        start: now,
                        dur0: dur,
                        ser,
                        fire_end: end,
                        prev_end: prev,
                        timer,
                    });
                } else {
                    self.agenda
                        .schedule_at(now + dur, Timer::GrantDone { node, plan });
                }
            }
            GrantDecision::Throttled { until } => {
                // Arm (or tighten) a retry when every pending flow is
                // rate-limited. The guard avoids piling up duplicates, and
                // the retry is always strictly in the future (a same-instant
                // retry would spin).
                let until = until.max(now + SimDuration::from_nanos(1));
                if n.next_retry.is_none_or(|t| until < t) {
                    n.next_retry = Some(until);
                    if self.tracer.enabled() {
                        self.tracer.instant(
                            now,
                            subsystem::FABRIC_LINK,
                            "arb_stall",
                            Scope::Node(node.raw()),
                            vec![
                                ("until_ns", until.as_nanos().into()),
                                (
                                    "pending_bytes",
                                    self.nodes[node.index()].arbiter.pending_bytes().into(),
                                ),
                            ],
                        );
                    }
                    self.agenda.schedule_at(until, Timer::LinkRetry { node });
                }
            }
            GrantDecision::Idle => {}
        }
    }

    /// Records the `grant` span of a `(bytes, mtus, first, finishes_job)`
    /// chunk that starts serializing at `start` and takes `dur`. Inlined
    /// so an untraced grant pays one branch, not a call.
    #[inline(always)]
    fn trace_grant(
        &self,
        start: SimTime,
        dur: SimDuration,
        qp: QpNum,
        (bytes, mtus, first, finishes_job): (u32, u32, bool, bool),
    ) {
        if self.tracer.enabled() {
            self.tracer.complete(
                start,
                dur,
                subsystem::FABRIC_LINK,
                "grant",
                Scope::Qp(qp.raw()),
                vec![
                    ("bytes", bytes.into()),
                    ("mtus", mtus.into()),
                    ("first", first.into()),
                    ("finishes_job", finishes_job.into()),
                ],
            );
        }
    }

    /// Records the counters a chunk's completion at `t` leaves behind:
    /// the QP's lifetime egress bytes and the node's unserialized backlog.
    #[inline(always)]
    fn trace_chunk_done(&self, t: SimTime, node: NodeId, qp: QpNum, qp_bytes: u64, backlog: u64) {
        if self.tracer.enabled() {
            let link = subsystem::FABRIC_LINK;
            let (qp, node) = (Scope::Qp(qp.raw()), Scope::Node(node.raw()));
            self.tracer
                .counter(t, link, "egress_bytes", qp, qp_bytes as f64);
            self.tracer
                .counter(t, link, "queue_depth_bytes", node, backlog as f64);
        }
    }

    /// Adds one finished chunk to the sender's node and QP counters and
    /// returns the QP's lifetime bytes and the node's backlog after it.
    fn count_chunk(&mut self, node: NodeId, plan: &GrantPlan) -> Option<(u64, u64)> {
        let n = self.nodes.get_mut(node.index())?;
        n.counters.bytes_sent += plan.bytes as u64;
        n.counters.mtus_sent += plan.mtus as u64;
        n.counters.grants += 1;
        let mut qp_bytes = 0;
        if let Some(qp) = n.qps.get_mut(&plan.job.qp) {
            qp.counters.bytes_sent += plan.bytes as u64;
            qp.counters.mtus_sent += plan.mtus as u64;
            qp_bytes = qp.counters.bytes_sent;
        }
        Some((qp_bytes, n.arbiter.pending_bytes()))
    }

    /// Applies the sender- and ingress-side effects of one completed
    /// serialization chunk at its historical completion time `end` —
    /// exactly what `on_grant_done` does for a fault-free chunk.
    fn apply_batched_chunk(&mut self, node: NodeId, plan: GrantPlan, end: SimTime) {
        let one_way = self.cfg.one_way_latency();
        let chunk_ser = self.cfg.serialization_time(plan.bytes as u64);
        if let Some((qp_bytes, backlog)) = self.count_chunk(node, &plan) {
            self.trace_chunk_done(end, node, plan.job.qp, qp_bytes, backlog);
        }
        let arrival = end + one_way;
        let delivery = self.ingress_delivery(plan.job.dst_node, arrival, chunk_ser);
        if plan.job_finished {
            self.agenda
                .schedule_at(delivery, Timer::Deliver { job: plan.job });
        }
    }

    /// Applies, in one step, the `k` full non-final chunks that `qp` sends
    /// to `dst` after a chunk ending at `end`: the sender's counters, the
    /// destination's ingress cursor and the arbiter all end up where `k`
    /// calls of [`Fabric::apply_batched_chunk`] after `k` grants would
    /// leave them. Chunk `i` ends at `end + i·ser` and arrives `one_way`
    /// later, so the ingress cursor after the last one is
    /// `max(arrival_k, ingress_free + k·ser)`.
    fn apply_full_chunks(
        &mut self,
        node: NodeId,
        qp: QpNum,
        dst: NodeId,
        k: u64,
        end: SimTime,
        ser: SimDuration,
    ) {
        let (grant_mtus, grant_bytes) = (
            self.cfg.grant_mtus,
            self.cfg.grant_mtus * self.cfg.mtu_bytes,
        );
        let (bytes, mtus) = (k * grant_bytes as u64, k * grant_mtus as u64);
        if self.tracer.enabled() {
            // The records the per-chunk path emits for these chunks: each
            // one's grant span, then its completion counters.
            let n = &self.nodes[node.index()];
            let qp_bytes = n.qps.get(&qp).map_or(0, |q| q.counters.bytes_sent);
            let backlog = n.arbiter.pending_bytes();
            for i in 1..=k {
                let start = end + ser * (i - 1);
                self.trace_grant(start, ser, qp, (grant_bytes, grant_mtus, false, false));
                let sent = i * grant_bytes as u64;
                self.trace_chunk_done(start + ser, node, qp, qp_bytes + sent, backlog - sent);
            }
        }
        if let Some(n) = self.nodes.get_mut(node.index()) {
            n.counters.bytes_sent += bytes;
            n.counters.mtus_sent += mtus;
            n.counters.grants += k;
            n.counters.busy += ser * k;
            if let Some(q) = n.qps.get_mut(&qp) {
                q.counters.bytes_sent += bytes;
                q.counters.mtus_sent += mtus;
            }
            n.arbiter.grant_run(qp, k, grant_bytes);
        }
        let arrival = end + ser * k + self.cfg.one_way_latency();
        if let Some(d) = self.nodes.get_mut(dst.index()) {
            d.ingress_free = arrival.max(d.ingress_free + ser * k);
        }
    }

    /// Brings a node with a pending batched transfer back to the exact
    /// state the chunk-at-a-time path would have at `upto`: chunks whose
    /// serialization finished by then are applied at their historical
    /// times, and a chunk still on the wire becomes an ordinary
    /// `GrantDone` event. Chunk 0 and the final chunk are applied one at a
    /// time; the full chunks between them finish every `ser` and are
    /// applied in one closed-form step, so a settle costs O(1) whatever
    /// the transfer size; only a traced fabric loops over them, to emit
    /// the records each chunk would have emitted on its own. A no-op when
    /// no batch is pending. Called from the `BatchDone` timer itself and
    /// from every operation that could observe or mutate link state
    /// mid-batch.
    fn settle_node(&mut self, node: NodeId, upto: SimTime, inclusive: bool) {
        let Some(batch) = self
            .nodes
            .get_mut(node.index())
            .and_then(|n| n.batch.take())
        else {
            return;
        };
        self.agenda.cancel(batch.timer);
        let (grant_bytes, mtu) = (self.cfg.grant_mtus * self.cfg.mtu_bytes, self.cfg.mtu_bytes);
        // A chunk ending exactly at `upto` is NOT applied here: in the
        // chunk-at-a-time execution its `GrantDone` would be processed
        // after the already-queued event that triggered this settle, so it
        // must become a real event again to keep same-instant ordering.
        let mut end = batch.start + batch.dur0;
        if end > upto || (end == upto && !inclusive) {
            // Chunk 0 is still serializing: fall back to a plain grant.
            self.agenda.schedule_at(
                end,
                Timer::GrantDone {
                    node,
                    plan: batch.plan0,
                },
            );
            return;
        }
        let job = &batch.plan0.job;
        let (seq, qp, dst) = (job.seq, job.qp, job.dst_node);
        let mut left = job.len - job.sent;
        self.apply_batched_chunk(node, batch.plan0, end);
        // Full chunk i ends at `end + i·ser`; the first `k` of them
        // finished by `upto` (a tie only when `inclusive`, as above).
        let full = ((left - 1) / grant_bytes) as u64;
        let k = if batch.ser.is_zero() {
            full
        } else {
            let since = (upto - end).as_nanos();
            let ser = batch.ser.as_nanos();
            let tie = since.is_multiple_of(ser) && !inclusive;
            (since / ser - u64::from(tie)).min(full)
        };
        if k > 0 {
            self.apply_full_chunks(node, qp, dst, k, end, batch.ser);
            end += batch.ser * k;
            left -= (k * grant_bytes as u64) as u32;
        }
        // Exactly one chunk is left to account for: a full one still on
        // the wire (k < full), or the final one, on the wire or done.
        let start = end;
        let bytes = left.min(grant_bytes);
        let plan = match self.nodes[node.index()]
            .arbiter
            .next_grant(grant_bytes, mtu, start)
        {
            GrantDecision::Grant(p) => p,
            _ => {
                // Unreachable for a batched (sole, unlimited) flow;
                // record the inconsistency instead of dropping the tail.
                self.internal_errors.push((
                    start,
                    FabricError::InternalInconsistency(
                        "batched link replay found no grant to serve".into(),
                    ),
                ));
                return;
            }
        };
        debug_assert_eq!(plan.job.seq, seq, "batched replay switched jobs");
        debug_assert_eq!(plan.bytes, bytes, "batched replay chunk size drifted");
        debug_assert_eq!(plan.job_finished, bytes == left);
        let dur = self.cfg.serialization_time(bytes as u64);
        if let Some(n) = self.nodes.get_mut(node.index()) {
            n.counters.busy += dur;
        }
        let chunk = (plan.bytes, plan.mtus, plan.is_first, plan.job_finished);
        self.trace_grant(start, dur, plan.job.qp, chunk);
        end = start + dur;
        if end > upto || (end == upto && !inclusive) {
            // This chunk is on the wire right now: hand it back to the
            // ordinary grant-completion path.
            self.agenda
                .schedule_at(end, Timer::GrantDone { node, plan });
            return;
        }
        debug_assert!(plan.job_finished, "a finished full chunk escaped k");
        self.apply_batched_chunk(node, plan, end);
        // The whole batch completed by `upto`: free the link and look for
        // the next job, exactly as the final grant's completion would. The
        // kick must not open a fresh batch — our caller may be about to
        // mutate link state.
        if let Some(n) = self.nodes.get_mut(node.index()) {
            n.link_busy = false;
        }
        self.kick_link_inner(node, end, false);
    }

    /// Settles every link's pending batch up to `now`. Public so the
    /// platform can flush lazily-batched serialization effects before
    /// reading fabric counters mid-run or at end of run.
    pub fn settle_links(&mut self, now: SimTime) {
        for i in 0..self.nodes.len() {
            self.settle_node(NodeId::new(i as u32), now, false);
        }
    }

    /// If a pending batch's final chunk completes exactly at `t`, returns
    /// the previous chunk boundary — the moment the chunk-at-a-time
    /// execution would have armed that completion. The event loop uses it
    /// to restore same-instant ordering against events armed earlier.
    pub fn batch_fire_arming(&self, t: SimTime) -> Option<SimTime> {
        self.nodes.iter().find_map(|n| {
            n.batch
                .as_ref()
                .filter(|b| b.fire_end == t)
                .map(|b| b.prev_end)
        })
    }

    /// Applies a batched chunk whose serialization ends exactly at `t`
    /// when the chunk-at-a-time execution would have processed that
    /// completion *before* an external event armed at `armed_at`: the
    /// per-chunk completion would have been armed at the previous chunk
    /// boundary, so it wins whenever that boundary is no later than
    /// `armed_at` (the event loop re-arms the fabric before anything
    /// else at the same instant, so ties also go to the fabric).
    pub fn presync_boundary(&mut self, t: SimTime, armed_at: SimTime) {
        for i in 0..self.nodes.len() {
            let Some(b) = self.nodes[i].batch.as_ref() else {
                continue;
            };
            let e0 = b.start + b.dur0;
            let prev = if t == b.fire_end {
                b.prev_end
            } else if t == e0 {
                b.start
            } else if t > e0 && t < b.fire_end {
                let since = (t - e0).as_nanos();
                if !since.is_multiple_of(b.ser.as_nanos()) {
                    continue;
                }
                t - b.ser
            } else {
                continue;
            };
            if prev <= armed_at {
                self.settle_node(NodeId::new(i as u32), t, true);
            }
        }
    }

    fn handle(&mut self, t: SimTime, timer: Timer) -> Result<(), FabricError> {
        match timer {
            Timer::GrantDone { node, plan } => self.on_grant_done(t, node, plan),
            Timer::LinkRetry { node } => {
                if let Some(n) = self.nodes.get_mut(node.index()) {
                    if n.next_retry == Some(t) {
                        n.next_retry = None;
                    }
                }
                self.kick_link(node, t);
                Ok(())
            }
            Timer::Deliver { job } => self.on_final_delivery(t, job),
            Timer::SenderComplete {
                node,
                qp,
                wr_id,
                opcode,
                byte_len,
            } => {
                self.write_send_cqe(t, node, qp, wr_id, opcode, WcStatus::Success, byte_len);
                Ok(())
            }
            Timer::Retransmit { job } => self.on_retransmit(t, job),
            Timer::Reconnect { node, qp } => self.on_reconnect(t, node, qp),
            Timer::BatchDone { node } => {
                self.settle_node(node, t, false);
                Ok(())
            }
        }
    }

    fn on_grant_done(
        &mut self,
        t: SimTime,
        node: NodeId,
        plan: GrantPlan,
    ) -> Result<(), FabricError> {
        let one_way = self.cfg.one_way_latency();
        let chunk_ser = self.cfg.serialization_time(plan.bytes as u64);
        let (qp_bytes, backlog) = self.count_chunk(node, &plan).ok_or_else(|| {
            FabricError::InternalInconsistency(format!("grant completed on unknown node {node}"))
        })?;
        self.nodes[node.index()].link_busy = false;
        self.trace_chunk_done(t, node, plan.job.qp, qp_bytes, backlog);
        let arrival = t + one_way;
        // Wire faults are drawn once per fully-serialized message, so a
        // multi-grant transfer has one loss opportunity per attempt, not
        // per chunk.
        let wire_fault = if plan.job_finished {
            self.draw_wire_fault(t, node, plan.job.qp)
        } else {
            None
        };
        // RC transports retransmit: a lost or corrupted message is
        // re-serialized after the transport timeout, re-consuming egress
        // bandwidth (the paper's "restored latency" under injected loss).
        if wire_fault.is_some() {
            self.on_rc_wire_fault(t, plan.job);
        } else {
            // Every chunk advances the destination's ingress cursor; only
            // the message's final chunk triggers receiver-side effects, so
            // intermediate chunks get no timer at all.
            let delivery = self.ingress_delivery(plan.job.dst_node, arrival, chunk_ser);
            if plan.job_finished {
                self.agenda
                    .schedule_at(delivery, Timer::Deliver { job: plan.job });
            }
        }
        self.kick_link(node, t);
        Ok(())
    }

    /// Draws the per-message wire-fault outcome (the flap state first —
    /// pure clock arithmetic, so it never perturbs the RNG streams — then
    /// loss, then corruption), counting and tracing a hit against the
    /// sending node.
    fn draw_wire_fault(&mut self, t: SimTime, node: NodeId, qp: QpNum) -> Option<WireFault> {
        let f = self.faults.as_mut()?;
        let (fault, name) = if f.link_down(t) {
            // A downed link behaves like 100% loss: the RC retransmission
            // machinery (and, with recovery armed, the connection manager)
            // rides the outage out.
            (WireFault::Lost, "link_down")
        } else if f.lose_message(t) {
            (WireFault::Lost, "link_loss")
        } else if f.corrupt_message(t) {
            (WireFault::Corrupted, "link_corrupt")
        } else {
            return None;
        };
        if let Some(n) = self.nodes.get_mut(node.index()) {
            match fault {
                WireFault::Lost => n.counters.wire_lost += 1,
                WireFault::Corrupted => n.counters.wire_corrupted += 1,
            }
        }
        if self.tracer.enabled() {
            self.tracer
                .instant(t, subsystem::FAULTS, name, Scope::Qp(qp.raw()), vec![]);
        }
        Some(fault)
    }

    /// A reliably-connected message was lost (or arrived corrupted and was
    /// NAKed): schedule a retransmission, or exhaust the retry budget and
    /// error the requester's QP.
    fn on_rc_wire_fault(&mut self, t: SimTime, mut job: EgressJob) {
        job.sent = 0;
        job.attempt += 1;
        if job.attempt > self.cfg.retry_count {
            if self.tracer.enabled() {
                self.tracer.instant(
                    t,
                    subsystem::FAULTS,
                    "retry_exhausted",
                    Scope::Qp(job.qp.raw()),
                    vec![("attempts", job.attempt.into())],
                );
            }
            if self.recovery {
                // Connection manager armed: no error completion, no flush.
                // The message (and the QP's backlog) is journaled and the
                // QP cycles through reconnection.
                self.fail_qp_with_journal(t, job);
                return;
            }
            self.complete_sender_err(t, &job, WcStatus::RetryExceeded);
            let _ = self.set_qp_error(job.src_node, job.qp, t);
            return;
        }
        if let Some(n) = self.nodes.get_mut(job.src_node.index()) {
            n.counters.retransmits += 1;
            if let Some(qp) = n.qps.get_mut(&job.qp) {
                qp.counters.retransmits += 1;
            }
        }
        if self.tracer.enabled() {
            self.tracer.instant(
                t,
                subsystem::FAULTS,
                "retransmit",
                Scope::Qp(job.qp.raw()),
                vec![("attempt", job.attempt.into()), ("bytes", job.len.into())],
            );
        }
        self.agenda
            .schedule_at(t + self.cfg.retransmit_timeout, Timer::Retransmit { job });
    }

    /// A retransmission timer fired: re-enqueue the message on its source
    /// link, unless its QP has since been destroyed (the message dies
    /// silently) or errored — flushed and dead without recovery, journaled
    /// into the QP's connection-manager entry with it.
    fn on_retransmit(&mut self, t: SimTime, job: EgressJob) -> Result<(), FabricError> {
        self.settle_node(job.src_node, t, false);
        let node = job.src_node;
        let Some(n) = self.nodes.get_mut(node.index()) else {
            return Err(FabricError::InternalInconsistency(format!(
                "retransmit timer fired for unknown node {node}"
            )));
        };
        match n.qps.get(&job.qp) {
            Some(qp) if qp.state() != QpState::Error => {}
            Some(_) if self.recovery => {
                // The QP broke while this message's retransmit timer was in
                // flight. It is still unacked, so it belongs in the journal.
                if let Some(entry) = self.cm.get_mut(&(node, job.qp)) {
                    let mut job = job;
                    job.sent = 0;
                    job.attempt = 0;
                    job.rnr_attempt = 0;
                    entry.journal.push(job);
                }
                return Ok(());
            }
            _ => return Ok(()),
        }
        n.arbiter.enqueue(job);
        self.kick_link(node, t);
        Ok(())
    }

    /// Transitions a queue pair to `ERROR` (from any state), flushing its
    /// queued egress work and posted receives with `WrFlushError` CQEs —
    /// `ibv_modify_qp(..., IBV_QPS_ERR)` flush semantics. Idempotent.
    /// Chunks already on the wire still arrive; subsequent posts are
    /// rejected with `BadQpState`.
    pub fn set_qp_error(
        &mut self,
        node: NodeId,
        qp_num: QpNum,
        now: SimTime,
    ) -> Result<(), FabricError> {
        self.settle_node(node, now, false);
        let (purged, recvs) = {
            let n = self.node_mut(node)?;
            let qp = n
                .qps
                .get_mut(&qp_num)
                .ok_or(FabricError::UnknownQp(node, qp_num))?;
            qp.to_error();
            let recvs: Vec<RecvRequest> = qp.rq.drain(..).collect();
            let purged = n.arbiter.purge_qp(qp_num);
            (purged, recvs)
        };
        if self.tracer.enabled() {
            self.tracer.instant(
                now,
                subsystem::FABRIC_ENGINE,
                "qp_error_flush",
                Scope::Qp(qp_num.raw()),
                vec![
                    ("flushed_sends", (purged.len() as u64).into()),
                    ("flushed_recvs", (recvs.len() as u64).into()),
                ],
            );
        }
        let flushed = (purged.len() + recvs.len()) as u64;
        for job in &purged {
            self.complete_sender_err(now, job, WcStatus::WrFlushError);
        }
        let n = self.node_mut(node)?;
        for rr in recvs {
            let (recv_cq, counter) = match n.qps.get_mut(&qp_num) {
                Some(qp) => (qp.recv_cq, qp.next_rq_counter()),
                None => break,
            };
            let cqe = Cqe {
                wr_id: rr.wr_id,
                qp_num,
                byte_len: 0,
                wqe_counter: counter,
                opcode: Opcode::Recv,
                status: WcStatus::WrFlushError,
                imm_data: 0,
            };
            Self::push_cqe(n, qp_num, recv_cq, cqe);
        }
        if let Some(qp) = n.qps.get_mut(&qp_num) {
            qp.counters.flushed += flushed;
        }
        // An injected ERROR still flushes (callers rely on draining the
        // WrFlushError CQEs), but with recovery armed the CM brings the
        // connection itself back — with nothing to replay.
        if self.recovery && !self.cm.contains_key(&(node, qp_num)) {
            self.break_qp(now, node, qp_num, Vec::new(), Vec::new());
        }
        Ok(())
    }

    /// Recovery-path QP failure: where the legacy path flushes
    /// `WrFlushError` CQEs and leaves the QP broken, the connection
    /// manager journals the failing message (reset to a fresh transmission
    /// cycle) together with the QP's queued egress backlog and posted
    /// receives, transitions the QP to `ERROR` *without* surfacing any
    /// completion, and schedules a reconnect. If the QP is already under
    /// the CM (broken while this message's timer was in flight), the
    /// message just joins the journal.
    fn fail_qp_with_journal(&mut self, t: SimTime, mut job: EgressJob) {
        self.settle_node(job.src_node, t, false);
        job.sent = 0;
        job.attempt = 0;
        job.rnr_attempt = 0;
        let key = (job.src_node, job.qp);
        if let Some(entry) = self.cm.get_mut(&key) {
            entry.journal.push(job);
            return;
        }
        let (node, qp_num) = key;
        let (journal, recvs) = {
            let Ok(n) = self.node_mut(node) else { return };
            let Some(qp) = n.qps.get_mut(&qp_num) else {
                return;
            };
            qp.to_error();
            let recvs: Vec<RecvRequest> = qp.rq.drain(..).collect();
            // The failing message was dequeued first, so it replays first;
            // the purged backlog follows in queue order.
            let mut journal = vec![job];
            journal.extend(n.arbiter.purge_qp(qp_num));
            (journal, recvs)
        };
        self.break_qp(t, node, qp_num, journal, recvs);
    }

    /// Registers a broken QP with the connection manager and arms its
    /// first reconnect timer.
    fn break_qp(
        &mut self,
        t: SimTime,
        node: NodeId,
        qp_num: QpNum,
        journal: Vec<EgressJob>,
        recvs: Vec<RecvRequest>,
    ) {
        if self.tracer.enabled() {
            self.tracer.instant(
                t,
                subsystem::RECOVERY,
                "qp_broken",
                Scope::Qp(qp_num.raw()),
                vec![
                    ("journaled_sends", (journal.len() as u64).into()),
                    ("journaled_recvs", (recvs.len() as u64).into()),
                ],
            );
        }
        self.cm.insert(
            (node, qp_num),
            CmEntry {
                journal,
                recvs,
                attempt: 0,
                broken_at: t,
            },
        );
        self.schedule_reconnect(t, node, qp_num, 0);
    }

    /// Exponential reconnect backoff: attempt `n` waits
    /// `reconnect_backoff << min(n, reconnect_max_shift)`, with the shift
    /// additionally capped at [`MAX_BACKOFF_SHIFT`].
    fn reconnect_wait(&self, attempt: u32) -> SimDuration {
        let shift = attempt
            .min(self.cfg.reconnect_max_shift)
            .min(MAX_BACKOFF_SHIFT);
        SimDuration::from_nanos(
            self.cfg
                .reconnect_backoff
                .as_nanos()
                .saturating_mul(1u64 << shift),
        )
    }

    fn schedule_reconnect(&mut self, t: SimTime, node: NodeId, qp: QpNum, attempt: u32) {
        self.agenda.schedule_at(
            t + self.reconnect_wait(attempt),
            Timer::Reconnect { node, qp },
        );
    }

    /// A reconnect timer fired. If the flapping link is still down the QP
    /// stays in `Reconnecting` and backs off again; otherwise the CM cycles
    /// it RESET→INIT→RTR→RTS toward its learned peer, re-posts the
    /// journaled receives, and replays the journaled sends in order.
    fn on_reconnect(&mut self, t: SimTime, node: NodeId, qp_num: QpNum) -> Result<(), FabricError> {
        self.settle_node(node, t, false);
        let key = (node, qp_num);
        if !self.cm.contains_key(&key) {
            return Ok(()); // stale timer: already recovered or abandoned
        }
        if self.faults.as_ref().is_some_and(|f| f.link_is_down(t)) {
            let entry = self.cm.get_mut(&key).expect("presence checked above");
            entry.attempt = entry.attempt.saturating_add(1);
            let attempt = entry.attempt;
            if self.tracer.enabled() {
                self.tracer.instant(
                    t,
                    subsystem::RECOVERY,
                    "reconnect_deferred",
                    Scope::Qp(qp_num.raw()),
                    vec![("attempt", attempt.into())],
                );
            }
            self.schedule_reconnect(t, node, qp_num, attempt);
            return Ok(());
        }
        let entry = self.cm.remove(&key).expect("presence checked above");
        let replayed = entry.journal.len() as u64;
        {
            let n = self.node_mut(node)?;
            let Some(qp) = n.qps.get_mut(&qp_num) else {
                // QP destroyed while broken: the journal dies with it.
                return Ok(());
            };
            if qp.state() != QpState::Error {
                return Ok(()); // recycled out-of-band; nothing to do
            }
            let Some(remote) = qp.remote() else {
                // Never connected; a reconnect has no peer to walk back to.
                return Ok(());
            };
            qp.reset()?;
            qp.to_init()?;
            qp.to_rtr(remote)?;
            qp.to_rts()?;
            qp.counters.reconnects += 1;
            qp.counters.replayed += replayed;
            // Re-posting directly (not via post_recv) keeps the posted-recv
            // counters at their original values: these buffers were already
            // posted once and never completed.
            for rr in entry.recvs {
                qp.rq.push_back(rr);
            }
            for job in entry.journal {
                n.arbiter.enqueue(job);
            }
        }
        if self.tracer.enabled() {
            let downtime = t.saturating_duration_since(entry.broken_at);
            self.tracer.instant(
                t,
                subsystem::RECOVERY,
                "reconnect",
                Scope::Qp(qp_num.raw()),
                vec![
                    ("attempt", entry.attempt.into()),
                    ("replayed", replayed.into()),
                    ("downtime_ns", downtime.as_nanos().into()),
                ],
            );
        }
        self.outputs.push((
            t,
            FabricEvent::QpReconnected {
                node,
                qp: qp_num,
                replayed,
            },
        ));
        self.kick_link(node, t);
        Ok(())
    }

    /// Ingress contention at the destination (incast): a chunk finishes
    /// arriving no earlier than its wire arrival, and no earlier than one
    /// chunk-serialization after the previous chunk accepted by the same
    /// port. A single paced sender never queues (cut-through); multiple
    /// senders converge to the port's line rate.
    fn ingress_delivery(
        &mut self,
        dst_node: NodeId,
        arrival: SimTime,
        chunk_ser: SimDuration,
    ) -> SimTime {
        if let Some(dst) = self.nodes.get_mut(dst_node.index()) {
            let d = arrival.max(dst.ingress_free + chunk_ser);
            dst.ingress_free = d;
            d
        } else {
            arrival
        }
    }

    /// Receiver-side effects once a message has fully arrived.
    fn on_final_delivery(&mut self, t: SimTime, mut job: EgressJob) -> Result<(), FabricError> {
        if self.tracer.enabled() {
            self.tracer.instant(
                t,
                subsystem::FABRIC_ENGINE,
                "deliver",
                Scope::Qp(job.dst_qp.raw()),
                vec![
                    ("bytes", job.len.into()),
                    ("src_qp", job.qp.raw().into()),
                    ("opcode", format!("{:?}", job.opcode).into()),
                ],
            );
        }
        match job.kind {
            JobKind::Send => self.deliver_two_sided(t, job, None),
            JobKind::WriteImm => {
                // Place the data first, then consume a receive.
                if let Err(status) = self.place_rdma_write(&job) {
                    self.complete_sender_err(t, &job, status);
                    return Ok(());
                }
                let imm = job.imm;
                self.deliver_two_sided(t, job, Some(imm))
            }
            JobKind::Write => {
                if let Err(status) = self.place_rdma_write(&job) {
                    self.complete_sender_err(t, &job, status);
                    self.recycle_payload(job.payload.take());
                    return Ok(());
                }
                self.outputs.push((
                    t,
                    FabricEvent::RdmaWriteDelivered {
                        node: job.dst_node,
                        qp: job.dst_qp,
                        gpa: job.remote_gpa,
                        byte_len: job.len,
                    },
                ));
                self.schedule_sender_success(t, &job, job.len);
                self.recycle_payload(job.payload.take());
                Ok(())
            }
        }
    }

    /// Send / WriteImm arrival: consume a receive WQE and write a CQE.
    fn deliver_two_sided(
        &mut self,
        t: SimTime,
        mut job: EgressJob,
        imm: Option<u32>,
    ) -> Result<(), FabricError> {
        let dst = job.dst_node;
        let rr = {
            let n = match self.nodes.get_mut(dst.index()) {
                Some(n) => n,
                None => return Ok(()),
            };
            match n.qps.get_mut(&job.dst_qp) {
                Some(qp) => qp.rq.pop_front(),
                None => None,
            }
        };
        let rr = match rr {
            Some(rr) => rr,
            // The RNR path may retransmit, so the job keeps its payload.
            None => return self.on_rnr_nak(t, job),
        };
        let payload = job.payload.take();
        // For plain sends the payload lands in the receive buffer; WriteImm
        // data has already been placed at the remote address.
        if job.kind == JobKind::Send {
            if rr.len < job.len {
                self.complete_sender_err(t, &job, WcStatus::RemoteAccessError);
                self.recycle_payload(payload);
                return Ok(());
            }
            if let Some(payload) = &payload {
                let n = self.nodes.get_mut(dst.index()).ok_or_else(|| {
                    FabricError::InternalInconsistency(format!(
                        "destination node {dst} vanished during delivery"
                    ))
                })?;
                let pd = n.qps.get(&job.dst_qp).map(|q| q.pd);
                if let Ok(mem) = n.tpt.check(rr.lkey, rr.gpa, job.len, Need::LocalWrite, pd) {
                    // Landing buffers are registered, hence pinned.
                    let _ = mem.dma_write(rr.gpa, payload);
                }
            }
        }
        let n = self.nodes.get_mut(dst.index()).ok_or_else(|| {
            FabricError::InternalInconsistency(format!(
                "destination node {dst} vanished during delivery"
            ))
        })?;
        let (recv_cq, counter) = match n.qps.get_mut(&job.dst_qp) {
            Some(qp) => (qp.recv_cq, qp.next_rq_counter()),
            None => return Ok(()),
        };
        let cqe = Cqe {
            wr_id: rr.wr_id,
            qp_num: job.dst_qp,
            byte_len: job.len,
            wqe_counter: counter,
            opcode: Opcode::Recv,
            status: WcStatus::Success,
            imm_data: imm.unwrap_or(0),
        };
        Self::push_cqe(n, job.dst_qp, recv_cq, cqe);
        self.outputs.push((
            t,
            FabricEvent::RecvComplete {
                node: dst,
                qp: job.dst_qp,
                wr_id: rr.wr_id,
                byte_len: job.len,
                imm,
            },
        ));
        self.schedule_sender_success(t, &job, job.len);
        self.recycle_payload(payload);
        Ok(())
    }

    /// An arriving two-sided message found no posted receive: RNR NAK.
    /// The sender backs off exponentially (`rnr_timer << (attempt-1)`) and
    /// retransmits; once the budget is exhausted the message is dropped,
    /// the sender completes with `RnrRetryExceeded`, and its QP errors —
    /// real RC semantics replacing the old silent one-shot drop.
    fn on_rnr_nak(&mut self, t: SimTime, mut job: EgressJob) -> Result<(), FabricError> {
        let dst = job.dst_node;
        if job.rnr_attempt < self.cfg.rnr_retry_count {
            job.rnr_attempt += 1;
            job.sent = 0;
            let shift = (job.rnr_attempt - 1).min(MAX_BACKOFF_SHIFT);
            let wait = SimDuration::from_nanos(
                self.cfg.rnr_timer.as_nanos().saturating_mul(1u64 << shift),
            );
            if let Some(n) = self.nodes.get_mut(job.src_node.index()) {
                if let Some(qp) = n.qps.get_mut(&job.qp) {
                    qp.counters.rnr_retries += 1;
                }
            }
            if self.tracer.enabled() {
                self.tracer.instant(
                    t,
                    subsystem::FABRIC_ENGINE,
                    "rnr_backoff",
                    Scope::Qp(job.qp.raw()),
                    vec![
                        ("attempt", job.rnr_attempt.into()),
                        ("wait_ns", wait.as_nanos().into()),
                    ],
                );
            }
            self.agenda.schedule_at(t + wait, Timer::Retransmit { job });
            return Ok(());
        }
        if self.recovery {
            // The receiver gave up on this delivery attempt, but nothing is
            // dropped (so no RnrDrop event, no drop counters): the CM keeps
            // the message, journaling it on the sender and reconnecting, by
            // which time the platform has had a chance to replenish the
            // starved receive queue.
            self.fail_qp_with_journal(t, job);
            return Ok(());
        }
        let n = self.nodes.get_mut(dst.index()).ok_or_else(|| {
            FabricError::InternalInconsistency(format!(
                "destination node {dst} vanished during RNR handling"
            ))
        })?;
        n.counters.rnr_drops += 1;
        if let Some(qp) = n.qps.get_mut(&job.dst_qp) {
            qp.counters.rnr_drops += 1;
        }
        self.outputs.push((
            t,
            FabricEvent::RnrDrop {
                node: dst,
                qp: job.dst_qp,
            },
        ));
        self.complete_sender_err(t, &job, WcStatus::RnrRetryExceeded);
        let _ = self.set_qp_error(job.src_node, job.qp, t);
        Ok(())
    }

    /// Validates the rkey and places RDMA-write payload at the destination.
    fn place_rdma_write(&mut self, job: &EgressJob) -> Result<(), WcStatus> {
        let n = self
            .nodes
            .get_mut(job.dst_node.index())
            .ok_or(WcStatus::RemoteAccessError)?;
        let mem = n
            .tpt
            .check(job.rkey, job.remote_gpa, job.len, Need::RemoteWrite, None)
            .map_err(|_| WcStatus::RemoteAccessError)?;
        if let Some(payload) = &job.payload {
            mem.dma_write(job.remote_gpa, payload)
                .map_err(|_| WcStatus::RemoteAccessError)?;
        }
        Ok(())
    }

    fn schedule_sender_success(&mut self, t: SimTime, job: &EgressJob, byte_len: u32) {
        if !job.signaled {
            return;
        }
        self.agenda.schedule_at(
            t + self.cfg.ack_latency,
            Timer::SenderComplete {
                node: job.src_node,
                qp: job.qp,
                wr_id: job.wr_id,
                opcode: job.opcode,
                byte_len,
            },
        );
    }

    fn complete_sender_err(&mut self, t: SimTime, job: &EgressJob, status: WcStatus) {
        // Errors are always reported, signaled or not, like real RC QPs.
        let (node, qp, wr_id, opcode, len) = (job.src_node, job.qp, job.wr_id, job.opcode, job.len);
        self.write_send_cqe(t, node, qp, wr_id, opcode, status, len);
    }

    #[allow(clippy::too_many_arguments)]
    fn write_send_cqe(
        &mut self,
        t: SimTime,
        node: NodeId,
        qp_num: QpNum,
        wr_id: u64,
        opcode: Opcode,
        status: WcStatus,
        byte_len: u32,
    ) {
        let n = match self.nodes.get_mut(node.index()) {
            Some(n) => n,
            None => return,
        };
        let (send_cq, counter) = match n.qps.get_mut(&qp_num) {
            Some(qp) => (qp.send_cq, qp.next_sq_counter()),
            None => return,
        };
        let cqe = Cqe {
            wr_id,
            qp_num,
            byte_len,
            wqe_counter: counter,
            opcode,
            status,
            imm_data: 0,
        };
        Self::push_cqe(n, qp_num, send_cq, cqe);
        self.outputs.push((
            t,
            FabricEvent::SendComplete {
                node,
                qp: qp_num,
                wr_id,
                opcode,
                status,
                byte_len,
            },
        ));
    }

    fn push_cqe(n: &mut Node, qp: QpNum, cq: CqNum, cqe: Cqe) {
        if let Some(q) = n.qps.get_mut(&qp) {
            q.counters.completions += 1;
        }
        if let Some(c) = n.cqs.get_mut(&cq) {
            // Overruns are counted inside the CQ; experiments size rings to
            // never hit this.
            let _ = c.push(cqe);
        }
    }
}
