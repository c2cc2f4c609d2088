#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # resex-fabric — simulated InfiniBand fabric
//!
//! A verbs-level model of the paper's I/O substrate: Mellanox-style HCAs on
//! a shared switch, with the full control path (protection domains, memory
//! registration into a TPT, queue-pair state machines, completion-queue
//! rings living in guest memory, UAR doorbells) and a packet-granular data
//! path (MTU segmentation, per-node egress links arbitrated round-robin
//! between queue pairs, switch/wire latencies, RC acknowledgements).
//!
//! Design notes:
//!
//! * **Interference is link queueing.** All queue pairs of one node share
//!   that node's egress link ([`link::LinkArbiter`]); a VM streaming large
//!   buffers delays a collocated VM's small responses exactly as the paper's
//!   Figure 1/2 measurements show.
//! * **Completions are real bytes.** CQEs are DMA-written into rings in
//!   guest memory ([`cqe`]); IBMon introspects those same bytes.
//! * **Driven, not threaded.** [`Fabric`] exposes
//!   [`next_time`](Fabric::next_time)/[`advance`](Fabric::advance) so a
//!   single deterministic event loop composes it with the hypervisor and
//!   application models.
//!
//! A complete two-sided transfer:
//!
//! ```
//! use resex_fabric::qp::{RecvRequest, WorkRequest};
//! use resex_fabric::{Access, Fabric, FabricEvent, Opcode};
//! use resex_simcore::time::SimTime;
//! use resex_simmem::MemoryHandle;
//!
//! let mut f = Fabric::with_defaults();
//! let (n0, n1) = (f.add_node(), f.add_node());
//!
//! // Endpoint setup: memory, PD, UAR, CQs, QP, registered buffer.
//! let mut setup = |f: &mut Fabric, node| {
//!     let mem = MemoryHandle::new(1 << 20);
//!     let pd = f.create_pd(node).unwrap();
//!     let uar = f.create_uar(node, &mem).unwrap();
//!     let scq = f.create_cq(node, &mem, 64).unwrap();
//!     let rcq = f.create_cq(node, &mem, 64).unwrap();
//!     let qp = f.create_qp(node, pd, scq, rcq, 64, 64, uar).unwrap();
//!     let buf = mem.alloc_bytes(4096).unwrap();
//!     let mr = f.register_mr(node, pd, &mem, buf, 4096, Access::FULL).unwrap();
//!     (mem, qp, rcq, buf, mr)
//! };
//! let (mem_a, qp_a, _, buf_a, mr_a) = setup(&mut f, n0);
//! let (mem_b, qp_b, rcq_b, buf_b, mr_b) = setup(&mut f, n1);
//! f.connect(n0, qp_a, n1, qp_b).unwrap();
//!
//! mem_a.write(buf_a, b"hello fabric").unwrap();
//! f.post_recv(n1, qp_b, RecvRequest { wr_id: 1, lkey: mr_b.lkey, gpa: buf_b, len: 4096 })
//!     .unwrap();
//! f.post_send(n0, qp_a, WorkRequest {
//!     wr_id: 2, opcode: Opcode::Send, lkey: mr_a.lkey, local_gpa: buf_a,
//!     len: 12, remote: None, imm: 0, signaled: true,
//! }, SimTime::ZERO).unwrap();
//!
//! // Drive the event loop to completion.
//! while let Some(t) = f.next_time() { f.advance(t); }
//!
//! let cqe = f.poll_cq(n1, rcq_b, 1).unwrap().remove(0);
//! assert_eq!(cqe.byte_len, 12);
//! let mut got = [0u8; 12];
//! mem_b.read(buf_b, &mut got).unwrap();
//! assert_eq!(&got, b"hello fabric");
//! ```

pub mod config;
pub mod cqe;
pub mod engine;
pub mod error;
pub mod link;
pub mod mr;
pub mod qp;
pub mod ratelimit;
pub mod topology;
pub mod types;
pub mod uar;

pub use config::FabricConfig;
pub use cqe::{CompletionQueue, Cqe, CqeDecodeError, CQE_SIZE};
pub use engine::{Fabric, FabricEvent, NodeCounters, UarId, MAX_BACKOFF_SHIFT};
pub use error::FabricError;
pub use link::{FlowParams, GrantDecision};
pub use mr::{MrHandle, Need, Tpt};
pub use qp::{QpCounters, QpState, QueuePair, RecvRequest, RemoteTarget, WorkRequest};
pub use ratelimit::TokenBucket;
pub use topology::{Hop, RackTopology, Route, Topology, UplinkArbiter, UplinkFlow};
pub use types::{Access, CqNum, NodeId, Opcode, PdId, QpNum, WcStatus};
pub use uar::Uar;
