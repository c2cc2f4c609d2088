#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # resex-benchex — the BenchEx latency benchmark
//!
//! An RDMA-based latency-sensitive benchmark modeled after a commercial
//! trading engine (the paper's collaborator was ICE): clients post
//! timestamped transactions, a strictly FCFS server charges each one the
//! CPU time of its [`resex_finance`] pricing work and replies with a
//! response padded to its configured **buffer size** — the knob every
//! experiment in the paper turns.
//!
//! Components are pure state machines (server, client, reporting agent)
//! returning actions for the platform to execute against the fabric and
//! hypervisor, so each is unit-testable in isolation and the latency
//! decomposition (PTime / CTime / WTime) is exact by construction.

pub mod agent;
pub mod client;
pub mod latency;
pub mod request;
pub mod server;
pub mod trace;

pub use agent::{AgentConfig, LatencyReport, ReportingAgent};
pub use client::{
    Client, ClientAction, ClientMode, ClientTuning, RetryDecision, REQUEST_RETRY_LIMIT,
    REQUEST_TIMEOUT,
};
pub use latency::{LatencyRecord, LatencySummary, LatencyWindow};
pub use request::{TransactionRequest, TransactionResponse, REQUEST_WIRE_BYTES};
pub use server::{Server, ServerAction, ServerConfig, RESPONSE_BYTES_PER_OPTION};
pub use trace::{Burstiness, TaskMix, TraceGen, TraceProfile};
