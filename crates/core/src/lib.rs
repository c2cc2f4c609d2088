#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # resex-core — the ResourceExchange (ResEx) resource manager
//!
//! The paper's contribution: a dom0 resource manager for virtualized
//! RDMA platforms that cannot see — let alone throttle — VMM-bypass I/O
//! directly. ResEx:
//!
//! 1. unifies CPU and InfiniBand usage under one currency, the **Reso**
//!    ([`resos`], [`account`]): 100,000 CPU Resos per VM per 1 s epoch, and
//!    the link's 1,048,576 MTUs/s shared as an I/O pool;
//! 2. charges each VM every 1 ms interval for the MTUs (IBMon estimate)
//!    and CPU percent (XenStat) it consumed, at policy-controlled rates;
//! 3. actuates exclusively through the Xen credit scheduler's **CPU cap**
//!    — the only knob that reaches bypass I/O.
//!
//! Two pricing policies from the paper ([`FreeMarket`] — maximize
//! utilization, Algorithm 1; [`IoShares`] — lower latency variation via
//! congestion pricing, Algorithm 2) plug into the [`PricingPolicy`]
//! trait; [`ResExManager`] is the mechanism that runs them.

pub mod account;
pub mod config;
pub mod freemarket;
pub mod ioshares;
pub mod journal;
pub mod manager;
pub mod pricing;
pub mod resos;

pub use account::ResoAccount;
pub use config::{DepletionMode, ResExConfig};
pub use freemarket::FreeMarket;
pub use ioshares::{IoShares, SlaTarget};
pub use journal::{DecisionJournal, IntervalEntry, JournalRecord};
pub use manager::{IntervalOutcome, ManagerAction, ResExManager, VmCharge};
pub use pricing::{IntervalCtx, LatencyFeedback, PricingPolicy, VmId, VmSnapshot, VmVerdict};
pub use resos::Resos;
