#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # resex-simcore — discrete-event simulation kernel
//!
//! The foundation every other crate in the ResEx reproduction builds on:
//!
//! * [`time`] — [`SimTime`]/[`SimDuration`], integer-nanosecond simulated time.
//! * [`event`] — [`EventQueue`], a deterministic event calendar with FIFO
//!   tie-breaking and cancellation.
//! * [`rng`] — [`SimRng`], a self-contained xoshiro256** generator so results
//!   are bit-reproducible across machines and dependency upgrades.
//! * [`stats`] — Welford accumulators, log-linear histograms, EWMAs.
//! * [`series`] — time-series recording and windowed rate estimation.
//! * [`shard`] — conservative-lookahead sharding: sync horizons,
//!   deterministic cross-shard channels, per-shard accounting.
//! * [`ids`] — the [`define_id!`] macro for strongly-typed entity ids, and
//!   the hash-free tables keyed by them ([`IdMap`], [`IdRing`]).
//!
//! Nothing in this crate knows about InfiniBand, Xen, or pricing; it is a
//! generic, heavily tested kernel.

pub mod event;
pub mod ids;
pub mod rng;
pub mod series;
pub mod shard;
pub mod stats;
pub mod time;

pub use event::{EventKey, EventQueue};
pub use ids::{IdAllocator, IdMap, IdRing};
pub use rng::SimRng;
pub use series::{TimeSeries, WindowedRate};
pub use shard::{conservative_horizon, LinkChannel, LinkMsg, ShardStats};
pub use stats::{Ewma, Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
