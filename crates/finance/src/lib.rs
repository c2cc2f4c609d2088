#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # resex-finance — financial processing library
//!
//! The compute substrate of the BenchEx trading benchmark, standing in for
//! the proprietary processing of a real exchange (the paper used Ødegaard's
//! C++ finance library (paper ref. 1) for the same purpose): Black–Scholes pricing and
//! Greeks, implied-volatility inversion, and Cox–Ross–Rubinstein binomial
//! lattices, plus transaction-level [`batch::PricingTask`]s whose work
//! estimates drive simulated per-request compute times.

pub mod batch;
pub mod binomial;
pub mod black_scholes;
pub mod implied;
pub mod norm;

pub use batch::{PricingTask, TaskKind, TaskResult};
pub use binomial::{crr_price, Exercise};
pub use black_scholes::{Greeks, OptionKind, OptionSpec};
pub use implied::{implied_vol, ImpliedVolError};
