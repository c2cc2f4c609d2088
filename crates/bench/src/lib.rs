#![forbid(unsafe_code)]
//! # resex-bench — the figure-reproduction harness
//!
//! * `src/bin/repro.rs`: regenerates every figure of the paper —
//!   `cargo run -p resex-bench --release --bin repro -- all` — and, as
//!   `repro profile [target]`, runs the same figures under the DES
//!   self-profiler and emits the [`report::ProfileReport`] perf artifact.
//! * `src/bin/simulate.rs`: runs one scenario read from a JSON file.
//!
//! Per-layer timings live in the separate `benchmark/` crate.

pub mod report;
