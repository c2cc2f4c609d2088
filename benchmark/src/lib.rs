//! Seeded benchmark of the ResEx simulator.
//!
//! Four workloads ([`workload`]) each stress a different slice of the
//! simulator. A run ([`suite`]) times fixed-size reps of a workload in
//! child processes and reports host-side end-to-end metrics; a traced run
//! adds a profiled rep and the layer drivers that time each layer's public
//! calls from outside. [`report`] compares two result files
//! and calibrates the bounds in `BENCHMARK.json`.

mod drivers;
mod probe;
pub mod rep;
pub mod report;
pub mod stats;
pub mod suite;
pub mod workload;
