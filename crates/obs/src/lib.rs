//! # resex-obs — deterministic observability for the ResEx stack
//!
//! The paper's argument is causal: IBMon *observes* VMM-bypass I/O, ResEx
//! *prices* it, and the credit scheduler's cap *actuates* the price. This
//! crate makes each link of that chain visible without perturbing it:
//!
//! * [`Tracer`] / [`TraceSink`] — structured span/instant/counter events
//!   stamped with [`SimTime`](resex_simcore::SimTime), scoped by subsystem
//!   (`fabric.link`, `hv.sched`, `resex.manager`, `ibmon`, ...) and entity
//!   (VM / QP / domain). A disabled tracer is a `None` handle: the hot
//!   paths check [`Tracer::enabled`] (an inlined `Option::is_some`) and
//!   skip all argument construction, so tracing off costs ~nothing.
//! * [`MetricsRegistry`] — counters, gauges and histograms built on
//!   `resex-simcore`'s `OnlineStats`/`Histogram`/`WindowedRate`,
//!   snapshotted every charging interval.
//! * Exporters — [`chrome::export_chrome_trace`] renders a Chrome
//!   trace-event JSON array loadable in Perfetto / `chrome://tracing`
//!   (one "process" per VM, one "thread" per subsystem), and
//!   [`snapshot::to_jsonl`] renders per-interval per-VM metric rows as
//!   JSON Lines.
//! * [`Profiler`] — a self-profiler for the simulator itself: wall-clock
//!   cost per event-type chain, calendar sizes, and (when the binary
//!   installs [`alloc::CountingAlloc`]) allocation counts, with a
//!   collapsed-stack exporter for flamegraph tooling. Wall-clock reads
//!   live outside the DES clock, so profiled runs stay byte-identical.
//! * [`HdrHistogram`] — fixed-memory log-bucketed latency histogram with
//!   a byte-stable binary encoding; [`SloMonitor`] counts per-interval
//!   SLO violations against a configured latency threshold.
//!
//! Everything here is deterministic: event order is emission order, maps
//! are ordered, and float formatting is fixed — the same seed produces
//! byte-identical exports.

pub mod alloc;
pub mod chrome;
pub mod hist;
pub mod metrics;
pub mod profiler;
pub mod slo;
pub mod snapshot;
pub mod trace;

pub use chrome::export_chrome_trace;
pub use hist::{HdrHistogram, LatencyPercentiles};
pub use metrics::{MetricKind, MetricSample, MetricsRegistry};
pub use profiler::{CalendarStats, FrameStats, Profile, Profiler};
pub use slo::SloMonitor;
pub use snapshot::{to_jsonl, IntervalSnapshot};
pub use trace::{ArgValue, EventKind, MemorySink, Scope, TraceEvent, TraceSink, Tracer};

/// Canonical subsystem names. Using these constants (not ad-hoc strings)
/// keeps traces greppable and gives the Chrome exporter a stable thread
/// ordering.
pub mod subsystem {
    /// Egress-link arbitration: grants, throttles, queue depth.
    pub const FABRIC_LINK: &str = "fabric.link";
    /// HCA engine: message delivery and completion.
    pub const FABRIC_ENGINE: &str = "fabric.engine";
    /// Hypervisor credit scheduler: caps, credit burn, reschedules.
    pub const HV_SCHED: &str = "hv.sched";
    /// ResEx manager: pricing, charges, cap decisions.
    pub const RESEX_MANAGER: &str = "resex.manager";
    /// IBMon: CQ-ring introspection estimates.
    pub const IBMON: &str = "ibmon";
    /// Fault injection: every injected fault and the recovery it triggered.
    pub const FAULTS: &str = "faults";
    /// Self-healing: QP reconnection, WQE replay, request retry, watchdog.
    pub const RECOVERY: &str = "recovery";
    /// Antagonist plane: attacker actions (deferred bursts, poison cycles)
    /// and the hardening countermeasures they trip (cross-check
    /// corrections, group clamps, jittered sampling).
    pub const ADVERSARY: &str = "adversary";
    /// Crash failure domains and the chaos explorer: manager/host/VM
    /// crashes, journal recovery, re-admissions.
    pub const CHAOS: &str = "chaos";
    /// All subsystems in their fixed thread order for the Chrome export.
    pub const ALL: [&str; 9] = [
        FABRIC_LINK,
        FABRIC_ENGINE,
        HV_SCHED,
        RESEX_MANAGER,
        IBMON,
        FAULTS,
        RECOVERY,
        ADVERSARY,
        CHAOS,
    ];
}
