//! A self-profiler for the discrete-event simulator.
//!
//! The DES clock is simulated; the profiler measures **wall-clock** cost:
//! where the host CPU actually spends its time while the simulation runs.
//! All monotonic clock reads live here, outside the DES clock, so
//! simulated behaviour is untouched — the zero-perturbation contract from
//! the tracer applies: a profiled run's figure output is byte-identical
//! to an unprofiled run.
//!
//! Per [`World`](../../platform) event loop there is one [`Profiler`].
//! Each event dispatch calls [`Profiler::observe`] (opens the event-type
//! frame, counts the event, samples the calendar size); subsystem work
//! inside the dispatch opens nested frames with [`Profiler::enter`] /
//! [`Profiler::exit`]. Frames are interned into a tree of
//! `(parent, &'static str)` nodes, so steady-state bookkeeping performs
//! **no allocations** — important, because the profiler also reads the
//! per-thread allocation counters from [`crate::alloc`] and must not
//! pollute them.
//!
//! [`Profiler::finish`] flattens the tree into a [`Profile`]: a map from
//! `;`-joined event-type chains (the collapsed-stack convention used by
//! flamegraph tooling) to [`FrameStats`]. Profiles from different worker
//! threads merge commutatively — counts and nanosecond sums only, so the
//! *merged* profile is stable even though the per-thread split depends on
//! work stealing.
//!
//! A process-global collector ([`set_global_enabled`], [`submit`],
//! [`drain`]) lets `repro profile` turn on profiling for every `World`
//! built anywhere in the process and harvest the per-thread results at
//! the end.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Accumulated cost of one frame (one node in the event-type chain tree).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FrameStats {
    /// Times the frame was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds inside the frame (inclusive of
    /// children).
    pub wall_ns: u64,
    /// Wall-clock nanoseconds minus time spent in child frames.
    pub self_ns: u64,
    /// Heap allocations attributed to this frame (exclusive of children;
    /// zero unless the binary installs [`crate::alloc::CountingAlloc`]).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl FrameStats {
    /// Adds another frame's numbers into this one (commutative).
    pub fn merge(&mut self, other: &FrameStats) {
        self.calls += other.calls;
        self.wall_ns += other.wall_ns;
        self.self_ns += other.self_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// Event-calendar size statistics, sampled once per dispatched event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CalendarStats {
    /// Number of samples (== events observed).
    pub samples: u64,
    /// Sum of pending-event counts across samples.
    pub sum_len: u64,
    /// Largest pending-event count seen.
    pub max_len: u64,
}

impl CalendarStats {
    /// Mean calendar size across all samples.
    pub fn mean_len(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_len as f64 / self.samples as f64
        }
    }

    /// Adds another sampler's numbers into this one (commutative).
    pub fn merge(&mut self, other: &CalendarStats) {
        self.samples += other.samples;
        self.sum_len += other.sum_len;
        self.max_len = self.max_len.max(other.max_len);
    }
}

/// The flattened result of one profiled run (or a merge of several).
#[derive(Clone, Debug, Default, Serialize)]
pub struct Profile {
    /// `;`-joined event-type chain → accumulated stats, in chain order.
    pub frames: BTreeMap<String, FrameStats>,
    /// Events dispatched (every calendar pop, including the final `End`).
    pub events: u64,
    /// Wall-clock nanoseconds from profiler start to finish.
    pub wall_ns: u64,
    /// Calendar-size statistics.
    pub calendar: CalendarStats,
}

impl Profile {
    /// Merges another profile into this one. All fields are counts or
    /// sums, so the result is independent of merge order.
    pub fn merge(&mut self, other: &Profile) {
        for (chain, stats) in &other.frames {
            self.frames.entry(chain.clone()).or_default().merge(stats);
        }
        self.events += other.events;
        self.wall_ns += other.wall_ns;
        self.calendar.merge(&other.calendar);
    }

    /// Top-level frames only (chains without a `;`): the per-event-type
    /// view, in name order.
    pub fn event_types(&self) -> impl Iterator<Item = (&str, &FrameStats)> {
        self.frames
            .iter()
            .filter(|(chain, _)| !chain.contains(';'))
            .map(|(chain, stats)| (chain.as_str(), stats))
    }

    /// Renders the profile in the collapsed-stack ("folded") format
    /// consumed by flamegraph tooling: one `chain self_ns` line per
    /// frame, in deterministic chain order. Zero-self-time frames are
    /// kept so the tree shape is visible.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (chain, stats) in &self.frames {
            out.push_str(chain);
            out.push(' ');
            out.push_str(&stats.self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

struct Node {
    name: &'static str,
    parent: Option<u32>,
    stats: FrameStats,
}

struct Open {
    node: u32,
    start: Instant,
    allocs0: u64,
    bytes0: u64,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// Interning key: parent node id (or `NO_PARENT` for roots) + frame name.
const NO_PARENT: u32 = u32::MAX;

/// Frame interning index, keyed by (parent, name). It is only looked up,
/// never iterated, so its hash seed cannot reach the report.
#[allow(clippy::disallowed_types)] // `&'static str` keys: hashing beats ordered compares
type FrameIndex = std::collections::HashMap<(u32, &'static str), u32>;

struct ProfInner {
    nodes: Vec<Node>,
    index: FrameIndex,
    stack: Vec<Open>,
    calendar: CalendarStats,
    events: u64,
    started: Instant,
}

/// Per-`World` profiler handle. Disabled, it is a `None` and every call
/// is a no-op the optimizer removes; the event loop additionally hoists
/// [`Profiler::is_enabled`] so the hot path stays branch-free when off.
pub struct Profiler {
    inner: Option<Box<ProfInner>>,
}

impl Profiler {
    /// Creates a profiler; `enabled: false` yields the no-op handle.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            inner: enabled.then(|| {
                Box::new(ProfInner {
                    nodes: Vec::with_capacity(64),
                    index: FrameIndex::with_capacity(64),
                    stack: Vec::with_capacity(8),
                    calendar: CalendarStats::default(),
                    events: 0,
                    started: Instant::now(),
                })
            }),
        }
    }

    /// The no-op handle.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// Whether profiling is active. Inlined so the event loop can hoist
    /// the check.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Marks the dispatch of one event: counts it, samples the calendar
    /// size, and opens the event-type root frame (closed by the matching
    /// [`Profiler::exit`]).
    pub fn observe(&mut self, event_type: &'static str, calendar_len: usize) {
        if let Some(inner) = &mut self.inner {
            inner.events += 1;
            inner.calendar.samples += 1;
            inner.calendar.sum_len += calendar_len as u64;
            inner.calendar.max_len = inner.calendar.max_len.max(calendar_len as u64);
            inner.enter(event_type);
        }
    }

    /// Opens a nested frame under the currently open one.
    pub fn enter(&mut self, name: &'static str) {
        if let Some(inner) = &mut self.inner {
            inner.enter(name);
        }
    }

    /// Closes the innermost open frame, attributing elapsed wall time and
    /// allocation deltas (minus what its children claimed) to it.
    pub fn exit(&mut self) {
        if let Some(inner) = &mut self.inner {
            inner.exit();
        }
    }

    /// Ends profiling and flattens the node tree into a [`Profile`].
    /// Returns `None` for a disabled handle. Any still-open frames are
    /// closed first.
    pub fn finish(&mut self) -> Option<Profile> {
        let mut inner = self.inner.take()?;
        while !inner.stack.is_empty() {
            inner.exit();
        }
        let wall_ns = inner.started.elapsed().as_nanos() as u64;
        let mut frames = BTreeMap::new();
        for (id, node) in inner.nodes.iter().enumerate() {
            frames.insert(inner.chain_of(id as u32), node.stats);
        }
        Some(Profile {
            frames,
            events: inner.events,
            wall_ns,
            calendar: inner.calendar,
        })
    }
}

impl ProfInner {
    fn intern(&mut self, parent: Option<u32>, name: &'static str) -> u32 {
        let key = (parent.unwrap_or(NO_PARENT), name);
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            name,
            parent,
            stats: FrameStats::default(),
        });
        self.index.insert(key, id);
        id
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map(|o| o.node);
        let node = self.intern(parent, name);
        let (allocs0, bytes0) = crate::alloc::thread_counters();
        self.stack.push(Open {
            node,
            start: Instant::now(),
            allocs0,
            bytes0,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    fn exit(&mut self) {
        let Some(open) = self.stack.pop() else {
            debug_assert!(false, "profiler exit without matching enter");
            return;
        };
        let elapsed = open.start.elapsed().as_nanos() as u64;
        let (allocs1, bytes1) = crate::alloc::thread_counters();
        let allocs = allocs1.wrapping_sub(open.allocs0);
        let bytes = bytes1.wrapping_sub(open.bytes0);
        let stats = &mut self.nodes[open.node as usize].stats;
        stats.calls += 1;
        stats.wall_ns += elapsed;
        stats.self_ns += elapsed.saturating_sub(open.child_ns);
        stats.allocs += allocs.saturating_sub(open.child_allocs);
        stats.alloc_bytes += bytes.saturating_sub(open.child_bytes);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
            parent.child_allocs += allocs;
            parent.child_bytes += bytes;
        }
    }

    fn chain_of(&self, mut id: u32) -> String {
        let mut parts = vec![self.nodes[id as usize].name];
        while let Some(parent) = self.nodes[id as usize].parent {
            parts.push(self.nodes[parent as usize].name);
            id = parent;
        }
        parts.reverse();
        parts.join(";")
    }
}

// ---------------------------------------------------------------------------
// Process-global collection (for `repro profile`)
// ---------------------------------------------------------------------------

static PROFILING: AtomicBool = AtomicBool::new(false);
static COLLECTED: Mutex<BTreeMap<String, Profile>> = Mutex::new(BTreeMap::new());

/// Turns global profiling on or off. While on, every `World` built in the
/// process profiles itself and submits its result here at the end of its
/// run.
pub fn set_global_enabled(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether global profiling is on.
#[inline]
pub fn global_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Submits a finished profile to the global collector, keyed (and merged)
/// by the submitting thread's name — `resex-worker-N` for pool workers,
/// `main` for the caller thread.
pub fn submit(profile: Profile) {
    let label = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string();
    let mut collected = COLLECTED.lock().unwrap();
    match collected.get_mut(&label) {
        Some(existing) => existing.merge(&profile),
        None => {
            collected.insert(label, profile);
        }
    }
}

/// Drains everything submitted so far, returning per-thread profiles in
/// thread-name order.
pub fn drain() -> BTreeMap<String, Profile> {
    std::mem::take(&mut *COLLECTED.lock().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_a_no_op() {
        let mut p = Profiler::disabled();
        assert!(!p.is_enabled());
        p.observe("Ev", 3);
        p.enter("child");
        p.exit();
        p.exit();
        assert!(p.finish().is_none());
    }

    #[test]
    fn frames_nest_and_self_time_excludes_children() {
        let mut p = Profiler::new(true);
        for _ in 0..3 {
            p.observe("FabricSync", 10);
            p.enter("fabric.advance");
            p.exit();
            p.exit();
        }
        p.observe("End", 1);
        p.exit();
        let profile = p.finish().expect("enabled profiler yields a profile");
        assert_eq!(profile.events, 4);
        assert_eq!(profile.calendar.samples, 4);
        assert_eq!(profile.calendar.max_len, 10);
        let root = &profile.frames["FabricSync"];
        let child = &profile.frames["FabricSync;fabric.advance"];
        assert_eq!(root.calls, 3);
        assert_eq!(child.calls, 3);
        assert!(root.wall_ns >= child.wall_ns);
        assert!(root.self_ns <= root.wall_ns);
        assert_eq!(profile.frames["End"].calls, 1);
    }

    #[test]
    fn finish_closes_dangling_frames() {
        let mut p = Profiler::new(true);
        p.observe("Ev", 1);
        p.enter("left-open");
        let profile = p.finish().unwrap();
        assert_eq!(profile.frames["Ev"].calls, 1);
        assert_eq!(profile.frames["Ev;left-open"].calls, 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |n: u64| {
            let mut p = Profiler::new(true);
            for _ in 0..n {
                p.observe("A", n as usize);
                p.enter("b");
                p.exit();
                p.exit();
            }
            p.finish().unwrap()
        };
        let (x, y) = (mk(2), mk(5));
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy.events, 7);
        assert_eq!(xy.frames["A"], yx.frames["A"]);
        assert_eq!(xy.frames["A;b"], yx.frames["A;b"]);
        assert_eq!(xy.calendar, yx.calendar);
        assert_eq!(xy.collapsed(), yx.collapsed());
    }

    #[test]
    fn collapsed_format_is_chain_space_selfns() {
        let mut p = Profiler::new(true);
        p.observe("ResExInterval", 2);
        p.enter("policy");
        p.exit();
        p.exit();
        let profile = p.finish().unwrap();
        let folded = profile.collapsed();
        for line in folded.lines() {
            let (chain, value) = line.rsplit_once(' ').expect("chain SP value");
            assert!(!chain.is_empty());
            value.parse::<u64>().expect("self_ns is an integer");
        }
        assert!(folded.contains("ResExInterval;policy "));
    }

    #[test]
    fn event_types_filters_to_roots() {
        let mut p = Profiler::new(true);
        p.observe("A", 1);
        p.enter("x");
        p.exit();
        p.exit();
        p.observe("B", 1);
        p.exit();
        let profile = p.finish().unwrap();
        let roots: Vec<&str> = profile.event_types().map(|(n, _)| n).collect();
        assert_eq!(roots, ["A", "B"]);
    }

    #[test]
    fn global_collector_merges_by_thread_label() {
        // Serialize against other tests touching the global collector.
        let _ = drain();
        let mk = |events: u64| {
            let mut p = Profiler::new(true);
            for _ in 0..events {
                p.observe("Tick", 1);
                p.exit();
            }
            p.finish().unwrap()
        };
        submit(mk(3));
        submit(mk(4));
        let collected = drain();
        assert_eq!(collected.len(), 1, "same thread → one label");
        let profile = collected.values().next().unwrap();
        assert_eq!(profile.events, 7);
        assert_eq!(profile.frames["Tick"].calls, 7);
        assert!(drain().is_empty(), "drain empties the collector");
    }
}
