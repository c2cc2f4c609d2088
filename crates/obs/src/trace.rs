//! The trace core: events, sinks, and the cloneable [`Tracer`] handle.

use resex_simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Which entity an event belongs to. The platform registers QP→VM and
/// domain→VM mappings on the tracer so exporters can group every event
/// under its VM even when the emitting layer only knows a QP or domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Not tied to any VM (dom0, the link itself, the manager).
    Global,
    /// A VM by platform index.
    Vm(u32),
    /// A hypervisor domain id.
    Domain(u32),
    /// A fabric queue pair number.
    Qp(u32),
    /// A fabric node (HCA / switch port).
    Node(u32),
    /// A client by index.
    Client(u32),
}

/// An event argument value. A closed enum (not `serde_json::Value`) keeps
/// emission allocation-light and the export format deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Short string (policy names, reasons).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// The flavour of a trace event, mirroring the Chrome trace-event phases
/// the exporter writes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A point-in-time event (`ph: "i"`).
    Instant,
    /// A completed span with a known duration (`ph: "X"`).
    Complete(SimDuration),
    /// A sampled counter value (`ph: "C"`).
    Counter(f64),
}

/// One structured trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulated timestamp.
    pub ts: SimTime,
    /// Subsystem (see [`crate::subsystem`]).
    pub subsystem: &'static str,
    /// Event name (static so emission never allocates for the name).
    pub name: &'static str,
    /// Owning entity.
    pub scope: Scope,
    /// Instant / span / counter.
    pub kind: EventKind,
    /// Key-value arguments shown in the trace viewer.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Receives trace events as they are emitted.
pub trait TraceSink: Send {
    /// Records one event. Called in deterministic simulation order.
    fn record(&mut self, event: TraceEvent);

    /// Hands back all buffered events, if this sink buffers them.
    /// Streaming sinks (which own their output) return an empty Vec.
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// The default sink: an in-memory, emission-ordered event buffer.
#[derive(Default)]
pub struct MemorySink {
    /// Recorded events in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Entity-mapping state shared with exporters: which VM a QP or domain
/// belongs to, and human-readable VM labels. Ordered maps keep exports
/// deterministic.
#[derive(Clone, Debug, Default)]
pub struct EntityMap {
    /// QP number → VM index.
    pub qp_to_vm: BTreeMap<u32, u32>,
    /// Domain id → VM index.
    pub domain_to_vm: BTreeMap<u32, u32>,
    /// VM index → display label.
    pub vm_labels: BTreeMap<u32, String>,
}

impl EntityMap {
    /// Resolves a scope to its VM index, if it has one.
    pub fn vm_of(&self, scope: Scope) -> Option<u32> {
        match scope {
            Scope::Vm(v) => Some(v),
            Scope::Qp(q) => self.qp_to_vm.get(&q).copied(),
            Scope::Domain(d) => self.domain_to_vm.get(&d).copied(),
            Scope::Client(c) => Some(c),
            Scope::Node(_) | Scope::Global => None,
        }
    }
}

struct TracerInner {
    sink: Box<dyn TraceSink>,
    entities: EntityMap,
}

/// A cloneable tracing handle threaded through every layer of the stack.
///
/// Disabled (the default) it is a `None` and every emit call reduces to
/// one branch; hot paths should still guard argument construction with
/// [`Tracer::enabled`]. The enabled form wraps the sink in
/// `Arc<Mutex<..>>` so the handle stays `Send + Clone` (scenario sweeps
/// run on worker threads); the simulation itself is single-threaded per
/// run, so the lock is uncontended.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TracerInner>>>,
}

impl Tracer {
    /// The no-op tracer.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer recording into the given sink.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TracerInner {
                sink,
                entities: EntityMap::default(),
            }))),
        }
    }

    /// A tracer recording into an in-memory buffer; drain with
    /// [`Tracer::take_events`].
    pub fn memory() -> Self {
        Tracer::new(Box::<MemorySink>::default())
    }

    /// True if events are being recorded. Inlines to `Option::is_some`.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers a QP as belonging to a VM (for exporter grouping).
    pub fn map_qp_to_vm(&self, qp: u32, vm: u32) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().entities.qp_to_vm.insert(qp, vm);
        }
    }

    /// Registers a hypervisor domain as belonging to a VM.
    pub fn map_domain_to_vm(&self, domain: u32, vm: u32) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .unwrap()
                .entities
                .domain_to_vm
                .insert(domain, vm);
        }
    }

    /// Sets a VM's display label for the Chrome "process" name.
    pub fn set_vm_label(&self, vm: u32, label: impl Into<String>) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .unwrap()
                .entities
                .vm_labels
                .insert(vm, label.into());
        }
    }

    /// Emits a fully-built event.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().sink.record(event);
        }
    }

    /// Emits an instant event.
    #[inline]
    pub fn instant(
        &self,
        ts: SimTime,
        subsystem: &'static str,
        name: &'static str,
        scope: Scope,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.enabled() {
            self.emit(TraceEvent {
                ts,
                subsystem,
                name,
                scope,
                kind: EventKind::Instant,
                args,
            });
        }
    }

    /// Emits a completed span: `[ts, ts + dur)`.
    #[inline]
    pub fn complete(
        &self,
        ts: SimTime,
        dur: SimDuration,
        subsystem: &'static str,
        name: &'static str,
        scope: Scope,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.enabled() {
            self.emit(TraceEvent {
                ts,
                subsystem,
                name,
                scope,
                kind: EventKind::Complete(dur),
                args,
            });
        }
    }

    /// Emits a counter sample.
    #[inline]
    pub fn counter(
        &self,
        ts: SimTime,
        subsystem: &'static str,
        name: &'static str,
        scope: Scope,
        value: f64,
    ) {
        if self.enabled() {
            self.emit(TraceEvent {
                ts,
                subsystem,
                name,
                scope,
                kind: EventKind::Counter(value),
                args: Vec::new(),
            });
        }
    }

    /// Takes all recorded events and a copy of the entity map out of a
    /// buffering (memory) tracer. Returns empty state for streaming sinks
    /// or a disabled tracer.
    pub fn take_events(&self) -> (Vec<TraceEvent>, EntityMap) {
        match &self.inner {
            None => (Vec::new(), EntityMap::default()),
            Some(inner) => {
                let mut guard = inner.lock().unwrap();
                let entities = guard.entities.clone();
                (guard.sink.drain(), entities)
            }
        }
    }
}
