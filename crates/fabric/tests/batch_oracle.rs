//! The batched link path against the per-chunk path it replaces.
//!
//! A two-node fabric collapses a multi-grant transfer into one
//! `BatchDone` and settles it in closed form; the reference rig adds a
//! third, idle node, which trips the fast path's two-node condition, so
//! it takes one `GrantDone` per chunk. The idle node sends nothing and
//! cannot move a timing. Both must be indistinguishable from outside:
//! the same events at the same instants in the same order, the same
//! counters whenever the batched side is settled, the same trace records,
//! and a `next_time()` that never sleeps through a visible event.
//! Tracing must not change the batched run at all. The random scenarios
//! aim at the places where the closed form can go wrong: operations
//! landing exactly on chunk boundaries, full and partial last chunks, and
//! the WQE overhead that only chunk 0 pays.

use proptest::prelude::*;
use resex_fabric::link::FlowParams;
use resex_fabric::qp::{RecvRequest, WorkRequest};
use resex_fabric::{
    Access, Fabric, FabricConfig, FabricEvent, NodeCounters, NodeId, Opcode, QpNum,
};
use resex_obs::trace::Tracer;
use resex_simcore::time::{SimDuration, SimTime};
use resex_simmem::{Gpa, MemoryHandle};

/// Receive buffers are sized for the largest generated message.
const BUF: u32 = 1 << 20;
/// Receives posted per QP up front; more than any scenario consumes.
const RECVS: u64 = 16;

/// One QP end: the node and QP plus the key and buffer it posts with.
#[derive(Clone, Copy)]
struct End {
    node: NodeId,
    qp: QpNum,
    lkey: u32,
    gpa: Gpa,
}

/// Two nodes with two connected QP pairs, `a[i]` ↔ `b[i]` (plus the idle
/// third node in [`Mode::Reference`]).
struct Rig {
    f: Fabric,
    a: [End; 2],
    b: [End; 2],
    _mem: [MemoryHandle; 2],
}

/// Which execution a run takes.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The two-node rig, untraced: multi-grant transfers batch.
    Batched,
    /// The two-node rig with a memory tracer.
    Traced,
    /// The per-chunk reference, traced: the rig plus an idle third node.
    Reference,
}

fn rig(cfg: &FabricConfig, mode: Mode, tracer: Tracer) -> Rig {
    let mut f = Fabric::new(cfg.clone()).unwrap();
    f.set_tracer(tracer);
    let mut ends = Vec::new();
    let mut mems = Vec::new();
    for _ in 0..2 {
        let node = f.add_node();
        let mem = MemoryHandle::new(8 * BUF as u64);
        let pd = f.create_pd(node).unwrap();
        let uar = f.create_uar(node, &mem).unwrap();
        for _ in 0..2 {
            let cq = f.create_cq(node, &mem, 256).unwrap();
            let qp = f.create_qp(node, pd, cq, cq, 64, 64, uar).unwrap();
            let gpa = mem.alloc_bytes(BUF as u64).unwrap();
            let mr = f
                .register_mr(node, pd, &mem, gpa, BUF, Access::FULL)
                .unwrap();
            ends.push(End {
                node,
                qp,
                lkey: mr.lkey,
                gpa,
            });
        }
        mems.push(mem);
    }
    if mode == Mode::Reference {
        // Added last, so the rig's nodes keep their ids in trace scopes.
        f.add_node();
    }
    let (a, b) = ([ends[0], ends[1]], [ends[2], ends[3]]);
    for i in 0..2 {
        f.connect(a[i].node, a[i].qp, b[i].node, b[i].qp).unwrap();
    }
    for e in a.iter().chain(&b) {
        for r in 0..RECVS {
            let req = RecvRequest {
                wr_id: 1000 + r,
                lkey: e.lkey,
                gpa: e.gpa,
                len: BUF,
            };
            f.post_recv(e.node, e.qp, req).unwrap();
        }
    }
    Rig {
        f,
        a,
        b,
        _mem: [mems.remove(0), mems.remove(0)],
    }
}

/// A scripted operation, applied at its instant before any fabric event
/// due at the same instant.
#[derive(Clone, Debug)]
enum Op {
    /// Post a signaled send of `len` bytes; `from_b` picks the direction,
    /// `pair` the QP pair.
    Send { from_b: bool, pair: usize, len: u32 },
    /// Settle every link, then give `a[pair]` a new WRR weight.
    Weight { pair: usize, weight: u32 },
    /// Settle every link and compare counters.
    Settle,
}

/// What one run shows from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    timeline: Vec<(SimTime, FabricEvent)>,
    /// `next_time()` at every wake-up that produced events.
    wakes: Vec<SimTime>,
    /// Counters read after every `Op::Settle` and at the end.
    counters: Vec<String>,
}

fn counters(r: &Rig) -> String {
    let node = |n: NodeId| -> NodeCounters { r.f.node_counters(n).unwrap() };
    let qps: Vec<_> =
        r.a.iter()
            .chain(&r.b)
            .map(|e| r.f.qp_counters(e.node, e.qp).unwrap())
            .collect();
    format!("{:?} {:?} {qps:?}", node(r.a[0].node), node(r.b[0].node))
}

/// What one run shows from outside, the instant of every wake-up,
/// productive or not, and its trace records as a multiset: sorted by
/// timestamp, then by content.
struct Run {
    seen: Observed,
    steps: Vec<SimTime>,
    trace: Vec<(SimTime, String)>,
}

/// Runs `script` (sorted by time) on the rig `mode` selects.
fn run(cfg: &FabricConfig, mode: Mode, script: &[(SimTime, Op)]) -> Run {
    let tracer = match mode {
        Mode::Batched => Tracer::disabled(),
        Mode::Traced | Mode::Reference => Tracer::memory(),
    };
    let mut r = rig(cfg, mode, tracer.clone());
    let mut obs = Observed {
        timeline: Vec::new(),
        wakes: Vec::new(),
        counters: Vec::new(),
    };
    let mut steps = Vec::new();
    let mut ops = script.iter().peekable();
    let mut buf = Vec::new();
    let mut wr = 0;
    loop {
        let next = r.f.next_time();
        match (ops.peek(), next) {
            (Some(&&(at, ref op)), _) if next.is_none_or(|t| at <= t) => {
                ops.next();
                match *op {
                    Op::Send { from_b, pair, len } => {
                        let e = if from_b { r.b[pair] } else { r.a[pair] };
                        wr += 1;
                        let req = WorkRequest {
                            wr_id: wr,
                            opcode: Opcode::Send,
                            lkey: e.lkey,
                            local_gpa: e.gpa,
                            len,
                            remote: None,
                            imm: 0,
                            signaled: true,
                        };
                        r.f.post_send(e.node, e.qp, req, at).unwrap();
                    }
                    Op::Weight { pair, weight } => {
                        let e = r.a[pair];
                        let params = FlowParams {
                            weight,
                            ..FlowParams::default()
                        };
                        // `set_qp_flow_params` settles at the fabric's
                        // last event, not at `at`; settling first makes
                        // the switch chunk-exact on both paths.
                        r.f.settle_links(at);
                        r.f.set_qp_flow_params(e.node, e.qp, params).unwrap();
                    }
                    Op::Settle => {
                        r.f.settle_links(at);
                        obs.counters.push(counters(&r));
                    }
                }
            }
            (_, Some(t)) => {
                steps.push(t);
                r.f.advance_into(t, &mut buf);
                assert!(buf.iter().all(|e| e.0 == t), "woke after an event was due");
                if !buf.is_empty() {
                    obs.wakes.push(t);
                }
                obs.timeline.append(&mut buf);
            }
            (_, None) => break,
        }
    }
    let end = obs.timeline.last().map_or(SimTime::ZERO, |e| e.0);
    r.f.settle_links(end);
    obs.counters.push(counters(&r));
    assert_eq!(r.f.internal_error_count(), 0);
    let (events, _) = tracer.take_events();
    let mut trace: Vec<_> = events.iter().map(|e| (e.ts, format!("{e:?}"))).collect();
    trace.sort();
    Run {
        seen: obs,
        steps,
        trace,
    }
}

/// Checks the batched run of `script` against its traced twin and the
/// per-chunk reference, and returns the batched and reference runs.
fn check(cfg: &FabricConfig, script: &[(SimTime, Op)]) -> (Run, Run) {
    let batched = run(cfg, Mode::Batched, script);
    let traced = run(cfg, Mode::Traced, script);
    let reference = run(cfg, Mode::Reference, script);
    assert!(!reference.seen.timeline.is_empty());
    assert!(!reference.trace.is_empty());
    // Tracing observes the batched run without changing it.
    assert_eq!(batched.seen, traced.seen, "script {script:?}");
    assert_eq!(batched.steps, traced.steps, "script {script:?}");
    // Batching is invisible: same outputs, same trace records.
    assert_eq!(batched.seen, reference.seen, "script {script:?}");
    assert_eq!(traced.trace, reference.trace, "script {script:?}");
    // Batching only removes wake-ups: it never adds one or moves one to
    // another instant.
    assert!(batched.steps.len() <= reference.steps.len());
    for t in &batched.steps {
        assert!(
            reference.steps.binary_search(t).is_ok(),
            "batched woke at {t}"
        );
    }
    (batched, reference)
}

proptest! {
    /// Batched, traced batched and per-chunk runs of the same random
    /// two-node script are indistinguishable.
    #[test]
    fn batched_link_matches_per_chunk(
        grant_mtus in 2u32..17,
        overhead in any::<bool>(),
        chunks in 2u32..12,
        tail_pick in 0u32..3,
        second in 0u32..4,
        second_at in 0u64..14,
        second_off in 0u32..3,
        second_len in 0u32..3 * 16 * 1024,
        weight_at in prop::option::of(0u64..14),
        weight in 1u32..4,
        settle_pick in 0u32..3,
        settle_at in 0u64..14,
        reply_at in prop::option::of(0u64..200_000),
    ) {
        let mut cfg = FabricConfig {
            grant_mtus,
            ..FabricConfig::default()
        };
        if !overhead {
            cfg.wqe_overhead = SimDuration::ZERO;
        }
        let g = grant_mtus * cfg.mtu_bytes;
        // A full or partial last chunk.
        let len = chunks * g + [0, 1, g / 2][tail_pick as usize];
        let ser = cfg.serialization_time(g as u64);
        // Chunk 0 ends at e0 and chunk i at e0 + i·ser; the last one ends
        // at `fire_end`.
        let half = SimDuration::from_nanos(ser.as_nanos() / 2);
        let e0 = SimTime::ZERO + cfg.wqe_overhead + ser;
        let boundary = |j: u64| e0 + ser * j;
        let fire_end = boundary((len - g - 1) as u64 / g as u64)
            + cfg.serialization_time(((len - g - 1) % g + 1) as u64);
        let offset = |pick: u32| match pick {
            0 => SimDuration::ZERO,
            1 => SimDuration::from_nanos(1),
            _ => half,
        };

        let mut script = vec![(SimTime::ZERO, Op::Send { from_b: false, pair: 0, len })];
        // A second flow at (or just after) a chunk boundary: on the same
        // QP it queues behind the batch, on the other QP it shares the
        // link, and from B it uses the reverse link.
        let at = boundary(second_at) + offset(second_off);
        let op = match second {
            0 => Op::Send { from_b: false, pair: 0, len: second_len },
            1 | 2 => Op::Send { from_b: false, pair: 1, len: second_len },
            _ => Op::Send { from_b: true, pair: 0, len: second_len },
        };
        script.push((at, op));
        if let Some(j) = weight_at {
            script.push((boundary(j), Op::Weight { pair: (j % 2) as usize, weight }));
        }
        let settle = match settle_pick {
            0 => fire_end,
            1 => boundary(settle_at),
            _ => boundary(settle_at) + half,
        };
        script.push((settle, Op::Settle));
        if let Some(ns) = reply_at {
            script.push((
                SimTime::from_nanos(ns),
                Op::Send { from_b: true, pair: 1, len: 5 * g },
            ));
        }
        // Stable: equal instants keep the order pushed above.
        script.sort_by_key(|&(t, _)| t);

        check(&cfg, &script);
    }
}

/// The property above is only as strong as the batching it exercises: a
/// lone multi-grant transfer must really take the batched path.
#[test]
fn a_lone_transfer_is_batched() {
    let cfg = FabricConfig::default();
    let len = 10 * cfg.grant_mtus * cfg.mtu_bytes;
    let script = [(
        SimTime::ZERO,
        Op::Send {
            from_b: false,
            pair: 0,
            len,
        },
    )];
    let (batched, reference) = check(&cfg, &script);
    assert!(
        batched.steps.len() + 8 <= reference.steps.len(),
        "batched {:?} vs per-chunk {:?}",
        batched.steps,
        reference.steps
    );
}
