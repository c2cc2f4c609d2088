//! Stress and edge-case tests for the fabric engine: contention between
//! verbs types, ring overruns, teardown during traffic, and QoS through
//! the full engine.

use resex_fabric::link::FlowParams;
use resex_fabric::qp::{RecvRequest, WorkRequest};
use resex_fabric::ratelimit::TokenBucket;
use resex_fabric::{
    Access, CqNum, Fabric, FabricEvent, NodeId, Opcode, PdId, QpNum, RemoteTarget, UarId,
};
use resex_simcore::time::SimTime;
use resex_simmem::{Gpa, MemoryHandle};

#[allow(dead_code)] // fixture keeps every handle alive for the test body
struct Endpoint {
    node: NodeId,
    mem: MemoryHandle,
    pd: PdId,
    uar: UarId,
    send_cq: CqNum,
    recv_cq: CqNum,
    qp: QpNum,
    buf_gpa: Gpa,
    lkey: u32,
    rkey: u32,
}

fn endpoint(f: &mut Fabric, node: NodeId, buf_len: u32, cq_cap: u32) -> Endpoint {
    let mem = MemoryHandle::new(32 * 1024 * 1024);
    let pd = f.create_pd(node).unwrap();
    let uar = f.create_uar(node, &mem).unwrap();
    let send_cq = f.create_cq(node, &mem, cq_cap).unwrap();
    let recv_cq = f.create_cq(node, &mem, cq_cap).unwrap();
    let qp = f
        .create_qp(node, pd, send_cq, recv_cq, 1024, 1024, uar)
        .unwrap();
    let buf_gpa = mem.alloc_bytes(buf_len as u64).unwrap();
    let mr = f
        .register_mr(node, pd, &mem, buf_gpa, buf_len, Access::FULL)
        .unwrap();
    Endpoint {
        node,
        mem,
        pd,
        uar,
        send_cq,
        recv_cq,
        qp,
        buf_gpa,
        lkey: mr.lkey,
        rkey: mr.rkey,
    }
}

fn drain(f: &mut Fabric) -> Vec<(SimTime, FabricEvent)> {
    let mut out = Vec::new();
    while let Some(t) = f.next_time() {
        out.extend(f.advance(t));
    }
    out
}

/// A CQ sized far below the inflight count must overrun (drop CQEs), keep
/// counting, and keep the rest of the fabric healthy.
#[test]
fn cq_overrun_is_counted_not_fatal() {
    let mut f = Fabric::with_defaults();
    let n0 = f.add_node();
    let n1 = f.add_node();
    let a = endpoint(&mut f, n0, 64 * 1024, 8); // tiny CQs
    let b = endpoint(&mut f, n1, 64 * 1024, 1024);
    f.connect(n0, a.qp, n1, b.qp).unwrap();
    for i in 0..64u64 {
        f.post_recv(
            n1,
            b.qp,
            RecvRequest {
                wr_id: i,
                lkey: b.lkey,
                gpa: b.buf_gpa,
                len: 64 * 1024,
            },
        )
        .unwrap();
    }
    // 64 signaled sends, never polling a's send CQ of capacity 8.
    for i in 0..64u64 {
        f.post_send(
            n0,
            a.qp,
            WorkRequest {
                wr_id: i,
                opcode: Opcode::Send,
                lkey: a.lkey,
                local_gpa: a.buf_gpa,
                len: 1024,
                remote: None,
                imm: 0,
                signaled: true,
            },
            SimTime::ZERO,
        )
        .unwrap();
    }
    drain(&mut f);
    // All messages were delivered regardless of the sender's CQ state.
    assert_eq!(f.qp_counters(n1, b.qp).unwrap().rnr_drops, 0);
    // The sender can still poll out exactly the ring capacity.
    let polled = f.poll_cq(n0, a.send_cq, 1000).unwrap();
    assert_eq!(polled.len(), 8, "ring holds 8; the rest overran");
}

/// Deregistering a memory region after traffic completes unpins its pages;
/// the key is dead afterwards.
#[test]
fn deregistration_after_traffic() {
    let mut f = Fabric::with_defaults();
    let n0 = f.add_node();
    let n1 = f.add_node();
    let a = endpoint(&mut f, n0, 64 * 1024, 64);
    let b = endpoint(&mut f, n1, 64 * 1024, 64);
    f.connect(n0, a.qp, n1, b.qp).unwrap();
    f.post_recv(
        n1,
        b.qp,
        RecvRequest {
            wr_id: 0,
            lkey: b.lkey,
            gpa: b.buf_gpa,
            len: 64 * 1024,
        },
    )
    .unwrap();
    f.post_send(
        n0,
        a.qp,
        WorkRequest {
            wr_id: 0,
            opcode: Opcode::Send,
            lkey: a.lkey,
            local_gpa: a.buf_gpa,
            len: 4096,
            remote: None,
            imm: 0,
            signaled: true,
        },
        SimTime::ZERO,
    )
    .unwrap();
    drain(&mut f);
    f.deregister_mr(n0, a.lkey).unwrap();
    assert!(!a.mem.with_read(|m| m.is_pinned(a.buf_gpa, 64 * 1024)));
    // Posting with the dead key fails synchronously.
    let err = f.post_send(
        n0,
        a.qp,
        WorkRequest {
            wr_id: 1,
            opcode: Opcode::Send,
            lkey: a.lkey,
            local_gpa: a.buf_gpa,
            len: 4096,
            remote: None,
            imm: 0,
            signaled: true,
        },
        SimTime::ZERO,
    );
    assert!(err.is_err());
}

/// QoS through the full engine: a strictly prioritized small flow keeps
/// its latency under a bulk flow from a collocated QP.
#[test]
fn engine_level_priority_protects_small_flow() {
    let run = |prioritized: bool| {
        let mut f = Fabric::with_defaults();
        let n0 = f.add_node();
        let n1 = f.add_node();
        let small = endpoint(&mut f, n0, 256 * 1024, 256);
        let bulk = endpoint(&mut f, n0, 4 * 1024 * 1024, 256);
        let peer_s = endpoint(&mut f, n1, 256 * 1024, 256);
        let peer_b = endpoint(&mut f, n1, 4 * 1024 * 1024, 256);
        f.connect(n0, small.qp, n1, peer_s.qp).unwrap();
        f.connect(n0, bulk.qp, n1, peer_b.qp).unwrap();
        if prioritized {
            f.set_qp_flow_params(
                n0,
                bulk.qp,
                FlowParams {
                    priority: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        }
        f.post_recv(
            n1,
            peer_s.qp,
            RecvRequest {
                wr_id: 0,
                lkey: peer_s.lkey,
                gpa: peer_s.buf_gpa,
                len: 256 * 1024,
            },
        )
        .unwrap();
        // Bulk 2 MiB write first, then the small 64 KiB send.
        f.post_send(
            n0,
            bulk.qp,
            WorkRequest {
                wr_id: 9,
                opcode: Opcode::RdmaWrite,
                lkey: bulk.lkey,
                local_gpa: bulk.buf_gpa,
                len: 2 * 1024 * 1024,
                remote: Some(RemoteTarget {
                    rkey: peer_b.rkey,
                    gpa: peer_b.buf_gpa,
                }),
                imm: 0,
                signaled: false,
            },
            SimTime::ZERO,
        )
        .unwrap();
        f.post_send(
            n0,
            small.qp,
            WorkRequest {
                wr_id: 1,
                opcode: Opcode::Send,
                lkey: small.lkey,
                local_gpa: small.buf_gpa,
                len: 64 * 1024,
                remote: None,
                imm: 0,
                signaled: true,
            },
            SimTime::ZERO,
        )
        .unwrap();
        drain(&mut f)
            .iter()
            .find(|(_, e)| matches!(e, FabricEvent::RecvComplete { .. }))
            .map(|(t, _)| *t)
            .unwrap()
    };
    let shared = run(false).as_micros_f64();
    let prioritized = run(true).as_micros_f64();
    // With strict priority the small flow sees near-solo latency (~64 µs);
    // with plain RR it pays the interleaving penalty (~128 µs).
    assert!(
        prioritized < shared * 0.7,
        "prio={prioritized:.0}µs rr={shared:.0}µs"
    );
    assert!(prioritized < 80.0, "near solo: {prioritized:.0}µs");
}

/// A rate-limited flow through the engine: the link goes quiet between
/// token refills and the retry timer picks the work back up.
#[test]
fn engine_level_rate_limit_paces_traffic() {
    let mut f = Fabric::with_defaults();
    let n0 = f.add_node();
    let n1 = f.add_node();
    let a = endpoint(&mut f, n0, 1024 * 1024, 256);
    let b = endpoint(&mut f, n1, 1024 * 1024, 256);
    f.connect(n0, a.qp, n1, b.qp).unwrap();
    // 64 KiB/s with a 16 KiB burst: a 64 KiB message takes ~0.75 s of
    // refills after the initial burst.
    f.set_qp_flow_params(
        n0,
        a.qp,
        FlowParams {
            rate_limit: Some(TokenBucket::new(64 * 1024, 16 * 1024)),
            ..Default::default()
        },
    )
    .unwrap();
    f.post_recv(
        n1,
        b.qp,
        RecvRequest {
            wr_id: 0,
            lkey: b.lkey,
            gpa: b.buf_gpa,
            len: 1024 * 1024,
        },
    )
    .unwrap();
    f.post_send(
        n0,
        a.qp,
        WorkRequest {
            wr_id: 0,
            opcode: Opcode::Send,
            lkey: a.lkey,
            local_gpa: a.buf_gpa,
            len: 64 * 1024,
            remote: None,
            imm: 0,
            signaled: true,
        },
        SimTime::ZERO,
    )
    .unwrap();
    let events = drain(&mut f);
    let done = events
        .iter()
        .find(|(_, e)| matches!(e, FabricEvent::RecvComplete { .. }))
        .map(|(t, _)| *t)
        .unwrap();
    // Unshaped this takes ~64 µs; shaped it takes ~(64-16)KiB / 64KiB/s = 750 ms.
    let secs = done.as_secs_f64();
    assert!((0.7..0.85).contains(&secs), "paced delivery at {secs:.2}s");
}

/// Incast: two sender nodes blast one receiver; the receiver's ingress
/// port is the bottleneck, so aggregate goodput is one link's worth, not
/// two — while a single sender still gets full cut-through line rate.
#[test]
fn incast_is_limited_by_the_ingress_port() {
    let transfer = 4 * 1024 * 1024u32; // 4 MiB per sender

    let one_sender_time = {
        let mut f = Fabric::with_defaults();
        let ns = f.add_node();
        let nr = f.add_node();
        let s = endpoint(&mut f, ns, 8 * 1024 * 1024, 256);
        let r = endpoint(&mut f, nr, 16 * 1024 * 1024, 256);
        f.connect(ns, s.qp, nr, r.qp).unwrap();
        f.post_send(
            ns,
            s.qp,
            WorkRequest {
                wr_id: 1,
                opcode: Opcode::RdmaWrite,
                lkey: s.lkey,
                local_gpa: s.buf_gpa,
                len: transfer,
                remote: Some(RemoteTarget {
                    rkey: r.rkey,
                    gpa: r.buf_gpa,
                }),
                imm: 0,
                signaled: false,
            },
            SimTime::ZERO,
        )
        .unwrap();
        drain(&mut f)
            .iter()
            .filter_map(|(t, e)| matches!(e, FabricEvent::RdmaWriteDelivered { .. }).then_some(*t))
            .next_back()
            .unwrap()
    };

    let two_senders_time = {
        let mut f = Fabric::with_defaults();
        let ns1 = f.add_node();
        let ns2 = f.add_node();
        let nr = f.add_node();
        let s1 = endpoint(&mut f, ns1, 8 * 1024 * 1024, 256);
        let s2 = endpoint(&mut f, ns2, 8 * 1024 * 1024, 256);
        let r1 = endpoint(&mut f, nr, 16 * 1024 * 1024, 256);
        let r2 = endpoint(&mut f, nr, 16 * 1024 * 1024, 256);
        f.connect(ns1, s1.qp, nr, r1.qp).unwrap();
        f.connect(ns2, s2.qp, nr, r2.qp).unwrap();
        for (n, s, r) in [(ns1, &s1, &r1), (ns2, &s2, &r2)] {
            f.post_send(
                n,
                s.qp,
                WorkRequest {
                    wr_id: 1,
                    opcode: Opcode::RdmaWrite,
                    lkey: s.lkey,
                    local_gpa: s.buf_gpa,
                    len: transfer,
                    remote: Some(RemoteTarget {
                        rkey: r.rkey,
                        gpa: r.buf_gpa,
                    }),
                    imm: 0,
                    signaled: false,
                },
                SimTime::ZERO,
            )
            .unwrap();
        }
        drain(&mut f)
            .iter()
            .filter_map(|(t, e)| matches!(e, FabricEvent::RdmaWriteDelivered { .. }).then_some(*t))
            .next_back()
            .unwrap()
    };

    let solo = one_sender_time.as_secs_f64();
    let incast = two_senders_time.as_secs_f64();
    // 4 MiB at 1 GiB/s ≈ 3.9 ms solo; 8 MiB through one ingress ≈ 7.8 ms.
    assert!((solo - 0.0039).abs() < 0.0005, "solo {solo:.4}s");
    assert!(
        (incast - 2.0 * solo).abs() < 0.001,
        "incast serializes at the port: {incast:.4}s vs solo {solo:.4}s"
    );
}
