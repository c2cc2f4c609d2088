//! End-to-end data-path tests for the fabric engine: two nodes, real guest
//! memory, the full verbs control path, and exact-time assertions on the
//! packet-level timing model.

use resex_fabric::qp::{RecvRequest, WorkRequest};
use resex_fabric::{
    Access, CqNum, Fabric, FabricConfig, FabricEvent, NodeId, Opcode, PdId, QpNum, RemoteTarget,
    UarId, WcStatus,
};
use resex_simcore::time::SimTime;
use resex_simmem::{Gpa, MemoryHandle};

/// One endpoint: a node with memory, PD, UAR, CQs, one QP, and a registered
/// data buffer.
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

fn endpoint(f: &mut Fabric, buf_len: u32) -> Endpoint {
    let node = f.add_node();
    let mem = MemoryHandle::new(16 * 1024 * 1024);
    let pd = f.create_pd(node).unwrap();
    let uar = f.create_uar(node, &mem).unwrap();
    let send_cq = f.create_cq(node, &mem, 256).unwrap();
    let recv_cq = f.create_cq(node, &mem, 256).unwrap();
    let qp = f
        .create_qp(node, pd, send_cq, recv_cq, 128, 128, uar)
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

fn pair(f: &mut Fabric, a_len: u32, b_len: u32) -> (Endpoint, Endpoint) {
    let a = endpoint(f, a_len);
    let b = endpoint(f, b_len);
    f.connect(a.node, a.qp, b.node, b.qp).unwrap();
    (a, b)
}

fn drain(f: &mut Fabric) -> Vec<(SimTime, FabricEvent)> {
    let mut out = Vec::new();
    while let Some(t) = f.next_time() {
        out.extend(f.advance(t));
    }
    out
}

fn send_wr(id: u64, lkey: u32, gpa: Gpa, len: u32) -> WorkRequest {
    WorkRequest {
        wr_id: id,
        opcode: Opcode::Send,
        lkey,
        local_gpa: gpa,
        len,
        remote: None,
        imm: 0,
        signaled: true,
    }
}

#[test]
fn one_kib_send_exact_timing() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4096, 4096);
    f.post_recv(
        b.node,
        b.qp,
        RecvRequest {
            wr_id: 900,
            lkey: b.lkey,
            gpa: b.buf_gpa,
            len: 4096,
        },
    )
    .unwrap();
    f.post_send(
        a.node,
        a.qp,
        send_wr(1, a.lkey, a.buf_gpa, 1024),
        SimTime::ZERO,
    )
    .unwrap();

    let events = drain(&mut f);
    // Serialization: 500ns WQE overhead + 1024B at 1 GiB/s = 953ns → grant
    // done at 1453ns; delivery +600ns = 2053ns; sender completion +1200ns.
    let recv_at = events
        .iter()
        .find(|(_, e)| matches!(e, FabricEvent::RecvComplete { .. }))
        .map(|(t, _)| *t)
        .unwrap();
    let send_at = events
        .iter()
        .find(|(_, e)| matches!(e, FabricEvent::SendComplete { .. }))
        .map(|(t, _)| *t)
        .unwrap();
    assert_eq!(recv_at, SimTime::from_nanos(2053));
    assert_eq!(send_at, SimTime::from_nanos(3253));
}

#[test]
fn send_delivers_payload_bytes() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4096, 4096);
    let msg = b"order: buy 100 ICE @ 42.17";
    a.mem.write(a.buf_gpa, msg).unwrap();
    f.post_recv(
        b.node,
        b.qp,
        RecvRequest {
            wr_id: 7,
            lkey: b.lkey,
            gpa: b.buf_gpa,
            len: 4096,
        },
    )
    .unwrap();
    f.post_send(
        a.node,
        a.qp,
        send_wr(1, a.lkey, a.buf_gpa, msg.len() as u32),
        SimTime::ZERO,
    )
    .unwrap();
    drain(&mut f);
    let mut got = vec![0u8; msg.len()];
    b.mem.read(b.buf_gpa, &mut got).unwrap();
    assert_eq!(&got, msg);
    // And the receive CQE is pollable by the guest.
    let cqes = f.poll_cq(b.node, b.recv_cq, 16).unwrap();
    assert_eq!(cqes.len(), 1);
    assert_eq!(cqes[0].wr_id, 7);
    assert_eq!(cqes[0].byte_len, msg.len() as u32);
    assert!(cqes[0].status.is_ok());
}

#[test]
fn rdma_write_places_data_without_receiver_cqe() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4096, 4096);
    a.mem.write(a.buf_gpa, &[0xAB; 64]).unwrap();
    let wr = WorkRequest {
        wr_id: 2,
        opcode: Opcode::RdmaWrite,
        lkey: a.lkey,
        local_gpa: a.buf_gpa,
        len: 64,
        remote: Some(RemoteTarget {
            rkey: b.rkey,
            gpa: b.buf_gpa,
        }),
        imm: 0,
        signaled: true,
    };
    f.post_send(a.node, a.qp, wr, SimTime::ZERO).unwrap();
    let events = drain(&mut f);
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, FabricEvent::RdmaWriteDelivered { byte_len: 64, .. })));
    assert!(events.iter().any(|(_, e)| matches!(
        e,
        FabricEvent::SendComplete {
            status: WcStatus::Success,
            ..
        }
    )));
    let mut got = [0u8; 64];
    b.mem.read(b.buf_gpa, &mut got).unwrap();
    assert_eq!(got, [0xAB; 64]);
    // No receive CQE for a plain write.
    assert!(f.poll_cq(b.node, b.recv_cq, 16).unwrap().is_empty());
    // The data crossed the writer's egress only: the target sent nothing.
    assert_eq!(f.node_counters(a.node).unwrap().bytes_sent, 64);
    assert_eq!(f.node_counters(b.node).unwrap().bytes_sent, 0);
}

#[test]
fn rdma_write_imm_consumes_receive_and_carries_imm() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4096, 4096);
    f.post_recv(
        b.node,
        b.qp,
        RecvRequest {
            wr_id: 55,
            lkey: b.lkey,
            gpa: b.buf_gpa,
            len: 4096,
        },
    )
    .unwrap();
    let wr = WorkRequest {
        wr_id: 3,
        opcode: Opcode::RdmaWriteImm,
        lkey: a.lkey,
        local_gpa: a.buf_gpa,
        len: 128,
        remote: Some(RemoteTarget {
            rkey: b.rkey,
            gpa: b.buf_gpa,
        }),
        imm: 0xFEED,
        signaled: true,
    };
    f.post_send(a.node, a.qp, wr, SimTime::ZERO).unwrap();
    let events = drain(&mut f);
    let imm = events.iter().find_map(|(_, e)| match e {
        FabricEvent::RecvComplete { imm, wr_id, .. } => Some((*imm, *wr_id)),
        _ => None,
    });
    assert_eq!(imm, Some((Some(0xFEED), 55)));
    let cqes = f.poll_cq(b.node, b.recv_cq, 16).unwrap();
    assert_eq!(cqes[0].imm_data, 0xFEED);
}

#[test]
fn missing_receive_is_an_rnr_drop() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4096, 4096);
    f.post_send(
        a.node,
        a.qp,
        send_wr(9, a.lkey, a.buf_gpa, 512),
        SimTime::ZERO,
    )
    .unwrap();
    let events = drain(&mut f);
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, FabricEvent::RnrDrop { .. })));
    assert!(events.iter().any(|(_, e)| matches!(
        e,
        FabricEvent::SendComplete {
            status: WcStatus::RnrRetryExceeded,
            ..
        }
    )));
    assert_eq!(f.node_counters(b.node).unwrap().rnr_drops, 1);
    assert_eq!(f.qp_counters(b.node, b.qp).unwrap().rnr_drops, 1);
}

#[test]
fn bad_rkey_fails_at_responder() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4096, 4096);
    let wr = WorkRequest {
        wr_id: 5,
        opcode: Opcode::RdmaWrite,
        lkey: a.lkey,
        local_gpa: a.buf_gpa,
        len: 64,
        remote: Some(RemoteTarget {
            rkey: b.rkey ^ 0xFFFF_0000, // corrupt key
            gpa: b.buf_gpa,
        }),
        imm: 0,
        signaled: false, // errors are reported even when unsignaled
    };
    f.post_send(a.node, a.qp, wr, SimTime::ZERO).unwrap();
    let events = drain(&mut f);
    assert!(events.iter().any(|(_, e)| matches!(
        e,
        FabricEvent::SendComplete {
            status: WcStatus::RemoteAccessError,
            ..
        }
    )));
}

#[test]
fn bad_lkey_fails_synchronously() {
    let mut f = Fabric::with_defaults();
    let (a, _b) = pair(&mut f, 4096, 4096);
    let err = f
        .post_send(
            a.node,
            a.qp,
            send_wr(1, a.lkey ^ 0xFF00, a.buf_gpa, 64),
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(format!("{err}").contains("key"));
}

#[test]
fn mtu_accounting_matches_message_sizes() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 128 * 1024, 128 * 1024);
    for i in 0..4u64 {
        f.post_recv(
            b.node,
            b.qp,
            RecvRequest {
                wr_id: i,
                lkey: b.lkey,
                gpa: b.buf_gpa,
                len: 128 * 1024,
            },
        )
        .unwrap();
    }
    // 64 KiB = 64 MTUs, four times.
    for i in 0..4u64 {
        f.post_send(
            a.node,
            a.qp,
            send_wr(i, a.lkey, a.buf_gpa, 64 * 1024),
            SimTime::ZERO,
        )
        .unwrap();
    }
    drain(&mut f);
    let qc = f.qp_counters(a.node, a.qp).unwrap();
    assert_eq!(qc.mtus_sent, 4 * 64);
    assert_eq!(qc.bytes_sent, 4 * 64 * 1024);
    let nc = f.node_counters(a.node).unwrap();
    assert_eq!(nc.mtus_sent, 4 * 64);
}

#[test]
fn shared_link_delays_small_flow_behind_large_flow() {
    // The motivation experiment in miniature (paper Figure 1): a 64 KiB
    // message on an idle link vs. the same message sharing the link with a
    // 2 MiB stream.
    let solo_latency = {
        let mut f = Fabric::with_defaults();
        let (a, b) = pair(&mut f, 4 * 1024 * 1024, 4 * 1024 * 1024);
        f.post_recv(
            b.node,
            b.qp,
            RecvRequest {
                wr_id: 1,
                lkey: b.lkey,
                gpa: b.buf_gpa,
                len: 64 * 1024,
            },
        )
        .unwrap();
        f.post_send(
            a.node,
            a.qp,
            send_wr(1, a.lkey, a.buf_gpa, 64 * 1024),
            SimTime::ZERO,
        )
        .unwrap();
        drain(&mut f)
            .iter()
            .find(|(_, e)| matches!(e, FabricEvent::RecvComplete { .. }))
            .map(|(t, _)| *t)
            .unwrap()
    };

    let shared_latency = {
        let mut f = Fabric::with_defaults();
        let (a, b) = pair(&mut f, 4 * 1024 * 1024, 4 * 1024 * 1024);
        // Second QP on the same sending node = the interfering VM.
        let uar2 = f.create_uar(a.node, &a.mem).unwrap();
        let scq2 = f.create_cq(a.node, &a.mem, 256).unwrap();
        let rcq2 = f.create_cq(a.node, &a.mem, 256).unwrap();
        let qp2 = f
            .create_qp(a.node, a.pd, scq2, rcq2, 128, 128, uar2)
            .unwrap();
        let buf2 = a.mem.alloc_bytes(2 * 1024 * 1024).unwrap();
        let mr2 = f
            .register_mr(a.node, a.pd, &a.mem, buf2, 2 * 1024 * 1024, Access::FULL)
            .unwrap();
        let b_uar2 = f.create_uar(b.node, &b.mem).unwrap();
        let b_scq2 = f.create_cq(b.node, &b.mem, 256).unwrap();
        let b_rcq2 = f.create_cq(b.node, &b.mem, 256).unwrap();
        let b_qp2 = f
            .create_qp(b.node, b.pd, b_scq2, b_rcq2, 128, 128, b_uar2)
            .unwrap();
        f.connect(a.node, qp2, b.node, b_qp2).unwrap();
        // Interferer posts its 2 MiB write first.
        let wr_big = WorkRequest {
            wr_id: 100,
            opcode: Opcode::RdmaWrite,
            lkey: mr2.lkey,
            local_gpa: buf2,
            len: 2 * 1024 * 1024,
            remote: Some(RemoteTarget {
                rkey: b.rkey,
                gpa: b.buf_gpa,
            }),
            imm: 0,
            signaled: false,
        };
        f.post_send(a.node, qp2, wr_big, SimTime::ZERO).unwrap();
        f.post_recv(
            b.node,
            b.qp,
            RecvRequest {
                wr_id: 1,
                lkey: b.lkey,
                gpa: b.buf_gpa,
                len: 64 * 1024,
            },
        )
        .unwrap();
        f.post_send(
            a.node,
            a.qp,
            send_wr(1, a.lkey, a.buf_gpa, 64 * 1024),
            SimTime::ZERO,
        )
        .unwrap();
        drain(&mut f)
            .iter()
            .find(|(_, e)| {
                matches!(
                    e,
                    FabricEvent::RecvComplete {
                        byte_len: 65536,
                        ..
                    }
                )
            })
            .map(|(t, _)| *t)
            .unwrap()
    };

    // Round-robin sharing should roughly double the 64 KiB transfer time,
    // not starve it behind the full 2 MiB.
    let solo = solo_latency.as_micros_f64();
    let shared = shared_latency.as_micros_f64();
    assert!(
        shared > solo * 1.7,
        "expected contention: solo={solo}µs shared={shared}µs"
    );
    assert!(
        shared < solo * 3.0,
        "RR must prevent starvation: solo={solo}µs shared={shared}µs"
    );
}

#[test]
fn link_utilization_accounting() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 1024 * 1024, 1024 * 1024);
    f.post_recv(
        b.node,
        b.qp,
        RecvRequest {
            wr_id: 1,
            lkey: b.lkey,
            gpa: b.buf_gpa,
            len: 1024 * 1024,
        },
    )
    .unwrap();
    f.post_send(
        a.node,
        a.qp,
        send_wr(1, a.lkey, a.buf_gpa, 1024 * 1024),
        SimTime::ZERO,
    )
    .unwrap();
    drain(&mut f);
    let nc = f.node_counters(a.node).unwrap();
    // 1 MiB at 1 GiB/s ≈ 976.6 µs of busy time plus the one-off WQE overhead.
    let expect = 1.0 / 1024.0;
    let got = nc.busy.as_secs_f64();
    assert!((got - expect).abs() < 2e-5, "busy={got}s expect≈{expect}s");
    assert_eq!(nc.grants, 64, "1 MiB in 16-MTU (16 KiB) grants");
}

#[test]
fn doorbells_count_posts() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4096, 4096);
    for i in 0..3u64 {
        f.post_recv(
            b.node,
            b.qp,
            RecvRequest {
                wr_id: i,
                lkey: b.lkey,
                gpa: b.buf_gpa,
                len: 4096,
            },
        )
        .unwrap();
        f.post_send(
            a.node,
            a.qp,
            send_wr(i, a.lkey, a.buf_gpa, 100),
            SimTime::ZERO,
        )
        .unwrap();
    }
    assert_eq!(f.doorbell_value(a.node, a.qp).unwrap(), 3);
    drain(&mut f);
    assert_eq!(f.doorbell_value(a.node, a.qp).unwrap(), 3);
}

#[test]
fn cq_ring_info_exposes_ring_for_introspection() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4096, 4096);
    let (gpa, cap) = f.cq_ring_info(b.node, b.recv_cq).unwrap();
    assert_eq!(cap, 256);
    f.post_recv(
        b.node,
        b.qp,
        RecvRequest {
            wr_id: 77,
            lkey: b.lkey,
            gpa: b.buf_gpa,
            len: 4096,
        },
    )
    .unwrap();
    f.post_send(
        a.node,
        a.qp,
        send_wr(1, a.lkey, a.buf_gpa, 2048),
        SimTime::ZERO,
    )
    .unwrap();
    drain(&mut f);
    // Read the first CQE straight out of guest memory, like IBMon.
    let mut raw = [0u8; resex_fabric::CQE_SIZE];
    b.mem.read(gpa, &mut raw).unwrap();
    let (cqe, _) = resex_fabric::Cqe::decode(&raw).unwrap();
    assert_eq!(cqe.wr_id, 77);
    assert_eq!(cqe.byte_len, 2048);
}

#[test]
fn backlog_reflects_pending_bytes() {
    let mut f = Fabric::with_defaults();
    let (a, b) = pair(&mut f, 4 * 1024 * 1024, 4 * 1024 * 1024);
    let wr = WorkRequest {
        wr_id: 1,
        opcode: Opcode::RdmaWrite,
        lkey: a.lkey,
        local_gpa: a.buf_gpa,
        len: 2 * 1024 * 1024,
        remote: Some(RemoteTarget {
            rkey: b.rkey,
            gpa: b.buf_gpa,
        }),
        imm: 0,
        signaled: false,
    };
    f.post_send(a.node, a.qp, wr, SimTime::ZERO).unwrap();
    // First grant is in flight; the rest is backlog.
    let backlog = f.egress_backlog(a.node).unwrap();
    assert_eq!(backlog, 2 * 1024 * 1024 - 16 * 1024);
    drain(&mut f);
    assert_eq!(f.egress_backlog(a.node).unwrap(), 0);
}

#[test]
fn deterministic_event_sequence() {
    let run = || {
        let mut f = Fabric::with_defaults();
        let (a, b) = pair(&mut f, 64 * 1024, 64 * 1024);
        for i in 0..16u64 {
            f.post_recv(
                b.node,
                b.qp,
                RecvRequest {
                    wr_id: i,
                    lkey: b.lkey,
                    gpa: b.buf_gpa,
                    len: 64 * 1024,
                },
            )
            .unwrap();
            f.post_send(
                a.node,
                a.qp,
                send_wr(i, a.lkey, a.buf_gpa, 8192),
                SimTime::ZERO,
            )
            .unwrap();
        }
        drain(&mut f)
            .into_iter()
            .map(|(t, e)| format!("{t}:{e:?}"))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn hw_jitter_spreads_timing_but_stays_reproducible() {
    let run = |jitter: f64| {
        let cfg = FabricConfig {
            hw_jitter: jitter,
            ..Default::default()
        };
        let mut f = Fabric::new(cfg).unwrap();
        let (a, b) = pair(&mut f, 256 * 1024, 256 * 1024);
        let mut latencies = Vec::new();
        let mut now = SimTime::ZERO;
        for i in 0..32u64 {
            f.post_recv(
                b.node,
                b.qp,
                RecvRequest {
                    wr_id: i,
                    lkey: b.lkey,
                    gpa: b.buf_gpa,
                    len: 256 * 1024,
                },
            )
            .unwrap();
            let start = now;
            f.post_send(
                a.node,
                a.qp,
                send_wr(i, a.lkey, a.buf_gpa, 64 * 1024),
                start,
            )
            .unwrap();
            let events = drain(&mut f);
            let done = events
                .iter()
                .find(|(_, e)| matches!(e, FabricEvent::RecvComplete { .. }))
                .map(|(t, _)| *t)
                .unwrap();
            latencies.push(done.duration_since(start).as_nanos());
            now = events.last().map(|&(t, _)| t).unwrap_or(done);
            f.poll_cq(a.node, a.send_cq, 16).unwrap();
            f.poll_cq(b.node, b.recv_cq, 16).unwrap();
        }
        latencies
    };
    let clean = run(0.0);
    let noisy = run(0.05);
    // Deterministic model: every transfer identical to the nanosecond.
    assert!(
        clean.windows(2).all(|w| w[0] == w[1]),
        "clean runs are exact"
    );
    // Jittered model: spread appears...
    let distinct: std::collections::BTreeSet<_> = noisy.iter().collect();
    assert!(distinct.len() > 16, "jitter spreads latencies");
    // ...but the mean stays near the deterministic value...
    let mean_noisy = noisy.iter().sum::<u64>() as f64 / noisy.len() as f64;
    assert!(
        (mean_noisy - clean[0] as f64).abs() / (clean[0] as f64) < 0.05,
        "jitter is unbiased: {:.0} vs {}",
        mean_noisy,
        clean[0]
    );
    // ...and the noise itself is reproducible (same seed, same stream).
    assert_eq!(run(0.05), noisy);
}
