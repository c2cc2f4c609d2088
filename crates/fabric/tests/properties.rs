//! Property-based tests for fabric invariants: conservation, fairness,
//! and wire-format round-trips.

use proptest::prelude::*;
use resex_fabric::link::{EgressJob, FlowParams, GrantDecision, JobKind, LinkArbiter};
use resex_fabric::{Cqe, FabricConfig, NodeId, Opcode, QpNum, WcStatus, CQE_SIZE};
use resex_simcore::time::SimTime;
use resex_simmem::Gpa;
use std::collections::{BTreeMap, BTreeSet};

fn job(seq: u64, qp: u32, len: u32) -> EgressJob {
    EgressJob {
        seq,
        src_node: NodeId::new(0),
        qp: QpNum::new(qp),
        wr_id: seq,
        opcode: Opcode::Send,
        kind: JobKind::Send,
        dst_node: NodeId::new(1),
        dst_qp: QpNum::new(0),
        len,
        sent: 0,
        signaled: true,
        remote_gpa: Gpa::new(0),
        rkey: 0,
        imm: 0,
        payload: None,
        attempt: 0,
        rnr_attempt: 0,
    }
}

/// Every grant the arbiter hands out until it runs dry, as comparable
/// tuples `(qp, seq, bytes, mtus, is_first, job_finished)`.
fn drain_grants(a: &mut LinkArbiter, g: u32) -> Vec<(u32, u64, u32, u32, bool, bool)> {
    let mut out = Vec::new();
    while let GrantDecision::Grant(p) = a.next_grant(g, 1024, SimTime::ZERO) {
        out.push((
            p.job.qp.raw(),
            p.job.seq,
            p.bytes,
            p.mtus,
            p.is_first,
            p.job_finished,
        ));
    }
    out
}

proptest! {
    /// `grant_run(qp, k, g)` is `k` calls of `next_grant` in one step: a
    /// clone that takes the `k` grants one at a time ends in the same
    /// state, seen through `pending_bytes` and every later grant. A second
    /// flow joins afterwards so the leftover `turns_used` decides who goes
    /// next; a purged flow leaves a stale ring entry ahead of the sole one.
    #[test]
    fn grant_run_matches_repeated_next_grant(
        weight_pick in 0usize..3,
        warmup in 0u32..3,
        chunks in 3u32..12,
        past_boundary in any::<bool>(),
        mtus_pick in 0usize..3,
        stale in any::<bool>(),
        k_pick in any::<u64>(),
    ) {
        let weight = [0u32, 1, 3][weight_pick];
        let g = [1u32, 4, 16][mtus_pick] * 1024;
        let len = chunks * g + u32::from(past_boundary);
        let mut a = LinkArbiter::new();
        if stale {
            a.set_flow_params(QpNum::new(9), FlowParams { priority: 0, ..FlowParams::default() });
            a.enqueue(job(100, 9, 3 * g));
            a.purge_qp(QpNum::new(9));
        }
        a.set_flow_params(QpNum::new(1), FlowParams { weight, ..FlowParams::default() });
        a.enqueue(job(0, 1, len));
        // Grants before the run leave a nonzero `turns_used` (weight 3).
        for _ in 0..warmup {
            let served = a.next_grant(g, 1024, SimTime::ZERO);
            prop_assert!(matches!(served, GrantDecision::Grant(_)));
        }
        // Full grants left that do not finish the job.
        let left = len - warmup * g;
        let non_final = (left - 1) / g;
        let k = k_pick % (non_final as u64 + 1);

        let mut stepped = a.clone();
        for _ in 0..k {
            let served = stepped.next_grant(g, 1024, SimTime::ZERO);
            prop_assert!(
                matches!(&served, GrantDecision::Grant(p) if p.bytes == g && !p.job_finished),
                "precondition: full, non-final grants"
            );
        }
        a.grant_run(QpNum::new(1), k, g);
        prop_assert_eq!(a.pending_bytes(), stepped.pending_bytes());

        for arb in [&mut a, &mut stepped] {
            arb.enqueue(job(1, 2, 2 * g + 5));
            arb.enqueue(job(2, 1, g));
        }
        prop_assert_eq!(drain_grants(&mut a, g), drain_grants(&mut stepped, g));
        prop_assert_eq!(a.pending_bytes(), 0);
    }

    /// Bytes granted equal bytes enqueued, for any mix of flows and sizes.
    #[test]
    fn arbiter_conserves_bytes(
        jobs in prop::collection::vec((0u32..8, 0u32..512 * 1024), 1..40),
        grant_mtus in 1u32..64,
    ) {
        let mut a = LinkArbiter::new();
        let total: u64 = jobs.iter().map(|&(_, len)| len as u64).sum();
        for (i, &(qp, len)) in jobs.iter().enumerate() {
            a.enqueue(job(i as u64, qp, len));
        }
        prop_assert_eq!(a.pending_bytes(), total);
        let mut granted = 0u64;
        let mut grants = 0usize;
        while let GrantDecision::Grant(g) = a.next_grant(grant_mtus * 1024, 1024, SimTime::ZERO) {
            granted += g.bytes as u64;
            grants += 1;
            prop_assert!(grants < 10_000_000, "arbiter must terminate");
        }
        prop_assert_eq!(granted, total);
        prop_assert!(!a.has_work());
    }

    /// MTU accounting: the MTUs charged for a message equal
    /// ceil(len / mtu) (minimum 1), regardless of grant size.
    #[test]
    fn arbiter_mtu_accounting(len in 0u32..4 * 1024 * 1024, grant_mtus in 1u32..128) {
        let mut a = LinkArbiter::new();
        a.enqueue(job(0, 0, len));
        let mut mtus = 0u64;
        while let GrantDecision::Grant(g) = a.next_grant(grant_mtus * 1024, 1024, SimTime::ZERO) {
            mtus += g.mtus as u64;
        }
        let expect = if len == 0 { 1 } else { len.div_ceil(1024) } as u64;
        prop_assert_eq!(mtus, expect);
    }

    /// Round-robin fairness: while K flows are continuously backlogged, any
    /// window of K consecutive grants touches K distinct flows.
    #[test]
    fn arbiter_rr_fairness(nflows in 2u32..6, grants_each in 4u32..12) {
        let mut a = LinkArbiter::new();
        // Every flow gets one long job needing exactly `grants_each` grants.
        for f in 0..nflows {
            a.enqueue(job(f as u64, f, grants_each * 16 * 1024));
        }
        let mut order = Vec::new();
        while let GrantDecision::Grant(g) = a.next_grant(16 * 1024, 1024, SimTime::ZERO) {
            order.push(g.job.qp.raw());
        }
        prop_assert_eq!(order.len() as u32, nflows * grants_each);
        // While all flows are backlogged, every window of `nflows`
        // consecutive grants is a permutation of all flows.
        for w in order[..(nflows * (grants_each - 1)) as usize].chunks(nflows as usize) {
            let distinct: BTreeSet<_> = w.iter().collect();
            prop_assert_eq!(distinct.len(), w.len(), "window {:?} starves a flow", w);
        }
        // Per-flow totals are equal.
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for f in order {
            *counts.entry(f).or_default() += 1;
        }
        prop_assert!(counts.values().all(|&c| c == grants_each));
    }

    /// FIFO within each flow: a flow's jobs complete in posting order.
    #[test]
    fn arbiter_fifo_per_flow(lens in prop::collection::vec(1u32..64 * 1024, 2..20)) {
        let mut a = LinkArbiter::new();
        for (i, &len) in lens.iter().enumerate() {
            a.enqueue(job(i as u64, 0, len));
        }
        let mut finished = Vec::new();
        while let GrantDecision::Grant(g) = a.next_grant(16 * 1024, 1024, SimTime::ZERO) {
            if g.job_finished {
                finished.push(g.job.seq);
            }
        }
        let expect: Vec<u64> = (0..lens.len() as u64).collect();
        prop_assert_eq!(finished, expect);
    }

    /// CQE wire format round-trips for arbitrary field values.
    #[test]
    fn cqe_roundtrip(
        wr_id in any::<u64>(),
        qp in any::<u32>(),
        byte_len in any::<u32>(),
        counter in any::<u16>(),
        imm in any::<u32>(),
        owner in 0u8..2,
    ) {
        let cqe = Cqe {
            wr_id,
            qp_num: QpNum::new(qp),
            byte_len,
            wqe_counter: counter,
            opcode: Opcode::RdmaWriteImm,
            status: WcStatus::Success,
            imm_data: imm,
        };
        let raw: [u8; CQE_SIZE] = cqe.encode(owner);
        let (back, o) = Cqe::decode(&raw).unwrap();
        prop_assert_eq!(back, cqe);
        prop_assert_eq!(o, owner);
    }

    /// Serialization time is monotone in bytes and exact for MTU multiples.
    #[test]
    fn serialization_monotone(a in 0u64..1 << 32, b in 0u64..1 << 32) {
        let cfg = FabricConfig::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(cfg.serialization_time(lo) <= cfg.serialization_time(hi));
    }
}
