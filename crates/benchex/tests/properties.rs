//! Property-based tests for BenchEx wire formats and state machines.

use proptest::prelude::*;
use resex_benchex::{
    Client, ClientAction, ClientMode, Server, ServerConfig, TraceGen, TraceProfile,
    TransactionRequest, TransactionResponse,
};
use resex_finance::{PricingTask, TaskKind};
use resex_simcore::time::{SimDuration, SimTime};

fn arb_task() -> impl Strategy<Value = PricingTask> {
    (
        prop_oneof![
            Just(TaskKind::Quote),
            Just(TaskKind::Risk),
            (1u32..256).prop_map(|steps| TaskKind::Reprice { steps }),
            Just(TaskKind::ImpliedVol),
        ],
        1u32..1000,
        any::<u64>(),
    )
        .prop_map(|(kind, n_options, seed)| PricingTask {
            kind,
            n_options,
            seed,
        })
}

proptest! {
    /// Requests survive the wire round-trip for arbitrary contents.
    #[test]
    fn request_roundtrip(id in any::<u64>(), client in any::<u32>(), at in any::<u64>(), task in arb_task()) {
        let req = TransactionRequest {
            id,
            client_id: client,
            sent_at: SimTime::from_nanos(at),
            task,
        };
        prop_assert_eq!(TransactionRequest::decode(&req.encode()), Some(req));
    }

    /// Responses survive the wire round-trip, with arbitrary padding.
    #[test]
    fn response_roundtrip(id in any::<u64>(), at in any::<u64>(), svc in any::<u64>(), pad in 0usize..8192) {
        let resp = TransactionResponse {
            id,
            sent_at: SimTime::from_nanos(at),
            service_ns: svc,
        };
        let mut wire = resp.encode_wire().to_vec();
        wire.resize(wire.len() + pad, 0);
        prop_assert_eq!(TransactionResponse::decode(&wire), Some(resp));
    }

    /// The server preserves FCFS order and conserves requests for any
    /// arrival pattern: everything that arrives is eventually served, in
    /// order, and the latency decomposition is internally consistent.
    #[test]
    fn server_fcfs_conservation(arrival_gaps in prop::collection::vec(1u64..500, 1..60)) {
        let mut server = Server::new(ServerConfig::default());
        let mut t = SimTime::ZERO;
        let mut pending: Option<u64> = None; // request id in service
        let mut served_order = Vec::new();
        let mut next_id = 0u64;
        let drive = |server: &mut Server, act, t: &mut SimTime, served: &mut Vec<u64>, pending: &mut Option<u64>| {
            // Execute the action synchronously with fixed stage delays.
            let mut act = act;
            loop {
                match act {
                    resex_benchex::ServerAction::StartCompute { .. } => {
                        *t += SimDuration::from_micros(100);
                        act = server.on_compute_done(*t);
                    }
                    resex_benchex::ServerAction::PostResponse { request_id, .. } => {
                        *pending = Some(request_id);
                        *t += SimDuration::from_micros(64);
                        let (rec, next) = server.on_send_complete(*t);
                        prop_assert_eq!(rec.request_id, pending.take().unwrap());
                        served.push(rec.request_id);
                        act = next;
                    }
                    resex_benchex::ServerAction::Idle => break,
                }
            }
            Ok(())
        };
        for gap in &arrival_gaps {
            t += SimDuration::from_micros(*gap);
            let req = TransactionRequest {
                id: next_id,
                client_id: 0,
                sent_at: t,
                task: PricingTask { kind: TaskKind::Quote, n_options: 8, seed: 0 },
            };
            next_id += 1;
            let act = server.on_request(req, t);
            drive(&mut server, act, &mut t, &mut served_order, &mut pending)?;
        }
        prop_assert_eq!(server.served(), arrival_gaps.len() as u64);
        let expect: Vec<u64> = (0..arrival_gaps.len() as u64).collect();
        prop_assert_eq!(served_order, expect, "FCFS violated");
        // Every record's total equals the sum of its components.
        for r in server.window.since(SimTime::ZERO) {
            prop_assert_eq!(r.total(), r.ptime + r.ctime + r.wtime);
        }
    }

    /// Closed-loop clients keep at most one request outstanding, always.
    #[test]
    fn closed_loop_one_outstanding(responses in prop::collection::vec(1u64..1000, 1..50)) {
        let trace = TraceGen::new(TraceProfile::uniform_quotes(8), 1);
        let mut c = Client::new(0, ClientMode::ClosedLoop { think: SimDuration::ZERO }, trace, 2);
        let mut t = SimTime::ZERO;
        let mut act = c.start(t);
        for gap in &responses {
            if !matches!(act, ClientAction::Send(_)) {
                return Err(TestCaseError::fail(format!("expected send, got {act:?}")));
            }
            prop_assert_eq!(c.outstanding(), 1);
            t += SimDuration::from_micros(*gap);
            act = c.on_response(t);
        }
        prop_assert_eq!(c.received(), responses.len() as u64);
    }

    /// Trace generators with the same profile and seed agree; different
    /// seeds diverge quickly.
    #[test]
    fn trace_determinism(seed in any::<u64>()) {
        let mut a = TraceGen::new(TraceProfile::default(), seed);
        let mut b = TraceGen::new(TraceProfile::default(), seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_task(), b.next_task());
        }
        let mut c = TraceGen::new(TraceProfile::default(), seed.wrapping_add(1));
        let diverges = (0..50).any(|_| a.next_task() != c.next_task());
        prop_assert!(diverges);
    }
}
