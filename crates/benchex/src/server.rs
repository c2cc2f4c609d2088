//! The BenchEx trading server.
//!
//! A strictly FCFS request loop, as the paper requires ("each transaction
//! may change the outcome of the next one"):
//!
//! ```text
//! poll CQ ──(request)──▶ charge pricing CPU ──▶ post RDMA response ──▶
//!   ▲                                                        │
//!   └──────────────(send completion)──────────────────────────┘
//! ```
//!
//! The server is a pure state machine: the platform feeds it events
//! (request arrival, compute done, send completion) and executes the
//! [`ServerAction`]s it returns (start a VCPU job, post a work request).
//! This keeps BenchEx independent of how the fabric and hypervisor are
//! wired and makes every transition unit-testable. Pricing is simulated: a
//! request costs `per_request_overhead + cpu_per_work_unit × work_estimate()`
//! of VCPU time and runs no [`resex_finance`] kernel.

use crate::latency::{LatencyRecord, LatencyWindow};
use crate::request::TransactionRequest;
use resex_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Server tuning: the response size and the CPU-time model of pricing.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Response buffer size in bytes — *the* experimental knob. A "64KB VM"
    /// is a VM whose server uses 64 KiB responses.
    pub buffer_size: u32,
    /// Simulated CPU time per work unit of the pricing task.
    pub cpu_per_work_unit: SimDuration,
    /// Fixed CPU overhead per request (syscall-free verbs path, queue
    /// bookkeeping).
    pub per_request_overhead: SimDuration,
    /// Cost of one successful CQ poll (added to PTime even when a request
    /// is already queued).
    pub poll_overhead: SimDuration,
    /// Capacity of the latency window the reporting agent reads.
    pub latency_window: usize,
    /// Scale each response to its transaction's batch size instead of
    /// always padding to `buffer_size` (`len = n_options ×`
    /// [`RESPONSE_BYTES_PER_OPTION`], capped at `buffer_size`). Off for
    /// every honest VM — the paper's fixed-cost workload pads every
    /// response — and switched on only for telemetry-poisoning antagonists,
    /// whose guest deliberately mixes huge and minimal responses to bias
    /// ring-scan monitoring.
    #[serde(default)]
    pub variable_responses: bool,
}

/// Response bytes per batched option when
/// [`ServerConfig::variable_responses`] is on.
pub const RESPONSE_BYTES_PER_OPTION: u32 = 2048;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            buffer_size: 64 * 1024,
            // Calibrated so a default Quote×8 task ≈ 100 µs of CPU, matching
            // the paper's ~209 µs total with 64 KiB responses.
            cpu_per_work_unit: SimDuration::from_micros(12),
            per_request_overhead: SimDuration::from_micros(4),
            poll_overhead: SimDuration::from_micros(2),
            latency_window: 4096,
            variable_responses: false,
        }
    }
}

/// What the platform must do next on the server's behalf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerAction {
    /// Run a compute job of the given CPU time on the server's VCPU.
    StartCompute {
        /// CPU time the pricing work needs.
        cpu_time: SimDuration,
    },
    /// Post the RDMA response of `len` bytes to the request's client.
    PostResponse {
        /// Response length (the configured buffer size).
        len: u32,
        /// Which client to respond to.
        client_id: u32,
        /// Echoed request id.
        request_id: u64,
    },
    /// Nothing to do; the server is polling for the next request.
    Idle,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Spinning on the CQ.
    Polling,
    /// Pricing a transaction.
    Computing,
    /// Waiting for the response's send completion.
    Sending,
}

struct InService {
    req: TransactionRequest,
    ptime: SimDuration,
    compute_started: SimTime,
    ctime: SimDuration,
    send_posted: SimTime,
}

/// The FCFS trading server; it charges pricing CPU time but never prices.
pub struct Server {
    cfg: ServerConfig,
    state: State,
    queue: VecDeque<(TransactionRequest, SimTime)>,
    ready_since: SimTime,
    in_service: Option<InService>,
    /// Recent latency records (read by the reporting agent).
    pub window: LatencyWindow,
    served: u64,
}

impl Server {
    /// Creates an idle server.
    pub fn new(cfg: ServerConfig) -> Self {
        Server {
            window: LatencyWindow::new(cfg.latency_window),
            cfg,
            state: State::Polling,
            queue: VecDeque::new(),
            ready_since: SimTime::ZERO,
            in_service: None,
            served: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Requests served to completion.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests queued but not yet in service.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// A request arrived (its receive completion was polled).
    pub fn on_request(&mut self, req: TransactionRequest, now: SimTime) -> ServerAction {
        self.queue.push_back((req, now));
        if self.state == State::Polling {
            self.dequeue_next(now)
        } else {
            ServerAction::Idle
        }
    }

    /// The compute job finished.
    ///
    /// # Panics
    /// If the server was not computing (platform wiring bug).
    pub fn on_compute_done(&mut self, now: SimTime) -> ServerAction {
        assert_eq!(
            self.state,
            State::Computing,
            "compute-done while {:?}",
            self.state
        );
        let svc = self.in_service.as_mut().expect("in service");
        svc.ctime = now.duration_since(svc.compute_started);
        svc.send_posted = now;
        self.state = State::Sending;
        let len = if self.cfg.variable_responses {
            (svc.req.task.n_options)
                .saturating_mul(RESPONSE_BYTES_PER_OPTION)
                .min(self.cfg.buffer_size)
        } else {
            self.cfg.buffer_size
        };
        ServerAction::PostResponse {
            len,
            client_id: svc.req.client_id,
            request_id: svc.req.id,
        }
    }

    /// The response's send completion arrived. Returns the completed
    /// request's latency record (the platform feeds it to run metrics; the
    /// same record lands in [`Server::window`] for the agent) and what the
    /// server does next.
    ///
    /// # Panics
    /// If the server was not sending (platform wiring bug).
    pub fn on_send_complete(&mut self, now: SimTime) -> (LatencyRecord, ServerAction) {
        assert_eq!(
            self.state,
            State::Sending,
            "send-complete while {:?}",
            self.state
        );
        let svc = self.in_service.take().expect("in service");
        let wtime = now.duration_since(svc.send_posted);
        let record = LatencyRecord {
            at: now,
            request_id: svc.req.id,
            ptime: svc.ptime,
            ctime: svc.ctime,
            wtime,
        };
        self.window.push(record);
        self.served += 1;
        self.state = State::Polling;
        self.ready_since = now;
        (record, self.dequeue_next(now))
    }

    /// The VM died: every queued and in-service request vanishes with the
    /// guest's memory. The server restarts in `Polling` as if freshly
    /// booted (the platform gates any stray compute/send completions for
    /// the dead incarnation, so the FCFS state machine never sees them).
    /// Served counts and the latency window survive —
    /// they model dom0-side accounting, not guest state.
    pub fn crash(&mut self, now: SimTime) {
        self.queue.clear();
        self.in_service = None;
        self.state = State::Polling;
        self.ready_since = now;
    }

    /// True while a response send is posted and awaiting its completion.
    /// The platform uses this to discard stray completions for sends that
    /// were posted before a crash wiped the guest.
    pub fn awaiting_send(&self) -> bool {
        self.state == State::Sending
    }

    /// Pops the next queued request into service, if any.
    fn dequeue_next(&mut self, now: SimTime) -> ServerAction {
        let (req, _arrival) = match self.queue.pop_front() {
            Some(x) => x,
            None => return ServerAction::Idle,
        };
        // PTime: how long the server spun on the CQ before this request was
        // returned by a poll, plus the cost of the successful poll itself.
        let ptime = now.duration_since(self.ready_since) + self.cfg.poll_overhead;
        let cpu_time =
            self.cfg.per_request_overhead + self.cfg.cpu_per_work_unit * req.task.work_estimate();
        self.in_service = Some(InService {
            req,
            ptime,
            compute_started: now,
            ctime: SimDuration::ZERO,
            send_posted: now,
        });
        self.state = State::Computing;
        ServerAction::StartCompute { cpu_time }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resex_finance::{PricingTask, TaskKind};

    fn req(id: u64) -> TransactionRequest {
        TransactionRequest {
            id,
            client_id: 3,
            sent_at: SimTime::ZERO,
            task: PricingTask {
                kind: TaskKind::Quote,
                n_options: 8,
                seed: id,
            },
        }
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn request_triggers_compute_with_scaled_cpu() {
        let mut s = Server::new(ServerConfig::default());
        let a = s.on_request(req(1), us(100));
        match a {
            ServerAction::StartCompute { cpu_time } => {
                // 8 quote units × 12 µs + 4 µs overhead = 100 µs.
                assert_eq!(cpu_time, SimDuration::from_micros(100));
            }
            other => panic!("expected compute, got {other:?}"),
        }
    }

    #[test]
    fn full_request_lifecycle_records_decomposition() {
        let mut s = Server::new(ServerConfig::default());
        // Server idle since t=0; request arrives at t=40µs.
        assert!(matches!(
            s.on_request(req(1), us(40)),
            ServerAction::StartCompute { .. }
        ));
        // Compute finishes at t=140µs.
        let a = s.on_compute_done(us(140));
        assert_eq!(
            a,
            ServerAction::PostResponse {
                len: 64 * 1024,
                client_id: 3,
                request_id: 1
            }
        );
        // Send completion at t=204µs.
        assert_eq!(s.on_send_complete(us(204)).1, ServerAction::Idle);
        assert_eq!(s.served(), 1);
        let rec = s.window.since(SimTime::ZERO).next().unwrap();
        assert_eq!(rec.ptime, SimDuration::from_micros(42), "40 idle + 2 poll");
        assert_eq!(rec.ctime, SimDuration::from_micros(100));
        assert_eq!(rec.wtime, SimDuration::from_micros(64));
        assert_eq!(rec.total(), SimDuration::from_micros(206));
    }

    #[test]
    fn fcfs_order_is_preserved() {
        let mut s = Server::new(ServerConfig::default());
        s.on_request(req(1), us(0));
        // Two more arrive while computing.
        assert_eq!(s.on_request(req(2), us(1)), ServerAction::Idle);
        assert_eq!(s.on_request(req(3), us(2)), ServerAction::Idle);
        assert_eq!(s.backlog(), 2);
        s.on_compute_done(us(100));
        // Completing request 1 immediately dequeues request 2.
        let a = s.on_send_complete(us(160)).1;
        assert!(matches!(a, ServerAction::StartCompute { .. }));
        s.on_compute_done(us(260));
        s.on_send_complete(us(320));
        let ids: Vec<u64> = s
            .window
            .since(SimTime::ZERO)
            .map(|r| r.request_id)
            .collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(s.backlog(), 0, "request 3 is now in service");
    }

    #[test]
    fn queued_request_has_minimal_ptime() {
        let mut s = Server::new(ServerConfig::default());
        s.on_request(req(1), us(0));
        s.on_request(req(2), us(1));
        s.on_compute_done(us(100));
        s.on_send_complete(us(160));
        s.on_compute_done(us(260));
        s.on_send_complete(us(320));
        let recs: Vec<_> = s.window.since(SimTime::ZERO).collect();
        // Request 2 was already queued when the server became ready.
        assert_eq!(
            recs[1].ptime,
            SimDuration::from_micros(2),
            "just the poll cost"
        );
    }

    #[test]
    fn variable_responses_scale_with_the_batch() {
        let cfg = ServerConfig {
            variable_responses: true,
            ..ServerConfig::default()
        };
        let mut s = Server::new(cfg);
        // Batch-1 task: a minimal response, not the padded buffer.
        let tiny = TransactionRequest {
            task: PricingTask {
                kind: TaskKind::Quote,
                n_options: 1,
                seed: 0,
            },
            ..req(1)
        };
        s.on_request(tiny, us(0));
        match s.on_compute_done(us(20)) {
            ServerAction::PostResponse { len, .. } => {
                assert_eq!(len, RESPONSE_BYTES_PER_OPTION);
            }
            other => panic!("expected response, got {other:?}"),
        }
        s.on_send_complete(us(30));
        // Huge batch: capped at the configured buffer size.
        let big = TransactionRequest {
            task: PricingTask {
                kind: TaskKind::Quote,
                n_options: 10_000,
                seed: 0,
            },
            ..req(2)
        };
        s.on_request(big, us(40));
        match s.on_compute_done(us(50)) {
            ServerAction::PostResponse { len, .. } => {
                assert_eq!(len, 64 * 1024, "capped at buffer_size");
            }
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn heavier_tasks_compute_longer() {
        let mut s = Server::new(ServerConfig::default());
        let heavy = TransactionRequest {
            task: PricingTask {
                kind: TaskKind::Risk,
                n_options: 8,
                seed: 0,
            },
            ..req(1)
        };
        match s.on_request(heavy, us(0)) {
            ServerAction::StartCompute { cpu_time } => {
                // Risk = 3 units/option: 24 × 12 + 4 = 292 µs.
                assert_eq!(cpu_time, SimDuration::from_micros(292));
            }
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic]
    fn compute_done_while_polling_is_a_bug() {
        let mut s = Server::new(ServerConfig::default());
        s.on_compute_done(us(1));
    }

    #[test]
    fn crash_drops_all_in_flight_work_and_restarts_polling() {
        let mut s = Server::new(ServerConfig::default());
        s.on_request(req(1), us(0));
        s.on_request(req(2), us(1));
        assert_eq!(s.backlog(), 1);
        s.crash(us(50));
        assert_eq!(s.backlog(), 0, "queued requests die with the guest");
        // A fresh request after the restart runs the normal lifecycle.
        assert!(matches!(
            s.on_request(req(3), us(60)),
            ServerAction::StartCompute { .. }
        ));
        s.on_compute_done(us(160));
        s.on_send_complete(us(220));
        assert_eq!(s.served(), 1, "only the post-restart request completed");
        let rec = s.window.since(SimTime::ZERO).next().unwrap();
        assert_eq!(
            rec.ptime,
            SimDuration::from_micros(12),
            "ptime counts from the restart instant (50→60) plus the poll"
        );
    }
}
