//! BenchEx clients.
//!
//! Two workload shapes from the paper's experiments:
//!
//! * **Closed loop** — send, wait for the response, immediately (or after a
//!   think time) send the next. Saturating; this is what both the reporting
//!   and the standard interfering VMs run.
//! * **Open loop** — send at a fixed rate regardless of responses. Used for
//!   the "10 requests per epoch" slow interferer in the no-interference
//!   experiment (Figure 8).
//!
//! Like the server, a client is a pure state machine returning
//! [`ClientAction`]s that the platform executes.

use crate::request::TransactionRequest;
use crate::trace::TraceGen;
use resex_simcore::rng::SimRng;
use resex_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Workload shape.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ClientMode {
    /// Wait for each response; then wait `think` before the next request.
    ClosedLoop {
        /// Pause between response and next request.
        think: SimDuration,
    },
    /// Send every `interval` regardless of outstanding requests.
    OpenLoop {
        /// Inter-request interval.
        interval: SimDuration,
    },
}

/// What the platform must do for the client.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientAction {
    /// Post this request to the server now.
    Send(TransactionRequest),
    /// Call [`Client::on_timer`] at the given time.
    ArmTimer(SimTime),
    /// Nothing.
    Idle,
}

/// How long the platform waits for a response before handing the request
/// back to [`Client::on_request_timeout`]. Far above any healthy RTT
/// (hundreds of microseconds) but short enough to re-issue several times
/// within one link flap.
pub const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(10);

/// Re-issue budget per request before it is declared permanently lost.
/// With [`REQUEST_TIMEOUT`] this gives a request 160 ms of end-to-end
/// patience — enough to ride out any outage the recovery layer is
/// specified to survive.
pub const REQUEST_RETRY_LIMIT: u32 = 16;

/// Tunable client recovery knobs, hoisted from the old hardcoded
/// constants so chaos schedules (and scenario files) can tighten or relax
/// a client's patience. Defaults are exactly the historical constants, so
/// an absent or default tuning block changes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ClientTuning {
    /// How long the platform waits for a response before the request goes
    /// back to [`Client::on_request_timeout`].
    pub request_timeout: SimDuration,
    /// Re-issue budget per request before it is declared permanently lost.
    pub request_retry_limit: u32,
}

impl Default for ClientTuning {
    fn default() -> Self {
        ClientTuning {
            request_timeout: REQUEST_TIMEOUT,
            request_retry_limit: REQUEST_RETRY_LIMIT,
        }
    }
}

// Hand-written so omitted fields fall back to the historical constants
// rather than zero (the vendored serde derive only supports bare
// `#[serde(default)]`).
impl Deserialize for ClientTuning {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("ClientTuning: expected object"))?;
        let mut tuning = ClientTuning::default();
        if let Some(x) = m.get("request_timeout") {
            tuning.request_timeout = SimDuration::from_value(x)?;
        }
        if let Some(x) = m.get("request_retry_limit") {
            tuning.request_retry_limit = u32::from_value(x)?;
        }
        Ok(tuning)
    }
}

/// Outcome of a request timeout, decided by [`Client::on_request_timeout`].
#[derive(Clone, Debug, PartialEq)]
pub enum RetryDecision {
    /// Re-issue this request. Same id and task — the server's transactions
    /// are idempotent, and a late response to an earlier attempt is simply
    /// accepted (the platform drops duplicates).
    Retry(TransactionRequest),
    /// Retry budget exhausted: the request is permanently lost; execute
    /// the follow-up action so the workload loop keeps running.
    GiveUp(ClientAction),
}

/// Relative half-width of the think-time jitter window. Real clients
/// never reissue with cycle-exact timing; a ±5 % wobble decorrelates the
/// request phase from collocated VMs' burst cycles without measurably
/// widening the solo-latency distribution.
const THINK_JITTER: f64 = 0.05;

/// One benchmark client.
pub struct Client {
    /// This client's id (echoed by the server).
    pub id: u32,
    mode: ClientMode,
    trace: TraceGen,
    rng: SimRng,
    next_id: u64,
    sent: u64,
    received: u64,
    outstanding: u64,
    retries: u64,
    lost: u64,
    retry_limit: u32,
}

impl Client {
    /// Creates a client; call [`Client::start`] to kick it off. `seed`
    /// drives the client's think-time jitter stream.
    pub fn new(id: u32, mode: ClientMode, trace: TraceGen, seed: u64) -> Self {
        Client {
            id,
            mode,
            trace,
            rng: SimRng::seed_from_u64(seed),
            next_id: 0,
            sent: 0,
            received: 0,
            outstanding: 0,
            retries: 0,
            lost: 0,
            retry_limit: REQUEST_RETRY_LIMIT,
        }
    }

    /// Overrides the per-request re-issue budget (defaults to
    /// [`REQUEST_RETRY_LIMIT`]).
    pub fn set_retry_limit(&mut self, limit: u32) {
        self.retry_limit = limit;
    }

    /// Requests sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Responses received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Requests in flight.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Requests re-issued after a timeout.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Requests permanently lost (retry budget exhausted). The recovery
    /// layer's target is zero.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    fn make_request(&mut self, now: SimTime) -> TransactionRequest {
        let id = self.next_id;
        self.next_id += 1;
        self.sent += 1;
        self.outstanding += 1;
        TransactionRequest {
            id,
            client_id: self.id,
            sent_at: now,
            task: self.trace.next_task(),
        }
    }

    /// Begins the workload at `now`.
    pub fn start(&mut self, now: SimTime) -> ClientAction {
        match self.mode {
            ClientMode::ClosedLoop { .. } => ClientAction::Send(self.make_request(now)),
            ClientMode::OpenLoop { .. } => {
                // First send fires immediately via the timer path so all
                // sends share one code path.
                ClientAction::ArmTimer(now)
            }
        }
    }

    /// A response for `request_id` arrived (matched by the platform).
    pub fn on_response(&mut self, now: SimTime) -> ClientAction {
        self.received += 1;
        self.outstanding = self.outstanding.saturating_sub(1);
        match self.mode {
            ClientMode::ClosedLoop { think } => {
                if think.is_zero() {
                    ClientAction::Send(self.make_request(now))
                } else {
                    // Jitter the think time by ±THINK_JITTER.
                    let f = 1.0 + THINK_JITTER * (2.0 * self.rng.next_f64() - 1.0);
                    ClientAction::ArmTimer(now + think.mul_f64(f))
                }
            }
            ClientMode::OpenLoop { .. } => ClientAction::Idle,
        }
    }

    /// No response for `req` within [`REQUEST_TIMEOUT`] (this was attempt
    /// number `attempts`): decide between an idempotent re-issue and
    /// giving the request up for lost. The re-issued request keeps its
    /// original `sent_at`, so the recorded round-trip honestly includes
    /// the outage the retry rode out. Draws no RNG — retries cannot
    /// perturb the think-time jitter stream.
    pub fn on_request_timeout(
        &mut self,
        req: TransactionRequest,
        attempts: u32,
        now: SimTime,
    ) -> RetryDecision {
        if attempts < self.retry_limit {
            self.retries += 1;
            RetryDecision::Retry(req)
        } else {
            self.lost += 1;
            self.outstanding = self.outstanding.saturating_sub(1);
            // Keep a closed loop closed: abandoning the request must not
            // also abandon the workload.
            let follow = match self.mode {
                ClientMode::ClosedLoop { .. } => ClientAction::Send(self.make_request(now)),
                ClientMode::OpenLoop { .. } => ClientAction::Idle,
            };
            RetryDecision::GiveUp(follow)
        }
    }

    /// A previously armed timer fired. Pushes the resulting actions into a
    /// caller-owned scratch buffer, so the hot path allocates nothing.
    pub fn on_timer_into(&mut self, now: SimTime, out: &mut Vec<ClientAction>) {
        match self.mode {
            ClientMode::ClosedLoop { .. } => {
                // Think-time expiry: send the next request.
                out.push(ClientAction::Send(self.make_request(now)));
            }
            ClientMode::OpenLoop { interval } => {
                out.push(ClientAction::Send(self.make_request(now)));
                out.push(ClientAction::ArmTimer(now + interval));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceProfile;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn trace() -> TraceGen {
        TraceGen::new(TraceProfile::default(), 42)
    }

    fn on_timer(c: &mut Client, now: SimTime) -> Vec<ClientAction> {
        let mut out = Vec::new();
        c.on_timer_into(now, &mut out);
        out
    }

    #[test]
    fn closed_loop_sends_immediately_on_response() {
        let mut c = Client::new(
            1,
            ClientMode::ClosedLoop {
                think: SimDuration::ZERO,
            },
            trace(),
            7,
        );
        let a = c.start(us(0));
        let first = match a {
            ClientAction::Send(r) => r,
            other => panic!("expected send, got {other:?}"),
        };
        assert_eq!(first.id, 0);
        assert_eq!(c.outstanding(), 1);
        let a = c.on_response(us(209));
        match a {
            ClientAction::Send(r) => assert_eq!(r.id, 1),
            other => panic!("expected send, got {other:?}"),
        }
        assert_eq!(c.received(), 1);
    }

    #[test]
    fn closed_loop_with_think_time_arms_timer() {
        let think = SimDuration::from_micros(50);
        let mut c = Client::new(1, ClientMode::ClosedLoop { think }, trace(), 7);
        assert!(matches!(c.start(us(0)), ClientAction::Send(_)));
        match c.on_response(us(200)) {
            // Think time is jittered ±5%: 200 + 50·[0.95, 1.05].
            ClientAction::ArmTimer(t) => {
                assert!(t >= us(247) && t <= us(253), "jittered think: {t}");
            }
            other => panic!("expected timer, got {other:?}"),
        }
        let acts = on_timer(&mut c, us(250));
        assert!(matches!(acts[0], ClientAction::Send(_)));
    }

    #[test]
    fn open_loop_sends_on_schedule() {
        let interval = SimDuration::from_millis(100); // 10 req/s
        let mut c = Client::new(2, ClientMode::OpenLoop { interval }, trace(), 7);
        match c.start(us(0)) {
            ClientAction::ArmTimer(t) => assert_eq!(t, us(0)),
            other => panic!("expected timer, got {other:?}"),
        }
        let acts = on_timer(&mut c, us(0));
        assert_eq!(acts.len(), 2);
        assert!(matches!(acts[0], ClientAction::Send(_)));
        match &acts[1] {
            ClientAction::ArmTimer(t) => assert_eq!(*t, SimTime::from_millis(100)),
            other => panic!("expected re-arm, got {other:?}"),
        }
        // Responses do not trigger sends in open loop.
        assert_eq!(c.on_response(us(500)), ClientAction::Idle);
    }

    #[test]
    fn open_loop_tolerates_multiple_outstanding() {
        let mut c = Client::new(
            3,
            ClientMode::OpenLoop {
                interval: SimDuration::from_micros(10),
            },
            trace(),
            7,
        );
        c.start(us(0));
        on_timer(&mut c, us(0));
        on_timer(&mut c, us(10));
        on_timer(&mut c, us(20));
        assert_eq!(c.outstanding(), 3);
        assert_eq!(c.sent(), 3);
    }

    #[test]
    fn tuning_defaults_pin_the_historical_constants() {
        let t = ClientTuning::default();
        assert_eq!(t.request_timeout, SimDuration::from_millis(10));
        assert_eq!(t.request_retry_limit, 16);
        assert_eq!(t.request_timeout, REQUEST_TIMEOUT);
        assert_eq!(t.request_retry_limit, REQUEST_RETRY_LIMIT);
        // An empty object deserializes to the same defaults.
        let parsed: ClientTuning = serde_json::from_str("{}").unwrap();
        assert_eq!(parsed, t);
        let parsed: ClientTuning = serde_json::from_str(r#"{"request_retry_limit": 3}"#).unwrap();
        assert_eq!(parsed.request_retry_limit, 3);
        assert_eq!(parsed.request_timeout, REQUEST_TIMEOUT);
    }

    #[test]
    fn retry_limit_override_changes_the_give_up_point() {
        let mut c = Client::new(
            1,
            ClientMode::ClosedLoop {
                think: SimDuration::ZERO,
            },
            trace(),
            7,
        );
        c.set_retry_limit(2);
        let req = match c.start(us(0)) {
            ClientAction::Send(r) => r,
            _ => panic!(),
        };
        assert!(matches!(
            c.on_request_timeout(req, 1, us(100)),
            RetryDecision::Retry(_)
        ));
        assert!(matches!(
            c.on_request_timeout(req, 2, us(200)),
            RetryDecision::GiveUp(_)
        ));
        assert_eq!(c.lost(), 1);
    }

    #[test]
    fn request_ids_are_sequential_and_stamped() {
        let mut c = Client::new(
            1,
            ClientMode::ClosedLoop {
                think: SimDuration::ZERO,
            },
            trace(),
            7,
        );
        let r0 = match c.start(us(5)) {
            ClientAction::Send(r) => r,
            _ => panic!(),
        };
        assert_eq!(r0.sent_at, us(5));
        assert_eq!(r0.client_id, 1);
        let r1 = match c.on_response(us(100)) {
            ClientAction::Send(r) => r,
            _ => panic!(),
        };
        assert_eq!((r0.id, r1.id), (0, 1));
    }
}
