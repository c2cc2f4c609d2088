//! The composed testbed: fabric + hypervisor + BenchEx + IBMon + ResEx in
//! one deterministic event loop.
//!
//! Layout (mirroring the paper's two Dell PowerEdge servers):
//!
//! ```text
//!  machine S (node 0)                         machine C (node 1)
//!  ┌──────────────────────────────┐           ┌──────────────────┐
//!  │ dom0: ResEx + IBMon + XenStat│   switch  │ client 0 ─ QP ───┼─▶ VM 0
//!  │ VM 0 "64KB": BenchEx server ─┼───────────┼─ client 1 ─ QP ──┼─▶ VM 1
//!  │ VM 1 "2MB" : BenchEx server ─┼───────────┼─ ...             │
//!  └──────────────────────────────┘           └──────────────────┘
//! ```
//!
//! Requests travel client → server as IB *sends* (real bytes, decoded by
//! the server); responses travel server → client as *RDMA-write-with-
//! immediate* into the client's registered response buffer, padded to the
//! VM's configured buffer size — so all response traffic of all VMs shares
//! machine S's egress link, which is where interference lives.

use crate::metrics::{record_latency, AdversaryTotals, CrashTotals, RunMetrics, VmMetrics};
use crate::scenario::{PolicyKind, ScenarioConfig};
use resex_adversary::{Antagonist, AttackTraffic};
use resex_benchex::{
    AgentConfig, Client, ClientAction, ClientMode, LatencyReport, ReportingAgent, RetryDecision,
    Server, ServerAction, TraceGen, TraceProfile, TransactionRequest, TransactionResponse,
    REQUEST_WIRE_BYTES,
};
use resex_core::{
    DecisionJournal, FreeMarket, IoShares, LatencyFeedback, ManagerAction, PricingPolicy,
    ResExManager, VmId, VmSnapshot,
};
use resex_fabric::qp::{RecvRequest, WorkRequest};
use resex_fabric::{
    Access, CqNum, Fabric, FabricEvent, FlowParams, MrHandle, NodeId, Opcode, QpNum, TokenBucket,
    WcStatus,
};
use resex_faults::CrashFaults;
use resex_hypervisor::{DomainId, HvError, HvEvent, Hypervisor, VcpuId, XenStat};
use resex_ibmon::{IbMon, IbMonConfig};
use resex_obs::{
    export_chrome_trace, profiler, subsystem, to_jsonl, IntervalSnapshot, MetricSample,
    MetricsRegistry, Profile, Profiler, Scope, Tracer,
};
use resex_simcore::event::{EventKey, EventQueue};
use resex_simcore::ids::{IdMap, IdRing};
use resex_simcore::rng::SimRng;
use resex_simcore::time::{SimDuration, SimTime};
use resex_simmem::{Gpa, MemoryHandle};

/// Receive slots pre-posted per queue pair.
const RECV_SLOTS: u32 = 64;
/// Spacing of request landing slots in server memory.
const SLOT_BYTES: u64 = 4096;
/// Send-CQ ring capacity for telemetry-poisoning attacker VMs. Honest
/// VMs get deep (1024-slot) rings that never wrap between IBMon scans,
/// so their ring-scan estimates stay exact; the poison attack only
/// works when the attacker's own large CQEs can be chased off a shallow
/// ring by minimal repaint completions before the next scan.
const POISON_CQ_SLOTS: u32 = 16;
/// Batch multiplier for a poison attacker's large transfers (the
/// repaint transfers are batch 1, the smallest CQE the scanner can see).
const POISON_BIG_FACTOR: u32 = 64;
/// Stream-domain constant for the manager's charging-interval jitter
/// RNG, forked from the scenario seed so jitter draws can never perturb
/// any other seeded stream.
const DOMAIN_JITTER: u64 = 0x001F_7E50;

/// Builds the scenario's pricing policy, or `None` for unmanaged runs.
/// Factored out of [`World::build`] so manager-crash recovery can rebuild
/// the policy from scratch — a restarted manager's policy starts cold
/// (losing its internal state is the damage a crash models).
fn make_policy(cfg: &ScenarioConfig) -> Option<Box<dyn PricingPolicy>> {
    match &cfg.policy {
        PolicyKind::None => None,
        PolicyKind::FreeMarket => Some(Box::new(FreeMarket::new())),
        PolicyKind::IoShares => Some(Box::new(IoShares::new(
            cfg.vms
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.sla.map(|sla| (VmId::new(i as u32), sla))),
        ))),
    }
}

/// Crash-domain orchestration state. Exists only when the fault schedule
/// can fire a crash (`FaultSchedule::crash_enabled`), so crash-free runs
/// hold no crash state and stay byte-identical to pre-crash builds.
struct CrashPlane {
    /// Seeded crash draws (manager / host / VM streams, fixed fork order).
    inj: CrashFaults,
    /// While `Some`, dom0's pricing stack is down and charging intervals
    /// take the skip path; the manager restarts at this deadline.
    mgr_down_until: Option<SimTime>,
    /// The decision journal taken from the crashed manager — the only
    /// state that survives the crash.
    saved_journal: Option<DecisionJournal>,
    /// While `Some`, machine S is down (all VMs crashed together).
    host_down_until: Option<SimTime>,
    /// Per-VM restart deadline; `Some` means the VM process is gone.
    vm_down_until: Vec<Option<SimTime>>,
    /// VMs deregistered at crash time that still owe a re-admission
    /// through the normal lifecycle.
    readmit_pending: Vec<bool>,
    /// Per-VM: the server-side receive ring was flushed by a host crash
    /// (`set_qp_error` drains it; the reconnect replays nothing), so the
    /// restart must re-post it. A plain VM crash leaves the ring armed.
    ring_lost: Vec<bool>,
    /// What happened, for `RunMetrics`.
    totals: CrashTotals,
}

/// What fires. `FabricSync` and `HvSync` are the held wake-ups (never in
/// the calendar) and carry the instant they were armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    FabricSync { armed_at: SimTime },
    HvSync { armed_at: SimTime },
    ClientTimer { client: usize },
    RequestTimeout { client: usize, req_id: u64 },
    ResExInterval,
    End,
}

/// A held sync wake-up: `(time, seq, armed_at)`.
type Held = (SimTime, u64, SimTime);

/// Where the next event comes from.
#[derive(Clone, Copy)]
enum Due {
    Calendar,
    Fabric,
    Hv,
}

/// A request in flight, with everything needed to re-issue it.
struct Pending {
    req: TransactionRequest,
    /// How many times this request has been posted (1 = first attempt).
    attempts: u32,
    /// Calendar entry of the response deadline; `None` in clean runs,
    /// which never time out (and whose calendars must stay byte-identical
    /// to fault-unaware builds).
    timeout: Option<EventKey>,
}

struct VmRuntime {
    dom: DomainId,
    vcpu: VcpuId,
    server: Server,
    agent: ReportingAgent,
    last_report: Option<LatencyReport>,
    qp: QpNum,
    send_cq: CqNum,
    recv_cq: CqNum,
    resp_mr: MrHandle,
    req_base: Gpa,
    req_lkey: u32,
    mem: MemoryHandle,
    /// Client-side response landing target (rkey, gpa).
    client_resp: (u32, Gpa),
}

struct ClientRuntime {
    client: Client,
    qp: QpNum,
    recv_cq: CqNum,
    mem: MemoryHandle,
    req_mr: MrHandle,
    resp_mr: MrHandle,
    /// Requests in flight, keyed by request id (the low 32 bits the
    /// response immediate echoes).
    outstanding: IdRing<Pending>,
}

/// The running testbed.
pub struct World {
    cfg: ScenarioConfig,
    fabric: Fabric,
    hv: Hypervisor,
    queue: EventQueue<Ev>,
    vms: Vec<VmRuntime>,
    clients: Vec<ClientRuntime>,
    manager: Option<ResExManager>,
    ibmon: IbMon,
    xenstat: XenStat,
    metrics: Vec<VmMetrics>,
    dom0: DomainId,
    node_srv: NodeId,
    node_cli: NodeId,
    /// The fabric's and the hypervisor's next wake-ups, held outside the
    /// calendar as `(time, seq, armed_at)`. `seq` is drawn from the
    /// calendar's counter when the wake-up is armed, so it fires exactly
    /// where a calendar entry scheduled then would.
    fabric_sync: Option<Held>,
    hv_sync: Option<Held>,
    events: u64,
    /// True once the `End` event has fired; stepping becomes a no-op and
    /// [`World::next_event_time`] reports idle.
    done: bool,
    srv_qp_to_vm: IdMap<QpNum, usize>,
    cli_qp_to_client: IdMap<QpNum, usize>,
    tracer: Tracer,
    registry: MetricsRegistry,
    snapshots: Vec<IntervalSnapshot>,
    interval_count: u64,
    /// True when the scenario armed the fault plane; gates the strict
    /// invariants (no RNR drops, no error CQEs) that hold in clean runs.
    faults_on: bool,
    /// Receive replenishes rejected while a QP was mid-reconnect, parked
    /// for re-posting when the connection manager brings it back. Losing
    /// the slot instead would shrink the receive ring for good and walk
    /// the QP into RNR livelock.
    deferred_recvs: Vec<(NodeId, QpNum, RecvRequest)>,
    /// Server response actions whose post was rejected mid-reconnect;
    /// re-applied on `QpReconnected` (the server stays in its
    /// awaiting-completion state either way).
    deferred_responses: Vec<(usize, ServerAction)>,
    /// Consecutive failed cap actuations per VM, for the watchdog's
    /// escalation to the forced (slow, reliable) actuation path.
    actuation_streak: Vec<u32>,
    /// The antagonist plane, when the scenario arms one. `None` means no
    /// attacker state exists at all — adversary-off runs stay
    /// byte-identical to builds that predate the plane.
    antagonist: Option<Antagonist>,
    /// Jitter RNG for randomized charging-interval sampling
    /// (`resex.interval_jitter_frac > 0`); `None` keeps the legacy fixed
    /// cadence and draws nothing.
    jitter_rng: Option<SimRng>,
    /// Crash-domain orchestration, armed only when the fault schedule can
    /// fire a manager/host/VM crash. `None` means no crash state exists
    /// at all.
    crash: Option<CrashPlane>,
    /// Previous interval's fabric ground-truth MTU counter per VM — the
    /// IBMon cross-check diffs it to get an attacker-uninfluenceable
    /// per-interval completion count.
    prev_true_mtus: Vec<u64>,
    /// Self-profiler for the event loop (wall-clock cost per event type).
    /// All its clock reads are host-monotonic, outside the DES clock, so
    /// enabling it never perturbs simulated behaviour.
    profiler: Profiler,
    /// Reusable scratch for fabric events drained each `FabricSync` — the
    /// hot loop must not allocate a fresh vector per sync.
    fab_events: Vec<(SimTime, FabricEvent)>,
    /// Reusable scratch for hypervisor events drained each `HvSync`.
    hv_events: Vec<(SimTime, HvEvent)>,
    /// Reusable scratch for client timer actions.
    client_actions: Vec<ClientAction>,
}

/// What an observed run produced alongside its [`RunMetrics`].
#[derive(Clone, Debug, Default)]
pub struct ObservedRun {
    /// Chrome trace-event JSON (present iff `obs.trace` was set).
    pub trace_json: Option<String>,
    /// Per-interval per-VM snapshots as JSON Lines (present iff
    /// `obs.metrics` was set).
    pub metrics_jsonl: Option<String>,
    /// Final registry snapshot: every counter/gauge/distribution/rate in
    /// deterministic key order (empty unless `obs.metrics` was set).
    pub summary: Vec<MetricSample>,
    /// Event-loop self-profile (present iff `obs.profile` was set).
    pub profile: Option<Profile>,
}

impl World {
    /// Builds the testbed described by `cfg`.
    ///
    /// # Panics
    /// On invalid configuration (validated eagerly) or on any setup-time
    /// verbs failure — setup errors are programming errors, not runtime
    /// conditions.
    pub fn build(mut cfg: ScenarioConfig) -> World {
        cfg.validate().expect("valid scenario");
        // A rack placement collapses to plain fabric latency for this
        // pair's two-node world: the routed path's accumulated per-hop
        // latency replaces the crossbar's switch+wire split.
        if !cfg.topology.is_crossbar() {
            cfg.fabric.switch_latency = cfg.topology.one_way_latency(&cfg.fabric);
            cfg.fabric.wire_latency = SimDuration::ZERO;
        }
        let tracer = if cfg.obs.trace {
            Tracer::memory()
        } else {
            Tracer::disabled()
        };
        let mut fabric = Fabric::new(cfg.fabric.clone()).expect("valid fabric config");
        fabric.set_tracer(tracer.clone());
        let node_srv = fabric.add_node();
        let node_cli = fabric.add_node();

        let mut hv = Hypervisor::new(cfg.sched);
        hv.set_tracer(tracer.clone());
        let faults_on = cfg.faults.enabled();
        if faults_on {
            // One schedule, three injectors: each consumer forks its own
            // RNG streams under a distinct domain constant, so draws stay
            // independent and deterministic.
            fabric.install_faults(cfg.faults.clone());
            hv.install_faults(cfg.faults.clone());
            // The self-healing layer rides along with the fault plane:
            // clean runs keep the legacy flush-and-panic invariants (and
            // their byte-identical calendars); faulted runs journal,
            // reconnect and replay instead of dropping work.
            fabric.enable_recovery();
        }
        let dom0 = hv.create_domain("dom0", 64 << 20, true);
        // dom0 gets its own PCPU (it runs ResEx/IBMon, not simulated work).
        hv.add_pcpu();

        let mut rng = SimRng::seed_from_u64(cfg.seed);
        // The antagonist plane is only *built* when armed — adversary-off
        // runs construct no attacker state and stay byte-identical to
        // builds that predate it. Its RNG tree forks from the spec's own
        // seed, never the scenario's.
        let antagonist = if cfg.adversary.enabled() {
            Some(Antagonist::new(cfg.adversary.clone(), cfg.resex.interval))
        } else {
            None
        };
        let mut vms = Vec::new();
        let mut clients = Vec::new();
        let mut metrics = Vec::new();

        for (i, spec) in cfg.vms.iter().enumerate() {
            // --- server VM on machine S ---
            let mem_size = (spec.buffer_size as u64 + (RECV_SLOTS as u64) * SLOT_BYTES)
                .max(8 << 20)
                + (16 << 20);
            let dom = hv.create_domain(spec.name.clone(), mem_size, false);
            let pcpu = hv.add_pcpu();
            let vcpu = hv
                .add_vcpu(dom, pcpu, SimTime::ZERO)
                .expect("fresh pcpu accepts a vcpu");
            if spec.initial_cap > 0 {
                hv.set_cap(dom, spec.initial_cap, SimTime::ZERO)
                    .expect("valid cap");
            }
            let mem = hv.domain_memory(dom).expect("domain exists");
            let pd = fabric.create_pd(node_srv).expect("pd");
            let uar = fabric.create_uar(node_srv, &mem).expect("uar");
            // A poisoning attacker configures its own guest with a
            // shallow send CQ: ring-scan evasion requires its large CQEs
            // to be overwritten between scans, which a deep ring prevents.
            let attack = antagonist.as_ref().and_then(|a| a.traffic(i as u32));
            let poisoning = matches!(attack, Some(AttackTraffic::Poison { .. }));
            let send_cq_slots = if poisoning { POISON_CQ_SLOTS } else { 1024 };
            let send_cq = fabric.create_cq(node_srv, &mem, send_cq_slots).expect("cq");
            let recv_cq = fabric.create_cq(node_srv, &mem, 1024).expect("cq");
            let qp = fabric
                .create_qp(node_srv, pd, send_cq, recv_cq, 512, 512, uar)
                .expect("qp");
            let resp_base = mem
                .alloc_bytes(spec.buffer_size.max(4096) as u64)
                .expect("mem");
            let resp_mr = fabric
                .register_mr(
                    node_srv,
                    pd,
                    &mem,
                    resp_base,
                    spec.buffer_size.max(4096),
                    Access::FULL,
                )
                .expect("mr");
            let req_base = mem
                .alloc_bytes(RECV_SLOTS as u64 * SLOT_BYTES)
                .expect("mem");
            let req_mr = fabric
                .register_mr(
                    node_srv,
                    pd,
                    &mem,
                    req_base,
                    (RECV_SLOTS as u64 * SLOT_BYTES) as u32,
                    Access::FULL,
                )
                .expect("mr");

            // --- matching client on machine C ---
            let cmem = MemoryHandle::new((spec.buffer_size as u64).max(4 << 20) + (8 << 20));
            let cpd = fabric.create_pd(node_cli).expect("pd");
            let cuar = fabric.create_uar(node_cli, &cmem).expect("uar");
            let c_send_cq = fabric.create_cq(node_cli, &cmem, 1024).expect("cq");
            let c_recv_cq = fabric.create_cq(node_cli, &cmem, 1024).expect("cq");
            let cqp = fabric
                .create_qp(node_cli, cpd, c_send_cq, c_recv_cq, 512, 512, cuar)
                .expect("qp");
            let c_req_base = cmem.alloc_bytes(4096).expect("mem");
            let c_req_mr = fabric
                .register_mr(node_cli, cpd, &cmem, c_req_base, 4096, Access::FULL)
                .expect("mr");
            let c_resp_base = cmem
                .alloc_bytes(spec.buffer_size.max(4096) as u64)
                .expect("mem");
            let c_resp_mr = fabric
                .register_mr(
                    node_cli,
                    cpd,
                    &cmem,
                    c_resp_base,
                    spec.buffer_size.max(4096),
                    Access::FULL,
                )
                .expect("mr");

            fabric
                .connect(node_srv, qp, node_cli, cqp)
                .expect("connect");

            // Install hardware QoS on the server VM's egress flow.
            if let Some(q) = spec.qos {
                fabric
                    .set_qp_flow_params(
                        node_srv,
                        qp,
                        FlowParams {
                            weight: q.weight.max(1),
                            priority: q.priority,
                            rate_limit: q.rate_limit.map(|bps| {
                                // A one-grant burst keeps shaping tight.
                                let burst = (cfg.fabric.grant_mtus * cfg.fabric.mtu_bytes) as u64;
                                TokenBucket::new(bps, burst.max(1))
                            }),
                        },
                    )
                    .expect("qos installs");
            }

            // Pre-post receives on both sides.
            for slot in 0..RECV_SLOTS {
                fabric
                    .post_recv(
                        node_srv,
                        qp,
                        RecvRequest {
                            wr_id: slot as u64,
                            lkey: req_mr.lkey,
                            gpa: req_base.add(slot as u64 * SLOT_BYTES),
                            len: SLOT_BYTES as u32,
                        },
                    )
                    .expect("post recv");
                fabric
                    .post_recv(
                        node_cli,
                        cqp,
                        RecvRequest {
                            wr_id: slot as u64,
                            lkey: c_resp_mr.lkey,
                            gpa: c_resp_base,
                            len: spec.buffer_size.max(4096),
                        },
                    )
                    .expect("post recv");
            }

            let mut server_cfg = cfg.server;
            server_cfg.buffer_size = spec.buffer_size;
            // The poison attacker also makes its own server return
            // batch-proportional responses, so its CQE sizes span the
            // range the biased ring-scan average needs.
            server_cfg.variable_responses = poisoning;
            // Entity registration so exporters group this VM's QPs and
            // domain under one trace "process".
            tracer.set_vm_label(i as u32, spec.name.clone());
            tracer.map_qp_to_vm(qp.raw(), i as u32);
            tracer.map_qp_to_vm(cqp.raw(), i as u32);
            tracer.map_domain_to_vm(dom.raw(), i as u32);

            vms.push(VmRuntime {
                dom,
                vcpu,
                server: Server::new(server_cfg),
                agent: ReportingAgent::new(AgentConfig::default()),
                last_report: None,
                qp,
                send_cq,
                recv_cq,
                resp_mr,
                req_base,
                req_lkey: req_mr.lkey,
                mem,
                client_resp: (c_resp_mr.rkey, c_resp_base),
            });

            // Every VM draws its two seeds from the scenario RNG in
            // declaration order whether or not it attacks, so arming the
            // plane on VM k perturbs no other VM's streams; an attacker's
            // replacement client then draws from the plane's own tree.
            let trace_seed = rng.next_u64();
            let client_seed = rng.next_u64();
            let mut client = Client::new(
                i as u32,
                spec.client_mode,
                TraceGen::new(spec.trace, trace_seed),
                client_seed,
            );
            if let (Some(ant), Some(traffic)) = (&antagonist, attack) {
                let seed = ant.client_seed(i as u32).expect("attackers have seeds");
                let (mode, profile) = attack_client(
                    spec.trace.base_batch,
                    traffic,
                    cfg.resex.interval,
                    ant.spec().duty,
                );
                client = Client::new(i as u32, mode, TraceGen::new(profile, seed), seed);
            }
            client.set_retry_limit(cfg.client_tuning.request_retry_limit);
            clients.push(ClientRuntime {
                client,
                qp: cqp,
                recv_cq: c_recv_cq,
                mem: cmem,
                req_mr: c_req_mr,
                resp_mr: c_resp_mr,
                outstanding: IdRing::new(),
            });
            let mut vm_metrics = VmMetrics::new(spec.name.clone());
            vm_metrics.keep_records = cfg.obs.keep_records;
            // SLO threshold: explicit `slo_us` wins; otherwise reporting
            // VMs (those with an SLA) default to 2× their SLA baseline.
            // Pure observation — the monitor never feeds back into
            // scheduling, so arming it cannot change a run.
            let slo_us = spec
                .slo_us
                .or_else(|| spec.sla.map(|s| 2.0 * s.base_mean_us));
            if let Some(us) = slo_us {
                vm_metrics.enable_slo((us * 1_000.0) as u64);
            }
            metrics.push(vm_metrics);
        }

        // --- ResEx + IBMon in dom0 ---
        let crash_on = cfg.faults.crash_enabled();
        let manager = make_policy(&cfg).map(|boxed| {
            let mut m = ResExManager::new(cfg.resex, boxed).expect("valid resex config");
            m.set_tracer(tracer.clone());
            if crash_on {
                // Write-ahead decision journal: armed before admission so
                // every Register record is captured — a crashed manager
                // rebuilds its books from nothing else.
                m.enable_journal();
            }
            for (i, spec) in cfg.vms.iter().enumerate() {
                m.register_vm(VmId::new(i as u32), spec.weight);
            }
            m
        });

        let mut ibmon = IbMon::new(IbMonConfig {
            mtu: cfg.fabric.mtu_bytes,
            ..IbMonConfig::default()
        });
        if faults_on {
            ibmon.install_faults(cfg.faults.clone());
        }
        for vm in &vms {
            let (ring, cap) = fabric.cq_ring_info(node_srv, vm.send_cq).expect("cq info");
            ibmon
                .watch_cq(&hv, dom0, vm.dom, ring, cap)
                .expect("dom0 may introspect");
        }

        // Randomized charging-interval sampling (anti-phase-lock
        // hardening): a dedicated RNG stream domain, armed only when the
        // knob is on — legacy runs draw nothing.
        let jitter_rng = if manager.is_some() && cfg.resex.interval_jitter_frac > 0.0 {
            Some(SimRng::seed_from_u64(cfg.seed ^ DOMAIN_JITTER))
        } else {
            None
        };
        let prev_true_mtus = vec![0u64; vms.len()];
        let actuation_streak = vec![0u32; vms.len()];
        let crash = if crash_on {
            Some(CrashPlane {
                inj: CrashFaults::new(cfg.faults.clone()),
                mgr_down_until: None,
                saved_journal: None,
                host_down_until: None,
                vm_down_until: vec![None; vms.len()],
                readmit_pending: vec![false; vms.len()],
                ring_lost: vec![false; vms.len()],
                totals: CrashTotals::default(),
            })
        } else {
            None
        };
        // Profiling is on when the scenario asks for it or when the
        // process-global switch (set by `repro profile`) is armed.
        let self_profiler = Profiler::new(cfg.obs.profile || profiler::global_enabled());
        let srv_qp_to_vm = vms.iter().enumerate().map(|(i, v)| (v.qp, i)).collect();
        let cli_qp_to_client = clients.iter().enumerate().map(|(i, c)| (c.qp, i)).collect();
        World {
            cfg,
            fabric,
            hv,
            queue: EventQueue::new(),
            vms,
            clients,
            manager,
            ibmon,
            xenstat: XenStat::new(),
            metrics,
            dom0,
            node_srv,
            node_cli,
            fabric_sync: None,
            hv_sync: None,
            events: 0,
            srv_qp_to_vm,
            cli_qp_to_client,
            tracer,
            registry: MetricsRegistry::new(),
            snapshots: Vec::new(),
            interval_count: 0,
            faults_on,
            done: false,
            deferred_recvs: Vec::new(),
            deferred_responses: Vec::new(),
            actuation_streak,
            antagonist,
            jitter_rng,
            crash,
            prev_true_mtus,
            profiler: self_profiler,
            fab_events: Vec::new(),
            hv_events: Vec::new(),
            client_actions: Vec::new(),
        }
    }

    /// Runs the scenario to completion and returns the collected metrics.
    pub fn run(self) -> RunMetrics {
        self.run_observed().0
    }

    /// Runs the scenario and additionally returns whatever observability
    /// output the scenario's [`crate::ObsOptions`] requested. With both
    /// switches off this is exactly [`World::run`] plus an empty
    /// [`ObservedRun`].
    ///
    /// This is [`World::run_observed_windowed`] with an unbounded quantum:
    /// the first window's horizon saturates at [`SimTime::MAX`], so the
    /// whole run is one `step_until` that pops events in the same order.
    pub fn run_observed(self) -> (RunMetrics, ObservedRun) {
        self.run_observed_windowed(SimDuration::MAX)
    }

    /// Runs the scenario through the windowed conservative driver: repeat
    /// "advance to the next event plus `quantum`" until `End` fires. This
    /// is the single-world run loop; the sharded rack runner drives the
    /// same `start` / `step_until` / `finish` steps from its own barrier
    /// loop.
    ///
    /// Stopping a calendar at a horizon is state-neutral — resuming pops
    /// the same events in the same order — so every quantum gives
    /// byte-identical results. `tests/rack_claims.rs` holds that contract
    /// for a sweep of quanta and for every fig9 scenario at the link's
    /// one-way latency.
    pub fn run_observed_windowed(mut self, quantum: SimDuration) -> (RunMetrics, ObservedRun) {
        self.start();
        while let Some(next) = self.next_event_time() {
            self.step_until(next.saturating_add(quantum));
        }
        self.finish()
    }

    /// Arms the initial events (client start, server polling, manager
    /// interval, `End`). Called exactly once before stepping.
    pub(crate) fn start(&mut self) {
        let duration = self.cfg.duration;
        // Announce any armed attackers to the trace before their traffic
        // starts, so a trace consumer can attribute what follows.
        if self.tracer.enabled() {
            if let Some(ant) = &self.antagonist {
                for &vm in &ant.spec().attackers {
                    self.tracer.instant(
                        SimTime::ZERO,
                        subsystem::ADVERSARY,
                        "attacker_armed",
                        Scope::Vm(vm),
                        vec![
                            ("class", ant.spec().class.name().to_string().into()),
                            ("victim", u64::from(ant.victim()).into()),
                        ],
                    );
                }
            }
        }
        // Kick off clients.
        for i in 0..self.clients.len() {
            let act = self.clients[i].client.start(SimTime::ZERO);
            self.apply_client_action(i, act, SimTime::ZERO);
        }
        // Servers burn CPU polling from the start.
        for i in 0..self.vms.len() {
            let vcpu = self.vms[i].vcpu;
            self.hv.set_polling(vcpu, SimTime::ZERO).expect("vcpu");
        }
        if let Some(manager) = &self.manager {
            let interval = manager.config().interval;
            // Prime XenStat so the first real interval measures a full window.
            for i in 0..self.vms.len() {
                let dom = self.vms[i].dom;
                let _ = self.xenstat.sample(&mut self.hv, dom, SimTime::ZERO);
            }
            self.xenstat.end_round(SimTime::ZERO);
            self.queue
                .schedule_at(SimTime::ZERO + interval, Ev::ResExInterval);
        }
        self.queue.schedule_at(SimTime::ZERO + duration, Ev::End);
        self.rearm();
    }

    /// Earliest pending event, or `None` once the run has ended — the
    /// input to [`resex_simcore::conservative_horizon`] in sharded drives.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        if self.done {
            None
        } else {
            self.next_due().map(|(t, _)| t)
        }
    }

    /// The next entry to fire: the calendar head or a held sync wake-up,
    /// whichever has the smallest `(time, seq)`.
    #[inline]
    fn next_due(&self) -> Option<(SimTime, Due)> {
        let mut best = self.queue.peek_key().map(|k| (k, Due::Calendar));
        for (held, due) in [(self.fabric_sync, Due::Fabric), (self.hv_sync, Due::Hv)] {
            if let Some((at, seq, _)) = held {
                if best.is_none_or(|(k, _)| (at, seq) < k) {
                    best = Some(((at, seq), due));
                }
            }
        }
        best.map(|((t, _), due)| (t, due))
    }

    /// Processes every queued event with timestamp `≤ horizon`, in
    /// timestamp order (FIFO among ties), and returns true once the `End`
    /// event has fired. A horizon is state-neutral: resuming with a later
    /// one pops the same events in the same order, so any windowed drive
    /// of this method is byte-identical to one big `step_until` over the
    /// whole run.
    pub(crate) fn step_until(&mut self, horizon: SimTime) -> bool {
        if self.done {
            return true;
        }
        let warmup = self.cfg.warmup;
        // Hoisted so the hot loop pays one branch per event when off —
        // the same pattern the tracer uses.
        let profiling = self.profiler.is_enabled();
        while let Some((t, due)) = self.next_due().filter(|&(t, _)| t <= horizon) {
            let ev = match due {
                Due::Calendar => self.queue.pop().expect("peeked event").1,
                Due::Fabric => {
                    let (_, _, armed_at) = self.fabric_sync.take().expect("held wake-up");
                    self.queue.advance_to(t);
                    Ev::FabricSync { armed_at }
                }
                Due::Hv => {
                    let (_, _, armed_at) = self.hv_sync.take().expect("held wake-up");
                    self.queue.advance_to(t);
                    Ev::HvSync { armed_at }
                }
            };
            self.events += 1;
            if profiling {
                // Held wake-ups count as calendar entries.
                let held = self.fabric_sync.is_some() as usize + self.hv_sync.is_some() as usize;
                self.profiler.observe(ev_name(&ev), self.queue.len() + held);
            }
            match ev {
                Ev::End => {
                    if profiling {
                        self.profiler.exit();
                    }
                    self.done = true;
                    return true;
                }
                Ev::FabricSync { armed_at } => {
                    // A `BatchDone` wake-up was armed when the batch was
                    // created, but the chunk-at-a-time execution would have
                    // armed the final completion only at the previous chunk
                    // boundary. If this sync jumped ahead of same-instant
                    // events armed in between, re-arm it behind them (the
                    // fresh seq is drawn "now", so it cannot defer twice).
                    if let Some(v) = self.fabric.batch_fire_arming(t) {
                        if armed_at < v {
                            self.fabric_sync = Some((t, self.queue.draw_seq(), t));
                            if profiling {
                                self.profiler.exit();
                            }
                            continue;
                        }
                    }
                    if profiling {
                        self.profiler.enter("fabric.advance");
                    }
                    // The scratch is moved out for the drain so the event
                    // handlers can borrow `self`; its capacity survives.
                    let mut evs = std::mem::take(&mut self.fab_events);
                    self.fabric.advance_into(t, &mut evs);
                    if profiling {
                        self.profiler.exit();
                    }
                    for (et, fe) in evs.drain(..) {
                        if profiling {
                            self.profiler.enter(fabric_ev_name(&fe));
                        }
                        self.on_fabric_event(et, fe, warmup);
                        if profiling {
                            self.profiler.exit();
                        }
                    }
                    self.fab_events = evs;
                }
                Ev::HvSync { armed_at } => {
                    // A batched chunk boundary landing exactly here must be
                    // applied first when its per-chunk completion would have
                    // been armed no later than this sync (rearm always arms
                    // the fabric before the hypervisor at the same instant).
                    self.fabric.presync_boundary(t, armed_at);
                    if profiling {
                        self.profiler.enter("hv.advance");
                    }
                    let mut evs = std::mem::take(&mut self.hv_events);
                    self.hv.advance_into(t, &mut evs);
                    if profiling {
                        self.profiler.exit();
                    }
                    for (et, he) in evs.drain(..) {
                        let HvEvent::JobDone { dom, .. } = he;
                        if profiling {
                            self.profiler.enter("JobDone");
                        }
                        self.on_compute_done(dom, et);
                        if profiling {
                            self.profiler.exit();
                        }
                    }
                    self.hv_events = evs;
                }
                Ev::ClientTimer { client } => {
                    let mut acts = std::mem::take(&mut self.client_actions);
                    self.clients[client].client.on_timer_into(t, &mut acts);
                    for act in acts.drain(..) {
                        self.apply_client_action(client, act, t);
                    }
                    self.client_actions = acts;
                }
                Ev::RequestTimeout { client, req_id } => {
                    self.on_request_timeout(client, req_id, t);
                }
                Ev::ResExInterval => self.on_resex_interval(t),
            }
            if profiling {
                self.profiler.exit();
            }
            self.rearm();
        }
        false
    }

    /// Settles the fabric, audits invariants, and assembles metrics.
    /// Consumes the world; called exactly once after `End` has fired.
    pub(crate) fn finish(mut self) -> (RunMetrics, ObservedRun) {
        debug_assert!(self.done, "finish() before the End event fired");
        let duration = self.cfg.duration;
        let warmup = self.cfg.warmup;
        // Flush any lazily-batched serialization effects so the fabric
        // counters read below reflect everything that completed by run end.
        self.fabric.settle_links(SimTime::ZERO + duration);

        // The panic-free fabric error paths report anything they caught
        // instead of crashing mid-run; in a correct build (faulted or not)
        // there is nothing to report. This check is release-active: a run
        // that corrupted fabric state must never report clean numbers.
        let internal_errors = self.fabric.take_internal_errors();
        assert!(
            internal_errors.is_empty(),
            "fabric event loop caught {} internal inconsistencies; \
             refusing to report metrics from a corrupted run: {:?}",
            internal_errors.len(),
            internal_errors
        );

        // A run that ends during a manager outage still settles: restart
        // the manager from its journal so final accounts (and the policy
        // name) are reportable, then audit Reso conservation by replaying
        // the journal from scratch against the live books.
        if self.crash.is_some() {
            self.settle_crash_plane(SimTime::ZERO + duration);
        }

        let mut out = RunMetrics {
            label: self.cfg.label.clone(),
            policy: self
                .manager
                .as_ref()
                .map(|m| m.policy_name().to_string())
                .unwrap_or_else(|| "none".to_string()),
            duration,
            warmup,
            vms: Vec::new(),
            events_processed: self.events,
            adversary: AdversaryTotals::default(),
            crashes: self.crash.as_ref().map(|p| p.totals).unwrap_or_default(),
            shards: Vec::new(),
        };
        for (i, mut m) in self.metrics.into_iter().enumerate() {
            m.served = self.vms[i].server.served();
            m.true_mtus = self
                .fabric
                .qp_counters(self.node_srv, self.vms[i].qp)
                .map(|c| c.mtus_sent)
                .unwrap_or(0);
            m.ibmon_mtus = self.ibmon.lifetime_mtus(self.vms[i].dom);
            m.retries = self.clients[i].client.retries();
            m.lost_requests = self.clients[i].client.lost();
            // Both directions of this VM's exchange can break and heal.
            for (node, qp) in [
                (self.node_srv, self.vms[i].qp),
                (self.node_cli, self.clients[i].qp),
            ] {
                if let Ok(c) = self.fabric.qp_counters(node, qp) {
                    m.reconnects += c.reconnects;
                    m.replayed += c.replayed;
                }
            }
            // Economic-damage axis: what this VM was actually charged.
            m.reso_spent = self
                .manager
                .as_ref()
                .and_then(|mgr| mgr.account(VmId::new(i as u32)))
                .map(|a| a.lifetime_charged.as_f64())
                .unwrap_or(0.0);
            if let Some(ant) = &self.antagonist {
                m.attacker = ant.is_attacker(i as u32);
            }
            out.vms.push(m);
        }
        if let Some(ant) = &self.antagonist {
            out.adversary.deferred_sends = ant.stats.deferred_sends;
            out.adversary.bursts = ant.stats.bursts;
            for m in &out.vms {
                out.adversary.poison_corrections += m.poison_corrections;
                if m.attacker {
                    out.adversary.attacker_spent += m.reso_spent;
                } else {
                    out.adversary.honest_spent += m.reso_spent;
                }
            }
        }

        let mut observed = ObservedRun::default();
        if self.cfg.obs.trace {
            let (events, entities) = self.tracer.take_events();
            observed.trace_json = Some(export_chrome_trace(&events, &entities));
        }
        if self.cfg.obs.metrics {
            observed.metrics_jsonl = Some(to_jsonl(&self.snapshots));
            observed.summary = self.registry.snapshot(SimTime::ZERO + duration);
        }
        if let Some(profile) = self.profiler.finish() {
            if profiler::global_enabled() {
                profiler::submit(profile.clone());
            }
            if self.cfg.obs.profile {
                observed.profile = Some(profile);
            }
        }
        (out, observed)
    }

    /// Lifetime bytes the server node pushed onto its egress link — the
    /// rack runner diffs this across sync windows to get per-host uplink
    /// demand.
    pub(crate) fn server_egress_bytes(&self) -> u64 {
        self.fabric
            .node_counters(self.node_srv)
            .map(|c| c.bytes_sent)
            .unwrap_or(0)
    }

    /// Applies (or clears) a per-flow egress rate limit on every server
    /// VM QP — the rack runner's actuation path for ToR-uplink grants.
    /// A VM's own scenario QoS stays the binding cap when stricter. Safe
    /// mid-run: the fabric settles the node before touching flow state.
    pub(crate) fn shape_server_egress(&mut self, per_qp: Option<u64>) {
        let burst = (self.cfg.fabric.grant_mtus * self.cfg.fabric.mtu_bytes) as u64;
        for i in 0..self.vms.len() {
            let qos = self.cfg.vms[i].qos;
            let rate = match (qos.and_then(|q| q.rate_limit), per_qp) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
            let params = FlowParams {
                weight: qos.map(|q| q.weight.max(1)).unwrap_or(1),
                priority: qos.map(|q| q.priority).unwrap_or(0),
                rate_limit: rate.map(|bps| TokenBucket::new(bps, burst.max(1))),
            };
            self.fabric
                .set_qp_flow_params(self.node_srv, self.vms[i].qp, params)
                .expect("uplink shaping applies");
        }
    }

    // ------------------------------------------------------------------

    /// Re-arms the held fabric and hypervisor wake-ups after an event.
    /// Both guards key on the clamped time: a past-due `next_time` is held
    /// at `now`, so a raw time that moves backwards but still clamps to the
    /// same instant leaves the held entry (and its seq) alone.
    fn rearm(&mut self) {
        let now = self.queue.now();
        let ft = self.fabric.next_time().map(|t| t.max(now));
        if self.fabric_sync.map(|(t, _, _)| t) != ft {
            self.fabric_sync = ft.map(|at| (at, self.queue.draw_seq(), now));
        }
        let ht = self.hv.next_time().map(|t| t.max(now));
        if self.hv_sync.map(|(t, _, _)| t) != ht {
            self.hv_sync = ht.map(|at| (at, self.queue.draw_seq(), now));
        }
    }

    fn on_fabric_event(&mut self, t: SimTime, ev: FabricEvent, warmup: SimDuration) {
        match ev {
            FabricEvent::RecvComplete {
                node,
                qp,
                wr_id,
                imm,
                ..
            } => {
                if node == self.node_srv {
                    self.on_server_request(qp, wr_id, t);
                } else if node == self.node_cli {
                    self.on_client_response(qp, imm, t);
                }
            }
            FabricEvent::SendComplete {
                node,
                qp,
                opcode,
                status,
                ..
            } => {
                if !status.is_ok() {
                    // Only the fault plane can produce error completions
                    // (retry exhaustion, RNR exhaustion, ERROR-state
                    // flushes); a clean run hitting this is a bug.
                    debug_assert!(
                        self.faults_on,
                        "unexpected completion error at {t}: {status:?}"
                    );
                    self.on_send_error(node, qp, status, t);
                    return;
                }
                if node == self.node_srv && opcode == Opcode::RdmaWriteImm {
                    self.on_server_send_complete(qp, t, warmup);
                }
            }
            FabricEvent::RdmaWriteDelivered { .. } => {}
            FabricEvent::QpReconnected { node, qp, replayed } => {
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::RECOVERY,
                        "qp_reconnected",
                        Scope::Qp(qp.raw()),
                        vec![
                            ("node", u64::from(node.raw()).into()),
                            ("replayed", replayed.into()),
                        ],
                    );
                }
                self.flush_deferred(node, qp, t);
            }
            FabricEvent::RnrDrop { node, qp } => {
                // Never happens with RECV_SLOTS pre-posted — unless the
                // fault plane exhausted the RNR retry budget.
                if !self.faults_on {
                    panic!("receiver not ready at {t} on {node:?}/{qp:?}");
                }
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::FAULTS,
                        "rnr_drop",
                        Scope::Qp(qp.raw()),
                        vec![("node", u64::from(node.raw()).into())],
                    );
                }
            }
        }
    }

    /// A work request completed with an error under fault injection. The
    /// guest's poll loop drains the CQE so the ring keeps moving; the
    /// transaction it carried is abandoned (closed-loop clients simply
    /// stop counting that exchange — the paper's tooling would observe it
    /// as a timeout).
    fn on_send_error(&mut self, node: NodeId, qp: QpNum, status: WcStatus, t: SimTime) {
        if node == self.node_srv {
            if let Some(&vmi) = self.srv_qp_to_vm.get(&qp) {
                let send_cq = self.vms[vmi].send_cq;
                let _ = self.fabric.drain_cq(self.node_srv, send_cq, 64);
            }
        }
        // Client-side sends are unsignaled; error CQEs still drain on the
        // next poll of that CQ. Nothing else to unwind.
        if self.tracer.enabled() {
            self.tracer.instant(
                t,
                subsystem::FAULTS,
                "send_error",
                Scope::Qp(qp.raw()),
                vec![("status", format!("{status:?}").into())],
            );
        }
    }

    /// Posts a receive, or — in a faulted run, where the QP may be
    /// mid-reconnect and refusing posts — parks it for re-posting when
    /// the connection manager brings the QP back.
    fn post_recv_or_defer(&mut self, node: NodeId, qp: QpNum, rr: RecvRequest, t: SimTime) {
        match self.fabric.post_recv(node, qp, rr) {
            Ok(()) => {}
            Err(e) if self.faults_on => {
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::RECOVERY,
                        "recv_deferred",
                        Scope::Qp(qp.raw()),
                        vec![("error", format!("{e:?}").into())],
                    );
                }
                self.deferred_recvs.push((node, qp, rr));
            }
            Err(e) => panic!("replenish recv: {e:?}"),
        }
    }

    /// A QP came back: re-post its parked receives and re-issue any
    /// responses whose post was rejected while it was down.
    fn flush_deferred(&mut self, node: NodeId, qp: QpNum, t: SimTime) {
        let parked = std::mem::take(&mut self.deferred_recvs);
        for (n, q, rr) in parked {
            if (n, q) == (node, qp) {
                self.post_recv_or_defer(n, q, rr, t);
            } else {
                self.deferred_recvs.push((n, q, rr));
            }
        }
        if node == self.node_srv {
            if let Some(&vmi) = self.srv_qp_to_vm.get(&qp) {
                let parked = std::mem::take(&mut self.deferred_responses);
                for (i, act) in parked {
                    if i == vmi {
                        self.apply_server_action(i, act, t);
                    } else {
                        self.deferred_responses.push((i, act));
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Crash failure domains
    // ------------------------------------------------------------------

    /// True when the crash plane has this VM's process down.
    fn vm_is_down(&self, vmi: usize) -> bool {
        self.crash
            .as_ref()
            .is_some_and(|p| p.vm_down_until[vmi].is_some())
    }

    /// One crash-plane step, run at the top of every charging interval:
    /// recoveries whose down-time expired first (a restarted domain can be
    /// crashed again by this tick's draws), then the seeded draws in fixed
    /// manager → host → VM order.
    fn crash_tick(&mut self, t: SimTime) {
        let mut plane = self.crash.take().expect("caller checked the plane");

        // --- recoveries ---
        if plane.mgr_down_until.is_some_and(|until| t >= until) {
            plane.mgr_down_until = None;
            self.recover_manager(&mut plane, t);
        }
        if plane.host_down_until.is_some_and(|until| t >= until) {
            plane.host_down_until = None;
            for i in 0..self.vms.len() {
                if plane.vm_down_until[i].is_some() {
                    self.restart_vm(&mut plane, i, t);
                }
            }
        }
        if plane.host_down_until.is_none() {
            for i in 0..self.vms.len() {
                if plane.vm_down_until[i].is_some_and(|until| t >= until) {
                    self.restart_vm(&mut plane, i, t);
                }
            }
        }

        // --- draws ---
        if let Some(down) = plane.inj.mgr_crashes(t) {
            if plane.mgr_down_until.is_none() && self.manager.is_some() {
                plane.mgr_down_until = Some(t + down);
                plane.totals.mgr_crashes += 1;
                // The journal is the only state that survives the crash.
                plane.saved_journal = self.manager.take().and_then(|mut m| m.take_journal());
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::CHAOS,
                        "mgr_crash",
                        Scope::Global,
                        vec![("down_ns", down.as_nanos().into())],
                    );
                }
            }
        }
        if let Some(down) = plane.inj.host_crashes(t) {
            if plane.host_down_until.is_none() {
                plane.host_down_until = Some(t + down);
                plane.totals.host_crashes += 1;
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::CHAOS,
                        "host_crash",
                        Scope::Global,
                        vec![("down_ns", down.as_nanos().into())],
                    );
                }
                for i in 0..self.vms.len() {
                    if plane.vm_down_until[i].is_none() {
                        self.crash_vm(&mut plane, i, t + down, t);
                    }
                    // Machine S is gone: every resident QP tears. With
                    // recovery armed the connection manager heals the
                    // connection itself, but — unlike a link flap — with
                    // nothing to replay: in-flight work died with the host.
                    let qp = self.vms[i].qp;
                    let _ = self.fabric.set_qp_error(self.node_srv, qp, t);
                    plane.ring_lost[i] = true;
                }
            }
        }
        if let Some((victim, down)) = plane.inj.vm_crashes(t, self.vms.len() as u64) {
            let i = victim as usize;
            if plane.host_down_until.is_none() && plane.vm_down_until[i].is_none() {
                plane.totals.vm_crashes += 1;
                // The VM process dies but its QP survives (the HCA outlives
                // the guest): in-flight requests land and are dropped by the
                // gate below — clients see honest timeout latency.
                self.crash_vm(&mut plane, i, t + down, t);
            }
        }

        self.crash = Some(plane);
    }

    /// Kills one VM's process: server state, queued and in-service work
    /// all vanish; its vCPU stops burning; the manager (if up) evicts its
    /// account — the journal keeps the balance for re-admission.
    fn crash_vm(&mut self, plane: &mut CrashPlane, vmi: usize, until: SimTime, t: SimTime) {
        plane.vm_down_until[vmi] = Some(until);
        plane.readmit_pending[vmi] = true;
        self.vms[vmi].server.crash(t);
        let vcpu = self.vms[vmi].vcpu;
        self.hv.set_idle(vcpu, t).expect("vcpu exists");
        if let Some(m) = self.manager.as_mut() {
            m.deregister_vm(VmId::new(vmi as u32));
        }
        // Parked responses die with the guest that produced them.
        self.deferred_responses.retain(|(i, _)| *i != vmi);
        if self.tracer.enabled() {
            self.tracer.instant(
                t,
                subsystem::CHAOS,
                "vm_crash",
                Scope::Vm(vmi as u32),
                vec![("down_ns", until.duration_since(t).as_nanos().into())],
            );
        }
    }

    /// Restarts a crashed VM: the vCPU polls again, the receive ring is
    /// re-armed (a host crash flushed it and the reconnect replays
    /// nothing), and the VM is re-admitted through the normal lifecycle —
    /// funded by its journaled balance once the manager is up.
    fn restart_vm(&mut self, plane: &mut CrashPlane, vmi: usize, t: SimTime) {
        plane.vm_down_until[vmi] = None;
        let vcpu = self.vms[vmi].vcpu;
        self.hv.set_polling(vcpu, t).expect("vcpu exists");
        // A host crash flushed the receive ring and the reconnect replays
        // nothing — re-post the full ring. Posts rejected while the QP is
        // still mid-reconnect park and flush on `QpReconnected`. A plain
        // VM crash left the ring armed (the drop gate re-posted each
        // consumed slot), so nothing to do there.
        if plane.ring_lost[vmi] {
            plane.ring_lost[vmi] = false;
            let qp = self.vms[vmi].qp;
            let (lkey, base) = (self.vms[vmi].req_lkey, self.vms[vmi].req_base);
            for slot in 0..RECV_SLOTS {
                self.post_recv_or_defer(
                    self.node_srv,
                    qp,
                    RecvRequest {
                        wr_id: slot as u64,
                        lkey,
                        gpa: base.add(slot as u64 * SLOT_BYTES),
                        len: SLOT_BYTES as u32,
                    },
                    t,
                );
            }
        }
        if plane.readmit_pending[vmi] {
            if let Some(m) = self.manager.as_mut() {
                m.readmit_vm(VmId::new(vmi as u32), self.cfg.vms[vmi].weight);
                plane.totals.readmissions += 1;
                plane.readmit_pending[vmi] = false;
            }
            // Manager still down: its own recovery replays the journal,
            // which re-seats every VM that is up by then.
        }
        if self.tracer.enabled() {
            self.tracer.instant(
                t,
                subsystem::CHAOS,
                "vm_restart",
                Scope::Vm(vmi as u32),
                vec![],
            );
        }
    }

    /// Restarts the manager from the saved decision journal with a
    /// catch-up settlement over the missed intervals; VMs that are still
    /// down are evicted again (the journal re-seated them) and re-admit
    /// on their own restart.
    fn recover_manager(&mut self, plane: &mut CrashPlane, t: SimTime) {
        let journal = plane
            .saved_journal
            .take()
            .expect("a crashed manager saved its journal");
        let policy = make_policy(&self.cfg).expect("a crashed manager implies a policy");
        let mut m = ResExManager::recover(self.cfg.resex, policy, journal, self.interval_count)
            .expect("own journal replays");
        m.set_tracer(self.tracer.clone());
        for i in 0..self.vms.len() {
            if plane.vm_down_until[i].is_some() {
                m.deregister_vm(VmId::new(i as u32));
                plane.readmit_pending[i] = true;
            } else {
                // Up (or restarted during the outage): the journal replay
                // already re-seated it with its journaled balance.
                plane.readmit_pending[i] = false;
            }
        }
        if self.tracer.enabled() {
            self.tracer.instant(
                t,
                subsystem::CHAOS,
                "mgr_recovered",
                Scope::Global,
                vec![("interval", self.interval_count.into())],
            );
        }
        self.manager = Some(m);
    }

    /// End-of-run settlement for crash runs: a manager still down restarts
    /// from its journal so final accounts are reportable, then the books
    /// are audited — replaying the journal from scratch must land exactly
    /// on the live accounts (Resos conservation across every outage).
    fn settle_crash_plane(&mut self, t: SimTime) {
        let mut plane = self.crash.take().expect("caller checked the plane");
        if plane.mgr_down_until.take().is_some() {
            self.recover_manager(&mut plane, t);
        }
        if let Some(m) = &self.manager {
            if let Some(journal) = m.journal() {
                let replay = make_policy(&self.cfg).and_then(|policy| {
                    ResExManager::recover(
                        self.cfg.resex,
                        policy,
                        journal.clone(),
                        m.interval_index(),
                    )
                    .ok()
                });
                match replay {
                    Some(r) => {
                        for i in 0..self.vms.len() {
                            let vm = VmId::new(i as u32);
                            if m.account(vm).is_some() && r.account(vm) != m.account(vm) {
                                plane.totals.journal_divergence += 1;
                            }
                        }
                    }
                    None => plane.totals.journal_divergence += 1,
                }
            }
        }
        self.crash = Some(plane);
    }

    // ------------------------------------------------------------------

    /// A transaction arrived at a server VM.
    fn on_server_request(&mut self, qp: QpNum, slot: u64, t: SimTime) {
        let vmi = match self.srv_qp_to_vm.get(&qp) {
            Some(&i) => i,
            None => return,
        };
        if self.vm_is_down(vmi) {
            // The VM process is gone: its poll loop can't pick this up.
            // Consume the completion, re-arm the slot, and drop the
            // request — the client sees honest timeout latency and
            // re-issues after the restart.
            let recv_cq = self.vms[vmi].recv_cq;
            let _ = self.fabric.drain_cq(self.node_srv, recv_cq, 64);
            let lkey = self.vms[vmi].req_lkey;
            let gpa = self.vms[vmi].req_base.add(slot * SLOT_BYTES);
            self.post_recv_or_defer(
                self.node_srv,
                qp,
                RecvRequest {
                    wr_id: slot,
                    lkey,
                    gpa,
                    len: SLOT_BYTES as u32,
                },
                t,
            );
            if let Some(p) = self.crash.as_mut() {
                p.totals.requests_dropped += 1;
            }
            if self.tracer.enabled() {
                self.tracer.instant(
                    t,
                    subsystem::CHAOS,
                    "request_dropped",
                    Scope::Vm(vmi as u32),
                    vec![],
                );
            }
            return;
        }
        // The guest's poll loop consumes the completion (frees the ring
        // slot for the HCA; IBMon still sees the written bytes).
        let recv_cq = self.vms[vmi].recv_cq;
        let _ = self.fabric.drain_cq(self.node_srv, recv_cq, 64);
        let gpa = self.vms[vmi].req_base.add(slot * SLOT_BYTES);
        let mut wire = [0u8; REQUEST_WIRE_BYTES as usize];
        self.vms[vmi]
            .mem
            .read(gpa, &mut wire)
            .expect("request bytes");
        let req = TransactionRequest::decode(&wire).expect("well-formed request");
        // Replenish the receive slot before handing the request over.
        let lkey = self.vms[vmi].req_lkey;
        self.post_recv_or_defer(
            self.node_srv,
            qp,
            RecvRequest {
                wr_id: slot,
                lkey,
                gpa,
                len: SLOT_BYTES as u32,
            },
            t,
        );
        let act = self.vms[vmi].server.on_request(req, t);
        self.apply_server_action(vmi, act, t);
    }

    /// A response landed at a client.
    fn on_client_response(&mut self, qp: QpNum, imm: Option<u32>, t: SimTime) {
        let ci = match self.cli_qp_to_client.get(&qp) {
            Some(&i) => i,
            None => return,
        };
        // The client's poll loop consumes the completion.
        let recv_cq = self.clients[ci].recv_cq;
        let _ = self.fabric.drain_cq(self.node_cli, recv_cq, 64);
        // Replenish the consumed receive.
        let (lkey, gpa, len) = {
            let c = &self.clients[ci];
            (c.resp_mr.lkey, c.resp_mr.gpa, c.resp_mr.len)
        };
        self.post_recv_or_defer(
            self.node_cli,
            qp,
            RecvRequest {
                wr_id: 0,
                lkey,
                gpa,
                len,
            },
            t,
        );
        // Correlate by immediate (request id); for small responses the
        // header is also in memory — check it when present.
        let req_id = imm.expect("responses carry the request id") as u64;
        if len <= 4096 {
            let mut hdr = [0u8; resex_benchex::request::RESPONSE_HEADER_BYTES as usize];
            if self.clients[ci].mem.read(gpa, &mut hdr).is_ok() {
                if let Some(resp) = TransactionResponse::decode(&hdr) {
                    debug_assert_eq!(resp.id & 0xFFFF_FFFF, req_id);
                }
            }
        }
        let pending = match self.clients[ci].outstanding.remove(req_id) {
            Some(p) => p,
            None => return, // duplicate/late; nothing to do
        };
        if let Some(key) = pending.timeout {
            self.queue.cancel(key);
        }
        let act = self.clients[ci].client.on_response(t);
        self.apply_client_action(ci, act, t);
    }

    /// A request's response deadline passed. Stale firings — the response
    /// arrived and retired the entry before the calendar pop — are a
    /// no-op.
    fn on_request_timeout(&mut self, ci: usize, req_id: u64, t: SimTime) {
        let pending = match self.clients[ci].outstanding.remove(req_id) {
            Some(p) => p,
            None => return,
        };
        if self.tracer.enabled() {
            self.tracer.instant(
                t,
                subsystem::RECOVERY,
                "request_timeout",
                Scope::Vm(ci as u32),
                vec![
                    ("request_id", req_id.into()),
                    ("attempts", u64::from(pending.attempts).into()),
                ],
            );
        }
        let attempts = pending.attempts;
        match self.clients[ci]
            .client
            .on_request_timeout(pending.req, attempts, t)
        {
            RetryDecision::Retry(req) => self.post_request(ci, req, attempts + 1, t),
            RetryDecision::GiveUp(follow) => {
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::RECOVERY,
                        "request_lost",
                        Scope::Vm(ci as u32),
                        vec![("request_id", req_id.into())],
                    );
                }
                self.apply_client_action(ci, follow, t);
            }
        }
    }

    /// A server VM's response send completed.
    fn on_server_send_complete(&mut self, qp: QpNum, t: SimTime, warmup: SimDuration) {
        let vmi = match self.srv_qp_to_vm.get(&qp) {
            Some(&i) => i,
            None => return,
        };
        if self.crash.is_some() && !self.vms[vmi].server.awaiting_send() {
            // A completion for a send posted before this VM crashed: the
            // guest that posted it is gone (or rebooted). Drain the CQE so
            // the ring keeps moving and drop the record.
            let send_cq = self.vms[vmi].send_cq;
            let _ = self.fabric.drain_cq(self.node_srv, send_cq, 64);
            return;
        }
        let send_cq = self.vms[vmi].send_cq;
        let _ = self.fabric.drain_cq(self.node_srv, send_cq, 64);
        let (record, act) = self.vms[vmi].server.on_send_complete(t);
        let after_warmup = t.duration_since(SimTime::ZERO) >= warmup;
        record_latency(&mut self.metrics[vmi], &record, after_warmup);
        self.apply_server_action(vmi, act, t);
    }

    fn on_compute_done(&mut self, dom: DomainId, t: SimTime) {
        let vmi = match self.vms.iter().position(|v| v.dom == dom) {
            Some(i) => i,
            None => return,
        };
        if self.vm_is_down(vmi) {
            // The job's guest died at this same instant (the crash tick
            // idled its vCPU, but this completion was already drained).
            return;
        }
        let act = self.vms[vmi].server.on_compute_done(t);
        self.apply_server_action(vmi, act, t);
    }

    fn apply_server_action(&mut self, vmi: usize, act: ServerAction, t: SimTime) {
        match act {
            ServerAction::StartCompute { cpu_time } => {
                let vcpu = self.vms[vmi].vcpu;
                self.hv
                    .start_job(vcpu, cpu_time, vmi as u64, t)
                    .expect("vcpu accepts job");
            }
            ServerAction::PostResponse {
                len,
                client_id: _,
                request_id,
            } => {
                let vm = &self.vms[vmi];
                // Write the response header into the (server-side) buffer.
                let resp = TransactionResponse {
                    id: request_id,
                    sent_at: SimTime::ZERO, // echoed via imm correlation
                    service_ns: 0,
                };
                let hdr = resp.encode_wire();
                vm.mem.write(vm.resp_mr.gpa, &hdr).expect("resp header");
                let (rkey, rgpa) = vm.client_resp;
                let wr = WorkRequest {
                    wr_id: request_id,
                    opcode: Opcode::RdmaWriteImm,
                    lkey: vm.resp_mr.lkey,
                    local_gpa: vm.resp_mr.gpa,
                    len,
                    remote: Some(resex_fabric::RemoteTarget { rkey, gpa: rgpa }),
                    imm: request_id as u32,
                    signaled: true,
                };
                let qp = vm.qp;
                match self.fabric.post_send(self.node_srv, qp, wr, t) {
                    Ok(()) => {}
                    Err(e) if self.faults_on => {
                        // QP mid-reconnect: park the whole action and
                        // re-issue it on QpReconnected. The server keeps
                        // awaiting its send completion either way.
                        if self.tracer.enabled() {
                            self.tracer.instant(
                                t,
                                subsystem::RECOVERY,
                                "response_deferred",
                                Scope::Qp(qp.raw()),
                                vec![("error", format!("{e:?}").into())],
                            );
                        }
                        self.deferred_responses.push((vmi, act));
                    }
                    Err(e) => panic!("response posts: {e:?}"),
                }
            }
            ServerAction::Idle => {
                // Nothing queued: the server spins on its CQ. The VCPU is
                // already in polling mode (JobDone leaves it there).
            }
        }
    }

    fn apply_client_action(&mut self, ci: usize, act: ClientAction, t: SimTime) {
        match act {
            ClientAction::Send(req) => self.post_request(ci, req, 1, t),
            ClientAction::ArmTimer(at) => {
                let mut at = at.max(t);
                if let Some(ant) = &mut self.antagonist {
                    // Phase-locked attackers defer timer fires into their
                    // charging-interval duty windows; honest VMs (and
                    // non-phase-locked classes) pass through unchanged.
                    at = ant.gate_send(ci as u32, at);
                }
                self.queue.schedule_at(at, Ev::ClientTimer { client: ci });
            }
            ClientAction::Idle => {}
        }
    }

    /// Posts (or re-posts, for `attempts > 1`) a client request: writes
    /// the wire bytes, tracks it as outstanding, arms the response
    /// deadline (faulted runs only — clean runs never time out, and the
    /// extra calendar entries would break their byte-identity contract),
    /// and rings the doorbell. A post rejected mid-reconnect is not
    /// fatal: the request stays outstanding and its timeout re-issues it.
    fn post_request(&mut self, ci: usize, req: TransactionRequest, attempts: u32, t: SimTime) {
        let key = req.id & 0xFFFF_FFFF;
        let timeout = if self.faults_on {
            Some(self.queue.schedule_at(
                t + self.cfg.client_tuning.request_timeout,
                Ev::RequestTimeout {
                    client: ci,
                    req_id: key,
                },
            ))
        } else {
            None
        };
        let wire = req.encode_wire();
        let qp;
        let wr;
        {
            let c = &mut self.clients[ci];
            c.mem.write(c.req_mr.gpa, &wire).expect("request bytes");
            wr = WorkRequest {
                wr_id: req.id,
                opcode: Opcode::Send,
                lkey: c.req_mr.lkey,
                local_gpa: c.req_mr.gpa,
                len: REQUEST_WIRE_BYTES,
                remote: None,
                imm: 0,
                signaled: false,
            };
            qp = c.qp;
            c.outstanding.insert(
                key,
                Pending {
                    req,
                    attempts,
                    timeout,
                },
            );
        }
        match self.fabric.post_send(self.node_cli, qp, wr, t) {
            Ok(()) => {}
            Err(e) if self.faults_on => {
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::RECOVERY,
                        "post_rejected",
                        Scope::Qp(qp.raw()),
                        vec![("error", format!("{e:?}").into())],
                    );
                }
            }
            Err(e) => panic!("request posts: {e:?}"),
        }
    }

    /// One ResEx charging interval: gather IBMon + XenStat + agent data,
    /// run the policy, actuate caps, record traces.
    fn on_resex_interval(&mut self, t: SimTime) {
        if self.crash.is_some() {
            self.crash_tick(t);
            if self
                .crash
                .as_ref()
                .is_some_and(|p| p.mgr_down_until.is_some())
            {
                // dom0's pricing stack is down: no telemetry, no pricing,
                // no actuation this interval. Only the cadence survives —
                // the next tick is scheduled exactly as a live manager
                // would have (including the jitter draw), so the calendar
                // stays aligned for the recovery's catch-up settlement.
                self.interval_count += 1;
                self.schedule_next_interval(t);
                return;
            }
        }
        // The interval handler reads fabric ground truth (QP counters,
        // egress backlog); settle any pending link batch first so those
        // reads match the chunk-at-a-time execution exactly.
        self.fabric.settle_links(t);
        let force_after = self
            .manager
            .as_ref()
            .expect("tick implies manager")
            .config()
            .watchdog_actuation_failures;
        let record_metrics = self.cfg.obs.metrics;
        let profiling = self.profiler.is_enabled();
        let mut snapshots = Vec::with_capacity(self.vms.len());
        let mut rows: Vec<IntervalSnapshot> = Vec::new();
        if profiling {
            self.profiler.enter("telemetry");
        }
        for i in 0..self.vms.len() {
            let dom = self.vms[i].dom;
            let mut usage = self.ibmon.sample_vm(dom, t).expect("introspection reads");
            if self.cfg.resex.ibmon_crosscheck {
                // Hardening: diff the fabric's QP counter over the
                // interval — a ground truth no guest traffic shape can
                // influence — and reject ring-scan estimates that fall
                // implausibly short (the signature of a poisoned ring).
                let true_mtus = self
                    .fabric
                    .qp_counters(self.node_srv, self.vms[i].qp)
                    .map(|c| c.mtus_sent)
                    .unwrap_or(self.prev_true_mtus[i]);
                let counter_mtus = true_mtus.saturating_sub(self.prev_true_mtus[i]);
                self.prev_true_mtus[i] = true_mtus;
                let outcome = resex_ibmon::crosscheck_mtus(usage.mtus, counter_mtus);
                if outcome.poisoned {
                    self.metrics[i].poison_corrections += 1;
                    if self.tracer.enabled() {
                        self.tracer.instant(
                            t,
                            subsystem::ADVERSARY,
                            "crosscheck_correction",
                            Scope::Vm(i as u32),
                            vec![
                                ("scan_mtus", usage.mtus.into()),
                                ("counter_mtus", counter_mtus.into()),
                            ],
                        );
                    }
                    usage.mtus = outcome.corrected_mtus;
                }
            }
            if usage.stale && self.tracer.enabled() {
                self.tracer.instant(
                    t,
                    subsystem::FAULTS,
                    "stale_telemetry",
                    Scope::Vm(i as u32),
                    vec![("mtus_reported", usage.mtus.into())],
                );
            }
            let cpu = self
                .xenstat
                .sample(&mut self.hv, dom, t)
                .expect("domain exists");
            let (report, _cost) = {
                let vm = &mut self.vms[i];
                vm.agent.report(&vm.server.window, t)
            };
            if report.is_some() {
                self.vms[i].last_report = report;
            }
            let latency = self.vms[i].last_report.map(|r| LatencyFeedback {
                mean_us: r.mean_us,
                std_us: r.std_us,
                count: r.count,
            });
            snapshots.push((
                VmId::new(i as u32),
                VmSnapshot {
                    mtus: usage.mtus,
                    cpu_pct: cpu.percent,
                    latency,
                    est_buffer_bytes: usage.est_buffer_size,
                    stale: usage.stale,
                },
            ));
            self.metrics[i].mtus_trace.push(t, usage.mtus as f64);

            if self.tracer.enabled() || record_metrics {
                // The platform is the one place that can see both IBMon's
                // introspected estimate and the fabric's ground truth, so
                // the comparison is recorded here rather than inside the
                // ibmon crate.
                let qc = self
                    .fabric
                    .qp_counters(self.node_srv, self.vms[i].qp)
                    .expect("qp exists");
                let mtus_ibmon = self.ibmon.lifetime_mtus(dom);
                if self.tracer.enabled() {
                    self.tracer.instant(
                        t,
                        subsystem::IBMON,
                        "sample",
                        Scope::Vm(i as u32),
                        vec![
                            ("interval_mtus", usage.mtus.into()),
                            ("lifetime_mtus", mtus_ibmon.into()),
                            ("fabric_mtus", qc.mtus_sent.into()),
                            ("est_buffer_size", usage.est_buffer_size.into()),
                        ],
                    );
                    self.tracer.counter(
                        t,
                        subsystem::IBMON,
                        "est_buffer_size",
                        Scope::Vm(i as u32),
                        usage.est_buffer_size,
                    );
                }
                if record_metrics {
                    let name = self.cfg.vms[i].name.clone();
                    self.registry.gauge_set(
                        subsystem::FABRIC_LINK,
                        &name,
                        "egress_bytes_total",
                        qc.bytes_sent as f64,
                    );
                    self.registry
                        .dist_record(subsystem::IBMON, &name, "interval_mtus", usage.mtus);
                    self.registry
                        .rate_record(subsystem::IBMON, &name, "mtus", t, usage.mtus);
                    self.registry
                        .gauge_set(subsystem::HV_SCHED, &name, "cpu_percent", cpu.percent);
                    rows.push(IntervalSnapshot {
                        t_ns: t.as_nanos(),
                        interval: self.interval_count,
                        vm: i as u32,
                        vm_name: name,
                        egress_bytes: qc.bytes_sent,
                        mtus_fabric: qc.mtus_sent,
                        mtus_ibmon,
                        est_buffer_size: usage.est_buffer_size,
                        cpu_percent: cpu.percent,
                        ..IntervalSnapshot::default()
                    });
                }
            }
        }
        self.xenstat.end_round(t);
        if profiling {
            self.profiler.exit();
            self.profiler.enter("policy");
        }

        let outcome = self
            .manager
            .as_mut()
            .expect("manager present")
            .on_interval(t, &snapshots);
        if profiling {
            self.profiler.exit();
            self.profiler.enter("actuate");
        }
        for action in &outcome.actions {
            let ManagerAction::SetCap { vm, cap_pct } = *action;
            let dom = self.vms[vm.index()].dom;
            match self.hv.privileged_set_cap(self.dom0, dom, cap_pct, t) {
                Ok(()) => self.actuation_streak[vm.index()] = 0,
                Err(HvError::ActuationFailed(_)) => {
                    // Transient injected failure: the cap stays where it
                    // was and the policy re-decides next interval — until
                    // the failures run long enough that the watchdog
                    // escalates to the forced actuation path.
                    self.actuation_streak[vm.index()] += 1;
                    if self.tracer.enabled() {
                        self.tracer.instant(
                            t,
                            subsystem::FAULTS,
                            "cap_actuation_failed",
                            Scope::Vm(vm.raw()),
                            vec![("cap_pct", cap_pct.into())],
                        );
                    }
                    if force_after > 0 && self.actuation_streak[vm.index()] >= force_after {
                        self.actuation_streak[vm.index()] = 0;
                        self.hv
                            .privileged_force_cap(self.dom0, dom, cap_pct, t)
                            .expect("dom0 forces caps");
                        self.metrics[vm.index()].watchdog_trips += 1;
                        if self.tracer.enabled() {
                            self.tracer.instant(
                                t,
                                subsystem::RECOVERY,
                                "watchdog_force_cap",
                                Scope::Vm(vm.raw()),
                                vec![
                                    ("cap_pct", cap_pct.into()),
                                    ("failures", u64::from(force_after).into()),
                                ],
                            );
                        }
                    }
                }
                Err(e) => panic!("dom0 sets caps: {e}"),
            }
        }
        for vm in &outcome.watchdog_trips {
            self.metrics[vm.index()].watchdog_trips += 1;
        }
        for charge in &outcome.charges {
            self.metrics[charge.vm.index()]
                .reso_trace
                .push(t, charge.remaining_fraction);
        }
        for i in 0..self.vms.len() {
            let cap = self.hv.cap(self.vms[i].dom).unwrap_or(0);
            let cap = if cap == 0 { 100 } else { cap };
            self.metrics[i].cap_trace.push(t, cap as f64);
        }
        // Close each monitored VM's SLO interval. `rows` has one entry
        // per VM whenever `record_metrics` is set (the telemetry loop
        // above fills it unconditionally in that mode).
        for (i, m) in self.metrics.iter_mut().enumerate() {
            if let Some(slo) = &mut m.slo {
                let (checked, violations) = slo.end_interval();
                let frac = if checked == 0 {
                    0.0
                } else {
                    violations as f64 / checked as f64
                };
                m.slo_trace.push(t, frac);
                if record_metrics {
                    rows[i].slo_checked = checked;
                    rows[i].slo_violations = violations;
                }
            }
        }
        if profiling {
            self.profiler.exit();
            self.profiler.enter("snapshot");
        }

        if record_metrics {
            let policy = self
                .manager
                .as_ref()
                .map(|m| m.policy_name())
                .unwrap_or("none");
            for charge in &outcome.charges {
                let i = charge.vm.index();
                let row = &mut rows[i];
                row.reso_balance = charge.remaining.as_f64();
                row.remaining_fraction = charge.remaining_fraction;
                row.congestion_price = charge.io_rate;
                row.io_charged = charge.io.as_f64();
                row.cpu_charged = charge.cpu.as_f64();
                let name = self.cfg.vms[i].name.clone();
                self.registry.gauge_set(
                    subsystem::RESEX_MANAGER,
                    &name,
                    "reso_balance",
                    charge.remaining.as_f64(),
                );
                self.registry.gauge_set(
                    subsystem::RESEX_MANAGER,
                    &name,
                    "congestion_price",
                    charge.io_rate,
                );
            }
            for action in &outcome.actions {
                let ManagerAction::SetCap { vm, cap_pct } = *action;
                rows[vm.index()].action = format!("set_cap:{cap_pct}");
                self.registry.counter_add(
                    subsystem::RESEX_MANAGER,
                    &self.cfg.vms[vm.index()].name,
                    "cap_changes",
                    1,
                );
            }
            let queue_depth = self.fabric.egress_backlog(self.node_srv).unwrap_or(0);
            for (i, row) in rows.iter_mut().enumerate() {
                row.cap_pct = self.hv.cap(self.vms[i].dom).unwrap_or(0);
                row.queue_depth = queue_depth;
                row.policy = policy.to_string();
                if row.action.is_empty() {
                    row.action = "none".to_string();
                }
            }
            self.snapshots.append(&mut rows);
        }
        if profiling {
            self.profiler.exit();
        }
        self.interval_count += 1;
        self.schedule_next_interval(t);
    }

    /// Schedules the ResEx tick after the one at `t`. Hardening: a
    /// jittered manager samples each next interval in [1 - frac/2,
    /// 1 + frac/2]× the nominal cadence, so an attacker cannot phase-lock
    /// bursts to the charging boundary. Legacy (frac = 0) runs take the
    /// `None` arm and draw nothing.
    fn schedule_next_interval(&mut self, t: SimTime) {
        let interval = self.cfg.resex.interval;
        let next = match &mut self.jitter_rng {
            Some(rng) => {
                let frac = self.cfg.resex.interval_jitter_frac;
                interval.mul_f64(1.0 + frac * (rng.next_f64() - 0.5))
            }
            None => interval,
        };
        self.queue.schedule_at(t + next, Ev::ResExInterval);
    }
}

/// Maps an attacker's traffic shape onto the client mode and trace
/// profile that realize it on the wire. `charging` is the manager's
/// charging interval and `duty` the burst-window fraction; both classes
/// of phase-locked attacker pace their open loop so roughly
/// `ceil(amplification)` sends land inside each eligible duty window
/// (the [`Antagonist::gate_send`] gate defers everything else).
fn attack_client(
    honest_batch: u32,
    traffic: AttackTraffic,
    charging: SimDuration,
    duty: f64,
) -> (ClientMode, TraceProfile) {
    match traffic {
        AttackTraffic::Flood { amplification } => (
            // The free-rider's spend-to-zero engine: close the loop as
            // fast as responses return, amplified batches throughout.
            ClientMode::ClosedLoop {
                think: SimDuration::ZERO,
            },
            TraceProfile::amplified_quotes(honest_batch, amplification),
        ),
        AttackTraffic::Burst { amplification, .. } => {
            // Amplification buys burst *depth*, not batch size: an honest
            // batch keeps the attacker's server fast, so k back-to-back
            // sends per window produce k full-size responses queued on
            // the shared egress — the damage is phase-locked queueing,
            // not compute.
            let k = (amplification.ceil() as u64).max(1);
            (
                ClientMode::OpenLoop {
                    interval: charging.mul_f64(duty).div_u64(k),
                },
                TraceProfile::uniform_quotes(honest_batch.max(1)),
            )
        }
        AttackTraffic::Poison {
            period,
            big,
            repaint,
        } => {
            // One full big+repaint cycle per charging interval: the
            // repaint tail must finish wrapping the large CQEs off the
            // ring before the next IBMon scan.
            let cycle = u64::from((big + repaint).max(1));
            (
                ClientMode::OpenLoop {
                    interval: period.div_u64(cycle),
                },
                TraceProfile::poison_cycle(honest_batch, big, POISON_BIG_FACTOR, repaint),
            )
        }
    }
}

/// Stable event-type labels for the self-profiler.
fn ev_name(ev: &Ev) -> &'static str {
    match ev {
        Ev::FabricSync { .. } => "FabricSync",
        Ev::HvSync { .. } => "HvSync",
        Ev::ClientTimer { .. } => "ClientTimer",
        Ev::RequestTimeout { .. } => "RequestTimeout",
        Ev::ResExInterval => "ResExInterval",
        Ev::End => "End",
    }
}

/// Stable fabric-event labels for the self-profiler.
fn fabric_ev_name(ev: &FabricEvent) -> &'static str {
    match ev {
        FabricEvent::RecvComplete { .. } => "RecvComplete",
        FabricEvent::SendComplete { .. } => "SendComplete",
        FabricEvent::RdmaWriteDelivered { .. } => "RdmaWriteDelivered",
        FabricEvent::QpReconnected { .. } => "QpReconnected",
        FabricEvent::RnrDrop { .. } => "RnrDrop",
    }
}

/// Convenience: build and run in one call.
///
/// ```
/// use resex_platform::{run_scenario, ScenarioConfig};
/// use resex_simcore::time::SimDuration;
///
/// let mut cfg = ScenarioConfig::base_case(64 * 1024);
/// cfg.duration = SimDuration::from_millis(300);
/// cfg.warmup = SimDuration::from_millis(50);
/// let run = run_scenario(cfg);
/// let row = &run.rows()[0];
/// assert!(row.requests > 100);
/// assert!((row.mean_us - 209.0).abs() < 30.0, "calibrated base latency");
/// ```
pub fn run_scenario(cfg: ScenarioConfig) -> RunMetrics {
    World::build(cfg).run()
}

/// Builds and runs with observability output, honouring `cfg.obs`.
///
/// ```
/// use resex_platform::{run_scenario_observed, ScenarioConfig};
/// use resex_simcore::time::SimDuration;
///
/// let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, resex_platform::PolicyKind::FreeMarket);
/// cfg.duration = SimDuration::from_millis(120);
/// cfg.warmup = SimDuration::from_millis(20);
/// cfg.obs.trace = true;
/// cfg.obs.metrics = true;
/// let (_run, observed) = run_scenario_observed(cfg);
/// let trace = observed.trace_json.unwrap();
/// assert!(trace.starts_with('['));
/// assert!(observed.metrics_jsonl.unwrap().lines().count() > 10);
/// ```
pub fn run_scenario_observed(cfg: ScenarioConfig) -> (RunMetrics, ObservedRun) {
    World::build(cfg).run_observed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    /// Posts a minimal valid send on one of the two links at `t`,
    /// planting a fabric agenda entry near `t` without running the
    /// world's event loop.
    fn plant_fabric_work(w: &mut World, server_side: bool, t: SimTime) {
        let (node, qp, lkey, gpa) = if server_side {
            let vm = &w.vms[0];
            (w.node_srv, vm.qp, vm.resp_mr.lkey, vm.resp_mr.gpa)
        } else {
            let c = &w.clients[0];
            (w.node_cli, c.qp, c.req_mr.lkey, c.req_mr.gpa)
        };
        let wr = WorkRequest {
            wr_id: 1,
            opcode: Opcode::Send,
            lkey,
            local_gpa: gpa,
            len: 8,
            remote: None,
            imm: 0,
            signaled: false,
        };
        w.fabric.post_send(node, qp, wr, t).expect("test post");
    }

    #[test]
    fn rearm_is_stable_when_next_time_runs_backwards() {
        // The loop never runs here; duration is irrelevant.
        let mut w = World::build(ScenarioConfig::base_case(64 * 1024));

        // Fabric work at 5 ms, then advance the queue clock past it so
        // the fabric's wake-up is past-due relative to the world clock.
        plant_fabric_work(&mut w, false, ms(5));
        w.queue.schedule_at(ms(6), Ev::End);
        while let Some((t, _)) = w.queue.pop() {
            if t >= ms(6) {
                break;
            }
        }
        let raw = w.fabric.next_time().expect("pending fabric work");
        assert!(raw < w.queue.now(), "setup: wake-up must be past-due");

        w.rearm();
        let (t1, seq1, _) = w.fabric_sync.expect("fabric sync armed");
        assert_eq!(t1, w.queue.now(), "past-due wake-up clamps to now");
        let len1 = w.queue.len();
        let next_seq = w.queue.draw_seq();
        assert!(next_seq > seq1, "the held wake-up drew its seq");

        // Drive the *raw* next_time backwards with earlier work on the
        // other link. The clamped time is unchanged, so rearm must leave
        // the held entry alone. (The regression keyed the guard on the
        // raw time: the mismatch re-armed the wake-up, which double-fired
        // the advance.)
        plant_fabric_work(&mut w, true, ms(3));
        let raw2 = w.fabric.next_time().expect("pending fabric work");
        assert!(raw2 < raw, "setup: next_time must move backwards");
        w.rearm();
        let (t2, seq2, _) = w.fabric_sync.expect("fabric sync still armed");
        assert_eq!((t2, seq2), (t1, seq1), "same held wake-up, not a re-arm");
        assert_eq!(w.queue.len(), len1, "the calendar is untouched");
        assert_eq!(
            w.queue.draw_seq(),
            next_seq + 1,
            "no seq drawn on a backwards next_time"
        );
    }
}
