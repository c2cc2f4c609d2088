//! Per-layer drivers: time public calls of each layer from outside the
//! simulator, on inputs shaped like a workload. Each driver runs batches
//! until its time budget is spent and reports the median ns per call.

use crate::probe::ScaledTimer;
use crate::workload::Plan;
use resex_benchex::{TraceGen, TraceProfile};
use resex_core::{
    FreeMarket, IoShares, LatencyFeedback, PricingPolicy, ResExManager, VmId, VmSnapshot,
};
use resex_fabric::link::{EgressJob, GrantDecision, JobKind, LinkArbiter};
use resex_fabric::qp::{RecvRequest, WorkRequest};
use resex_fabric::{
    Access, CompletionQueue, CqNum, Cqe, Fabric, FabricConfig, NodeId, Opcode, QpNum, WcStatus,
    CQE_SIZE,
};
use resex_hypervisor::{DomainId, HvEvent, Hypervisor, SchedModel, VcpuId};
use resex_ibmon::CqMonitor;
use resex_platform::{PolicyKind, ScenarioConfig, VmSpec};
use resex_simcore::time::{SimDuration, SimTime};
use resex_simcore::EventQueue;
use resex_simmem::{ForeignMapping, Gpa, MemoryHandle};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each driver measures for.
const BUDGET: Duration = Duration::from_millis(150);
/// Slots in a monitored completion ring (an honest VM's send CQ).
const RING_SLOTS: u32 = 1024;

/// Median nanoseconds per operation over batches run until `budget` is
/// spent (at least five batches). `batch` returns the time it measured
/// and the operations it did, so untimed preparation stays out.
fn ns_per_op(budget: Duration, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let (d, ops) = batch();
        samples.push(d.as_nanos() as f64 / ops.max(1) as f64);
    }
    crate::stats::median(&samples)
}

/// Times `f` and returns its elapsed time.
fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// What the drivers need to know about a workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// The most VMs (flows, vCPUs) any one simulated host runs.
    pub vms: usize,
    /// The managed scenario with the most VMs, if the workload has one.
    pub managed: Option<ScenarioConfig>,
    /// Fresh completions per monitored ring per 1 ms charging interval.
    pub completions_per_scan: u32,
    /// Mean pending events in the calendar, from the traced rep.
    pub calendar_depth: usize,
    /// Every client trace of the workload, with its seed.
    pub traces: Vec<(TraceProfile, u64)>,
}

impl Shape {
    /// The shape of `plan`, with the rates a traced rep measured on it.
    pub fn of(plan: &Plan, completions_per_scan: u32, calendar_depth: usize) -> Shape {
        let (vms, managed, traces) = match plan {
            Plan::Scenarios(cfgs) => (
                cfgs.iter().map(|c| c.vms.len()).max().unwrap_or(1),
                cfgs.iter()
                    .filter(|c| c.policy != PolicyKind::None)
                    .max_by_key(|c| c.vms.len())
                    .cloned(),
                cfgs.iter()
                    .flat_map(|c| c.vms.iter().map(move |v| (v.trace, c.seed)))
                    .collect(),
            ),
            // Rack hosts are unmanaged and run the default server trace.
            Plan::Racks(racks) => {
                let trace = VmSpec::server("64KB", 64 * 1024).trace;
                let traces = racks
                    .iter()
                    .flat_map(|rc| (0..rc.vms_per_host).map(move |_| (trace, rc.seed)))
                    .collect();
                let vms = racks.iter().map(|rc| rc.vms_per_host as usize).max();
                (vms.unwrap_or(1), None, traces)
            }
        };
        Shape {
            vms,
            managed,
            completions_per_scan: completions_per_scan.max(1),
            calendar_depth: calendar_depth.max(1),
            traces,
        }
    }
}

/// One driver measurement: metric name, value, unit.
pub type Measure = (&'static str, f64, &'static str);

/// Runs every driver on `shape`, reporting ns per call in seconds of the
/// reference host (each driver is scaled by the probe measured around it,
/// see [`crate::probe`]). IBMon and manager drivers run only when the
/// workload is managed; their metrics are reported as 0 otherwise.
pub fn run_all(shape: &Shape) -> Vec<Measure> {
    let mut timer = ScaledTimer::default();
    let mut ns = |f: &mut dyn FnMut() -> f64| {
        let (v, secs, scaled) = timer.time(f);
        v * scaled / secs
    };
    let (mut scan, mut scan_bytes, mut torn, mut interval) = (0.0, 0.0, 0.0, 0.0);
    if let Some(cfg) = &shape.managed {
        let c = shape.completions_per_scan;
        scan = ns(&mut || {
            let (t, bytes) = ibmon_scan(c, false);
            scan_bytes = bytes;
            t
        });
        torn = ns(&mut || ibmon_scan(c, true).0);
        interval = ns(&mut || core_interval(cfg, c));
    }
    vec![
        (
            "simcore.push_pop_ns",
            ns(&mut || push_pop(shape.calendar_depth)),
            "ns",
        ),
        ("fabric.grant_ns", ns(&mut || grant(shape.vms as u32)), "ns"),
        ("fabric.send_64k_ns", ns(&mut || send_64k(false)), "ns"),
        (
            "fabric.send_64k_behind_2m_ns",
            ns(&mut || send_64k(true)),
            "ns",
        ),
        ("ibmon.scan_ns", scan, "ns"),
        ("ibmon.scan_alloc_bytes", scan_bytes, "bytes"),
        ("ibmon.scan_torn_ns", torn, "ns"),
        ("core.interval_ns", interval, "ns"),
        (
            "hypervisor.advance_ns",
            ns(&mut || hv_advance(shape.vms)),
            "ns",
        ),
        (
            "hypervisor.set_cap_ns",
            ns(&mut || hv_set_cap(shape.vms)),
            "ns",
        ),
        (
            "finance.task_ns",
            ns(&mut || finance_task(&shape.traces)),
            "ns",
        ),
    ]
}

/// `EventQueue::schedule_at` + `pop` at a steady calendar depth.
fn push_pop(depth: usize) -> f64 {
    const OPS: u64 = 4096;
    let mut q = EventQueue::new();
    for i in 0..depth as u64 {
        q.schedule_at(SimTime::from_nanos(1 + i * 97), i);
    }
    ns_per_op(BUDGET, || {
        let d = timed(|| {
            for _ in 0..OPS {
                let (t, x) = q.pop().expect("calendar stays at depth");
                let step = SimDuration::from_nanos(50 + (x.wrapping_mul(7919)) % 1000);
                q.schedule_at(t + step, black_box(x + 1));
            }
        });
        (d, OPS)
    })
}

fn egress_job(flow: u32, len: u32) -> EgressJob {
    EgressJob {
        seq: flow as u64,
        src_node: NodeId::new(0),
        qp: QpNum::new(flow),
        wr_id: flow as u64,
        opcode: Opcode::Send,
        kind: JobKind::Send,
        dst_node: NodeId::new(1),
        dst_qp: QpNum::new(flow),
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

/// `LinkArbiter::next_grant` with `flows` 1 MiB flows round-robined.
fn grant(flows: u32) -> f64 {
    let cfg = FabricConfig::default();
    let grant_bytes = cfg.grant_mtus * cfg.mtu_bytes;
    ns_per_op(BUDGET, || {
        let mut a = LinkArbiter::new();
        for f in 0..flows {
            a.enqueue(egress_job(f, 1024 * 1024));
        }
        let mut grants = 0u64;
        let d = timed(|| {
            while let GrantDecision::Grant(g) =
                a.next_grant(grant_bytes, cfg.mtu_bytes, SimTime::ZERO)
            {
                black_box(g.bytes);
                grants += 1;
            }
        });
        (d, grants)
    })
}

/// One 64 KiB `Fabric` send to completion, alone or behind a 2 MiB send
/// on another queue pair of the same link.
fn send_64k(behind_2m: bool) -> f64 {
    const BIG: u32 = 2 * 1024 * 1024;
    const SMALL: u32 = 64 * 1024;
    const SENDS: u64 = 16;
    let mut f = Fabric::with_defaults();
    let (n0, n1) = (f.add_node(), f.add_node());
    let (m0, m1) = (MemoryHandle::new(8 << 20), MemoryHandle::new(8 << 20));
    let (pd0, pd1) = (f.create_pd(n0).unwrap(), f.create_pd(n1).unwrap());
    let (u0, u1) = (
        f.create_uar(n0, &m0).unwrap(),
        f.create_uar(n1, &m1).unwrap(),
    );
    let (s0, r0) = (
        f.create_cq(n0, &m0, 256).unwrap(),
        f.create_cq(n0, &m0, 256).unwrap(),
    );
    let (s1, r1) = (
        f.create_cq(n1, &m1, 256).unwrap(),
        f.create_cq(n1, &m1, 256).unwrap(),
    );
    let mut lanes = Vec::new();
    for len in [SMALL, BIG] {
        let q0 = f.create_qp(n0, pd0, s0, r0, 128, 128, u0).unwrap();
        let q1 = f.create_qp(n1, pd1, s1, r1, 128, 128, u1).unwrap();
        f.connect(n0, q0, n1, q1).unwrap();
        let b0 = m0.alloc_bytes(len as u64).unwrap();
        let b1 = m1.alloc_bytes(len as u64).unwrap();
        let mr0 = f.register_mr(n0, pd0, &m0, b0, len, Access::FULL).unwrap();
        let mr1 = f.register_mr(n1, pd1, &m1, b1, len, Access::FULL).unwrap();
        lanes.push((q0, q1, mr0, mr1, len));
    }
    if !behind_2m {
        lanes.pop();
    }
    lanes.reverse(); // the 2 MiB send, when present, is posted first
    let mut now = SimTime::ZERO;
    let mut wr_id = 0u64;
    let mut send = || {
        for &(q0, q1, ref mr0, ref mr1, len) in &lanes {
            let recv = RecvRequest {
                wr_id,
                lkey: mr1.lkey,
                gpa: mr1.gpa,
                len,
            };
            f.post_recv(n1, q1, recv).unwrap();
            let send = WorkRequest {
                wr_id,
                opcode: Opcode::Send,
                lkey: mr0.lkey,
                local_gpa: mr0.gpa,
                len,
                remote: None,
                imm: 0,
                signaled: true,
            };
            f.post_send(n0, q0, send, now).unwrap();
            wr_id += 1;
        }
        while let Some(t) = f.next_time() {
            now = t;
            black_box(f.advance(t));
        }
        f.poll_cq(n0, s0, 16).unwrap();
        f.poll_cq(n1, r1, 16).unwrap();
    };
    ns_per_op(BUDGET, || {
        (timed(|| (0..SENDS).for_each(|_| send())), SENDS)
    })
}

/// `CqMonitor::scan` (or `scan_faulted` with one torn slot) on a
/// 1024-slot ring that received `fresh` completions since the last scan.
/// Returns ns per scan and the bytes one scan allocates.
fn ibmon_scan(fresh: u32, torn: bool) -> (f64, f64) {
    const SCANS: u64 = 64;
    let mem = MemoryHandle::new(8 << 20);
    let len = RING_SLOTS as usize * CQE_SIZE;
    let gpa = mem.alloc_bytes(len as u64).unwrap();
    let mut cq = CompletionQueue::new(CqNum::new(0), mem.clone(), gpa, RING_SLOTS).unwrap();
    let mapping = ForeignMapping::map(&mem, gpa, len).unwrap();
    let mut mon = CqMonitor::new(mapping, RING_SLOTS, 1024).unwrap();
    let mut counter = 0u16;
    let mut tick = 0u64;
    // Lands `fresh` completions on the ring, then times one scan.
    let mut scan = || {
        for _ in 0..fresh {
            let cqe = Cqe {
                wr_id: counter as u64,
                qp_num: QpNum::new(1),
                byte_len: 65536,
                wqe_counter: counter,
                opcode: Opcode::Send,
                status: WcStatus::Success,
                imm_data: 0,
            };
            cq.push(cqe).unwrap();
            cq.poll().unwrap();
            counter = counter.wrapping_add(1);
        }
        tick += 1;
        let tear = torn.then_some((tick % RING_SLOTS as u64) as u32);
        let t0 = Instant::now();
        black_box(mon.scan_faulted(SimTime::from_millis(tick), tear).unwrap());
        t0.elapsed()
    };
    scan(); // the first scan only primes the monitor
    let (_, before) = resex_obs::alloc::thread_counters();
    scan();
    let (_, after) = resex_obs::alloc::thread_counters();
    let bytes = after.wrapping_sub(before) as f64;
    let ns = ns_per_op(BUDGET, || {
        let d = (0..SCANS).map(|_| scan()).sum();
        (d, SCANS)
    });
    (ns, bytes)
}

/// The pricing policy a managed scenario runs.
fn policy_of(cfg: &ScenarioConfig) -> Box<dyn PricingPolicy> {
    match cfg.policy {
        PolicyKind::IoShares => Box::new(IoShares::new(
            cfg.vms
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.sla.map(|s| (VmId::new(i as u32), s))),
        )),
        _ => Box::new(FreeMarket::new()),
    }
}

/// `ResExManager::on_interval` with the scenario's policy, configuration
/// and VMs, fed snapshots of `completions` responses per VM per interval.
fn core_interval(cfg: &ScenarioConfig, completions: u32) -> f64 {
    const OPS: u64 = 1000;
    let mut mgr = ResExManager::new(cfg.resex, policy_of(cfg)).expect("valid config");
    let mtu = cfg.fabric.mtu_bytes;
    let snaps: Vec<(VmId, VmSnapshot)> = cfg
        .vms
        .iter()
        .enumerate()
        .map(|(i, v)| {
            mgr.register_vm(VmId::new(i as u32), v.weight);
            let snap = VmSnapshot {
                mtus: completions as u64 * v.buffer_size.div_ceil(mtu) as u64,
                cpu_pct: 40.0 + i as f64,
                latency: v.sla.map(|s| LatencyFeedback {
                    mean_us: s.base_mean_us * (1.1 + 0.05 * i as f64),
                    std_us: s.base_std_us,
                    count: completions as u64,
                }),
                est_buffer_bytes: v.buffer_size as f64,
                stale: false,
            };
            (VmId::new(i as u32), snap)
        })
        .collect();
    let mut t = SimTime::ZERO;
    ns_per_op(BUDGET, || {
        let d = timed(|| {
            for _ in 0..OPS {
                t += cfg.resex.interval;
                black_box(mgr.on_interval(t, &snaps));
            }
        });
        (d, OPS)
    })
}

/// A hypervisor with dom0 plus `n` single-vCPU domains on their own PCPUs.
fn hypervisor(n: usize) -> (Hypervisor, Vec<DomainId>, Vec<VcpuId>) {
    let mut hv = Hypervisor::new(SchedModel::Fluid);
    hv.create_domain("dom0", 1 << 20, true);
    hv.add_pcpu();
    let (mut doms, mut vcpus) = (Vec::new(), Vec::new());
    for i in 0..n {
        let p = hv.add_pcpu();
        let d = hv.create_domain(format!("vm{i}"), 1 << 20, false);
        vcpus.push(hv.add_vcpu(d, p, SimTime::ZERO).unwrap());
        doms.push(d);
    }
    (hv, doms, vcpus)
}

/// `Hypervisor::advance_into` with `n` vCPUs each running back-to-back
/// compute jobs of ~100 µs, as BenchEx servers do.
fn hv_advance(n: usize) -> f64 {
    const OPS: u64 = 1000;
    let (mut hv, _, vcpus) = hypervisor(n);
    let job = |i: u64| SimDuration::from_micros(90 + (i * 37) % 20);
    for (i, &v) in vcpus.iter().enumerate() {
        hv.start_job(v, job(i as u64), i as u64, SimTime::ZERO)
            .unwrap();
    }
    let mut out = Vec::new();
    let mut done = 0u64;
    ns_per_op(BUDGET, || {
        let mut d = Duration::ZERO;
        for _ in 0..OPS {
            let t = hv.next_time().expect("a job is always running");
            d += timed(|| hv.advance_into(t, &mut out));
            for (at, HvEvent::JobDone { vcpu, tag, .. }) in out.drain(..) {
                done += 1;
                hv.start_job(vcpu, job(done), tag, at).unwrap();
            }
        }
        (d, OPS)
    })
}

/// `Hypervisor::set_cap` across `n` polling domains.
fn hv_set_cap(n: usize) -> f64 {
    const ROUNDS: u64 = 500;
    let (mut hv, doms, vcpus) = hypervisor(n);
    for &v in &vcpus {
        hv.set_polling(v, SimTime::ZERO).unwrap();
    }
    let mut t = SimTime::ZERO;
    let mut cap = 10u32;
    ns_per_op(BUDGET, || {
        let d = timed(|| {
            for _ in 0..ROUNDS {
                t += SimDuration::from_micros(10);
                cap = if cap >= 100 { 10 } else { cap + 10 };
                for &dom in &doms {
                    hv.set_cap(dom, cap, t).unwrap();
                }
            }
        });
        (d, ROUNDS * doms.len() as u64)
    })
}

/// `PricingTask::execute` over the workload's own trace mix.
fn finance_task(traces: &[(TraceProfile, u64)]) -> f64 {
    const TASKS: usize = 1024;
    let mut gens: Vec<TraceGen> = traces.iter().map(|&(p, s)| TraceGen::new(p, s)).collect();
    let n = gens.len();
    let tasks: Vec<_> = (0..TASKS).map(|i| gens[i % n].next_task()).collect();
    ns_per_op(BUDGET, || {
        let d = timed(|| {
            for task in &tasks {
                black_box(task.execute());
            }
        });
        (d, TASKS as u64)
    })
}
