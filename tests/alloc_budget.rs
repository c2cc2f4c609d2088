//! Allocation budget for the hot path.
//!
//! The batched fabric hot path is supposed to be allocation-free in
//! steady state: payload buffers come from the pool, event drains reuse
//! caller-owned scratch, and the calendar recycles its slots. This test
//! installs the counting allocator and holds the whole simulation to a
//! hard budget of **0.5 allocations per event** — an order of magnitude
//! above steady-state reality (the committed profile measures ~0.05), so
//! it only trips when someone reintroduces a per-event allocation, not
//! on setup-cost noise. It must pass in debug builds: the budget counts
//! allocator calls, not cycles.
//!
//! The IBMon ring scan, which runs on every VM every charging interval,
//! is held to a stricter budget: once primed it allocates nothing.
//!
//! The server charges simulated CPU time for each request's pricing work
//! and never runs the pricing kernels, so an unmanaged exchange-mix run
//! allocates almost nothing per event once built (~0.0007). CRR reprices
//! allocate their lattice, so pricing each request lifts that to ~0.011;
//! the 0.0027 budget sits about 4x from both.
//!
//! Registering a memory region pins its pages but does not back them:
//! page storage arrives with the first write, so a large MR that is
//! never written costs almost no heap.
//!
//! The rack runner steps its shards in place and reuses its barrier
//! scratch, so the thread that calls `run_rack` allocates next to nothing
//! per sync window beyond its share of the shards' own simulation: about
//! 1 KB per window for the test rack. Moving every shard through a
//! parallel map and collect instead costs ~32 KB per window on that
//! thread, so the 8 KiB budget sits about 4x from both.
//!
//! Building a world pays only for the guest memory it touches: a page
//! table reaches only the highest page pinned or written, a new CQ ring's
//! 0xFF fill allocates no pages, and a latency window grows as records
//! arrive. A warm one-VM base-case build allocates about 40 KB. The 128
//! KiB budget trips if any one of the three is paid up front again: full
//! page tables make it ~650 KB, materialized rings ~170 KB and reserved
//! windows ~200 KB.

use resex_benchex::TraceProfile;
use resex_fabric::{
    Access, CompletionQueue, CqNum, Cqe, Fabric, Opcode, QpNum, WcStatus, CQE_SIZE,
};
use resex_ibmon::CqMonitor;
use resex_platform::{run_rack, run_scenario, PolicyKind, RackConfig, ScenarioConfig, World};
use resex_simcore::time::{SimDuration, SimTime};
use resex_simmem::{ForeignMapping, MemoryHandle};

#[global_allocator]
static ALLOC: resex_obs::alloc::CountingAlloc = resex_obs::alloc::CountingAlloc;

/// A small fig9-style managed contention scenario: two VMs, FreeMarket,
/// caps actuating — the same workload shape the figure sweeps, shrunk to
/// a fraction of a simulated second.
fn budget_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::managed(1024 * 1024, PolicyKind::FreeMarket);
    cfg.duration = SimDuration::from_millis(400);
    cfg.warmup = SimDuration::from_millis(50);
    cfg
}

#[test]
fn hot_path_stays_under_half_an_allocation_per_event() {
    // First run warms every lazy structure (pool buffers, scratch
    // capacity, interned names) so the measured run sees steady state
    // plus one world construction — which the budget must still absorb.
    run_scenario(budget_cfg());

    let (before, _) = resex_obs::alloc::thread_counters();
    let run = run_scenario(budget_cfg());
    let (after, _) = resex_obs::alloc::thread_counters();

    let allocs = after.wrapping_sub(before);
    let events = run.events_processed;
    assert!(events > 10_000, "scenario too small to measure: {events}");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event < 0.5,
        "hot path regressed to {per_event:.3} allocs/event \
         ({allocs} allocations over {events} events)"
    );
}

#[test]
fn served_requests_run_no_pricing_kernels() {
    // One unmanaged 64 KiB VM whose client sends the default exchange mix
    // (quotes, risk checks, CRR reprices, implied-vol solves).
    let mut cfg = ScenarioConfig::base_case(64 * 1024);
    cfg.vms[0].trace = TraceProfile::default();
    cfg.duration = SimDuration::from_secs(10);
    cfg.warmup = SimDuration::from_millis(200);
    let world = World::build(cfg);
    let (before, _) = resex_obs::alloc::thread_counters();
    let run = world.run();
    let (after, _) = resex_obs::alloc::thread_counters();

    let allocs = after.wrapping_sub(before);
    let events = run.events_processed;
    assert!(events > 10_000, "scenario too small to measure: {events}");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event < 0.0027,
        "unmanaged run allocated {per_event:.5} allocs/event \
         ({allocs} allocations over {events} events): is the server \
         executing pricing tasks again?"
    );
}

/// Bytes allocated by 64 scans of a primed 1024-slot ring that receives
/// four fresh CQEs before each scan; with `torn`, every scan also has an
/// injected torn slot.
fn scan_alloc_bytes(torn: bool) -> u64 {
    const SLOTS: u32 = 1024;
    let mem = MemoryHandle::new(1 << 20);
    let len = SLOTS as usize * CQE_SIZE;
    let gpa = mem.alloc_bytes(len as u64).unwrap();
    let mut cq = CompletionQueue::new(CqNum::new(0), mem.clone(), gpa, SLOTS).unwrap();
    let mapping = ForeignMapping::map(&mem, gpa, len).unwrap();
    let mut mon = CqMonitor::new(mapping, SLOTS, 1024).unwrap();
    mon.scan(SimTime::ZERO).unwrap();
    let mut counter = 0u16;
    let mut bytes = 0;
    for tick in 1..=64u32 {
        for _ in 0..4 {
            cq.push(Cqe {
                wr_id: counter as u64,
                qp_num: QpNum::new(1),
                byte_len: 65536,
                wqe_counter: counter,
                opcode: Opcode::Send,
                status: WcStatus::Success,
                imm_data: 0,
            })
            .unwrap();
            cq.poll().unwrap();
            counter = counter.wrapping_add(1);
        }
        let tear = torn.then_some(tick * 37 % SLOTS);
        let (_, before) = resex_obs::alloc::thread_counters();
        let s = mon
            .scan_faulted(SimTime::from_millis(tick as u64), tear)
            .unwrap();
        let (_, after) = resex_obs::alloc::thread_counters();
        bytes += after.wrapping_sub(before);
        assert_eq!(s.torn, torn as u32);
        assert!(s.completions >= 3, "scan {tick} saw {s:?}");
    }
    bytes
}

#[test]
fn primed_ring_scans_allocate_nothing() {
    assert_eq!(scan_alloc_bytes(false), 0, "clean scans allocated");
    assert_eq!(scan_alloc_bytes(true), 0, "torn scans allocated");
}

#[test]
fn registering_a_large_mr_backs_no_pages() {
    const MR: u32 = 2 << 20;
    let mut f = Fabric::with_defaults();
    let node = f.add_node();
    let mem = MemoryHandle::new(2 * MR as u64);
    let pd = f.create_pd(node).unwrap();
    let gpa = mem.alloc_bytes(MR as u64).unwrap();
    let (_, before) = resex_obs::alloc::thread_counters();
    f.register_mr(node, pd, &mem, gpa, MR, Access::FULL)
        .unwrap();
    let (_, after) = resex_obs::alloc::thread_counters();
    let bytes = after.wrapping_sub(before);
    assert!(
        bytes < 64 * 1024,
        "registering a 2 MiB MR allocated {bytes} bytes"
    );
    assert!(mem.with_read(|m| m.is_pinned(gpa, MR as usize)));
}

/// Bytes the calling thread allocates in `run_rack` over a rack of eight
/// one-VM hosts simulated for `ms`, and the windows it stepped. Two ToRs
/// of four: one pairs inside itself, the other rides the spine, so every
/// barrier also drains and arbitrates an uplink.
fn rack_caller_bytes(ms: u64) -> (u64, u64) {
    let mut cfg = RackConfig::new(8);
    cfg.topology.hosts_per_tor = 4;
    cfg.vms_per_host = 1;
    cfg.duration = SimDuration::from_millis(ms);
    cfg.warmup = SimDuration::from_millis(5);
    let (_, before) = resex_obs::alloc::thread_counters();
    let run = run_rack(&cfg);
    let (_, after) = resex_obs::alloc::thread_counters();
    (after.wrapping_sub(before), run.windows)
}

#[test]
fn rack_windows_allocate_almost_nothing_on_the_caller() {
    if rayon::current_num_threads() <= 1 {
        return; // one thread: the by-value map collects in place anyway
    }
    // The shards are built on the pool, so the caller's share of the
    // build varies run to run by whole Worlds (~1 MB each). A long and a
    // short span of the same rack differ only in windows; the median of
    // five differences keeps one lopsided build split from deciding.
    let mut per_window: Vec<f64> = (0..5)
        .map(|_| {
            let (short, short_windows) = rack_caller_bytes(10);
            let (long, long_windows) = rack_caller_bytes(210);
            assert!(long_windows >= short_windows + 300, "spans too close");
            (long as f64 - short as f64) / (long_windows - short_windows) as f64
        })
        .collect();
    per_window.sort_by(f64::total_cmp);
    let median = per_window[2];
    assert!(
        median < 8192.0,
        "the rack caller allocated {median:.0} bytes per window \
         (samples {per_window:.0?}): are shards moved by value again?"
    );
}

#[test]
fn building_a_world_pays_only_for_touched_memory() {
    let cfg = || ScenarioConfig::base_case(64 * 1024);
    // The first build warms any process-wide lazy state; the second is
    // what every later build pays.
    drop(World::build(cfg()));
    let (_, before) = resex_obs::alloc::thread_counters();
    let world = World::build(cfg());
    let (_, after) = resex_obs::alloc::thread_counters();
    drop(world);
    let bytes = after.wrapping_sub(before);
    assert!(
        bytes < 128 * 1024,
        "building a one-VM world allocated {bytes} bytes: are page tables, \
         CQ rings or latency windows paid for up front again?"
    );
}
