//! The sharded calendar's hard contract, tested at the library level:
//! advancing a world in conservative-lookahead windows is *state-neutral*
//! — no window quantum may change a byte of the results, on a probe
//! scenario or on any scenario fig9 runs. Plus the rack runner's own
//! claims: reproducible JSON, conserved event accounting, and a real
//! topology signal (cross-ToR pairs slower than intra-ToR pairs).

use resex_platform::experiments::{rack, Scale};
use resex_platform::{PolicyKind, ScenarioConfig, World};
use resex_simcore::time::SimDuration;

/// Fingerprints a scenario run strongly enough to catch any divergence:
/// event count plus the full per-interval metrics JSONL stream.
fn fingerprint(run: (resex_platform::RunMetrics, resex_platform::ObservedRun)) -> (u64, String) {
    let (metrics, observed) = run;
    (
        metrics.events_processed,
        observed.metrics_jsonl.expect("metrics stream enabled"),
    )
}

fn probe_scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::FreeMarket);
    cfg.duration = SimDuration::from_millis(300);
    cfg.warmup = SimDuration::from_millis(50);
    cfg.obs.metrics = true;
    cfg
}

#[test]
fn windowed_calendar_is_state_neutral_for_any_quantum() {
    let monolithic = fingerprint(World::build(probe_scenario()).run_observed());
    let link = probe_scenario()
        .topology
        .one_way_latency(&probe_scenario().fabric);
    for quantum in [
        SimDuration::from_nanos(1),
        link,
        SimDuration::from_nanos(7 * link.as_nanos()),
        SimDuration::from_micros(500),
        SimDuration::from_secs(3600), // one window spanning the whole run
    ] {
        let windowed = fingerprint(World::build(probe_scenario()).run_observed_windowed(quantum));
        assert_eq!(
            monolithic, windowed,
            "quantum {quantum:?} changed the run — windowing leaked state"
        );
    }
}

/// Windowing at the rack's lookahead (the link's one-way latency) is
/// invisible on every scenario of the fig9 sweep: the base case, plus
/// unmanaged, FreeMarket and IOShares at each interferer buffer size.
#[test]
fn windowed_drive_matches_run_observed_on_every_fig9_scenario() {
    let mut cases = vec![ScenarioConfig::base_case(64 * 1024)];
    for buf in [64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024] {
        cases.push(ScenarioConfig::interfered(buf));
        cases.push(ScenarioConfig::managed(buf, PolicyKind::FreeMarket));
        cases.push(ScenarioConfig::managed(buf, PolicyKind::IoShares));
    }
    for mut cfg in cases {
        cfg.duration = SimDuration::from_millis(300);
        cfg.warmup = SimDuration::from_millis(50);
        cfg.obs.metrics = true;
        let quantum = cfg.topology.one_way_latency(&cfg.fabric);
        let label = cfg.label.clone();
        let whole = fingerprint(World::build(cfg.clone()).run_observed());
        let windowed = fingerprint(World::build(cfg).run_observed_windowed(quantum));
        assert_eq!(whole, windowed, "{label}: windowing changed the run");
    }
}

#[test]
fn rack_experiment_is_reproducible_and_conserves_events() {
    let scale = Scale {
        duration: SimDuration::from_millis(300),
        timeline: SimDuration::from_millis(600),
        warmup: SimDuration::from_millis(50),
        faults: resex_faults::FaultSpec::default(),
        adversary: resex_adversary::AdversarySpec::default(),
        rack_hosts: 8, // one ToR, quick enough for a debug-profile test
    };
    let first = rack::run(&scale);
    let second = rack::run(&scale);
    assert_eq!(
        serde_json::to_string(&first).expect("serialize"),
        serde_json::to_string(&second).expect("serialize"),
        "same rack, different JSON"
    );
    // Per-shard accounting must add up to the rack total, and every
    // shard must actually have done work.
    assert!(
        first.shard_events_min + first.shard_events_max <= first.total_events,
        "shard extremes exceed the rack total"
    );
    assert!(
        first.shard_events_min > 0,
        "an idle shard processed nothing"
    );
    assert!(first.windows > 0, "the rack never advanced a window");
}

#[test]
fn cross_tor_pairs_are_slower_than_intra_tor_pairs() {
    // 32 hosts = 2 ToRs: half the pairs stay inside a ToR, half cross
    // the oversubscribed spine. The cross-ToR class must be measurably
    // slower — otherwise the topology is decorative.
    let scale = Scale {
        duration: SimDuration::from_millis(300),
        timeline: SimDuration::from_millis(600),
        warmup: SimDuration::from_millis(50),
        faults: resex_faults::FaultSpec::default(),
        adversary: resex_adversary::AdversarySpec::default(),
        rack_hosts: 32,
    };
    let r = rack::run(&scale);
    let row = |class: &str| {
        r.rows
            .iter()
            .find(|row| row.class == class)
            .unwrap_or_else(|| panic!("missing {class} row"))
    };
    let (intra, cross) = (row("intra-tor"), row("cross-tor"));
    assert_eq!(intra.hosts + cross.hosts, 32);
    assert!(
        cross.mean_us > intra.mean_us,
        "cross-ToR ({:.1}µs) not slower than intra-ToR ({:.1}µs)",
        cross.mean_us,
        intra.mean_us
    );
}
