//! Observability guarantees: determinism, zero perturbation, coverage.
//!
//! The trace/metrics subsystem must be a pure *observer* of the
//! simulation: recording may not change any simulated outcome, and the
//! recorded bytes themselves must be a pure function of the scenario
//! (same seed → byte-identical files).

use resex_platform::{run_scenario, run_scenario_observed, PolicyKind, ScenarioConfig};
use resex_simcore::time::SimDuration;

/// A short managed contention run: two VMs, FreeMarket, caps actuating.
fn observed_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::FreeMarket);
    cfg.duration = SimDuration::from_millis(250);
    cfg.warmup = SimDuration::from_millis(50);
    // Short epoch and a small I/O allowance so the interferer exhausts
    // its balance (and the market actuates caps) within the short run.
    cfg.resex.epoch = SimDuration::from_millis(100);
    cfg.resex.io_resos_per_epoch = 20_000;
    cfg.resex.cpu_resos_per_epoch = 10_000;
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    cfg
}

#[test]
fn same_seed_produces_byte_identical_outputs() {
    let (_, a) = run_scenario_observed(observed_cfg());
    let (_, b) = run_scenario_observed(observed_cfg());
    let trace_a = a.trace_json.expect("trace requested");
    let trace_b = b.trace_json.expect("trace requested");
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "trace JSON must be byte-identical");
    let metrics_a = a.metrics_jsonl.expect("metrics requested");
    let metrics_b = b.metrics_jsonl.expect("metrics requested");
    assert!(metrics_a.lines().count() > 10);
    assert_eq!(metrics_a, metrics_b, "metrics JSONL must be byte-identical");
}

#[test]
fn a_different_seed_produces_a_different_trace() {
    let (_, a) = run_scenario_observed(observed_cfg());
    let mut cfg = observed_cfg();
    cfg.seed = 43;
    let (_, b) = run_scenario_observed(cfg);
    assert_ne!(a.trace_json, b.trace_json);
}

#[test]
fn observation_does_not_perturb_the_run() {
    // The overhead guard: with recording off the run must be *exactly*
    // the baseline (a disabled tracer is one branch per would-be event),
    // and turning recording on must not change any simulated outcome.
    let mut base_cfg = observed_cfg();
    base_cfg.obs.trace = false;
    base_cfg.obs.metrics = false;
    let baseline = run_scenario(base_cfg);
    let (observed, out) = run_scenario_observed(observed_cfg());
    assert!(out.trace_json.is_some());
    assert_eq!(
        observed.events_processed, baseline.events_processed,
        "recording must not change the events the run executes"
    );
    for (b, o) in baseline.rows().iter().zip(observed.rows().iter()) {
        assert_eq!(b.vm, o.vm);
        assert_eq!(b.requests, o.requests);
        assert_eq!(b.mean_us.to_bits(), o.mean_us.to_bits());
        assert_eq!(b.p99_us.to_bits(), o.p99_us.to_bits());
    }
}

#[test]
fn every_observation_mode_executes_the_clean_run() {
    // A batched solo transfer and the managed contention pair, each run
    // with recording off, trace only, metrics only and both: the same
    // events execute and every summary row is bit-identical. Modes that
    // share an output also produce it byte for byte.
    let mut solo = ScenarioConfig::base_case(64 * 1024);
    solo.duration = SimDuration::from_millis(250);
    solo.warmup = SimDuration::from_millis(50);
    let mut managed = observed_cfg();
    managed.obs.trace = false;
    managed.obs.metrics = false;
    for base in [solo, managed] {
        let runs: Vec<_> = [(false, false), (true, false), (false, true), (true, true)]
            .into_iter()
            .map(|(trace, metrics)| {
                let mut cfg = base.clone();
                cfg.obs.trace = trace;
                cfg.obs.metrics = metrics;
                run_scenario_observed(cfg)
            })
            .collect();
        let (clean, _) = &runs[0];
        for (run, _) in &runs[1..] {
            assert_eq!(
                run.events_processed, clean.events_processed,
                "{}",
                base.label
            );
            assert_eq!(
                format!("{:?}", run.rows()),
                format!("{:?}", clean.rows()),
                "{}",
                base.label
            );
        }
        let (trace_only, metrics_only, both) = (&runs[1].1, &runs[2].1, &runs[3].1);
        assert!(trace_only.trace_json.is_some() && trace_only.metrics_jsonl.is_none());
        assert!(metrics_only.trace_json.is_none() && metrics_only.metrics_jsonl.is_some());
        assert_eq!(trace_only.trace_json, both.trace_json);
        assert_eq!(metrics_only.metrics_jsonl, both.metrics_jsonl);
        assert_eq!(
            format!("{:?}", metrics_only.summary),
            format!("{:?}", both.summary)
        );
    }
}

#[test]
fn profiling_does_not_perturb_the_run() {
    // The self-profiler only reads host monotonic clocks and allocation
    // counters — never the DES clock — so a profiled run must reproduce
    // the unprofiled run bit for bit: same events, same rows, same
    // recorded trace/metrics bytes.
    let (base_run, base_out) = run_scenario_observed(observed_cfg());
    assert!(base_out.profile.is_none(), "profile is opt-in");
    let mut cfg = observed_cfg();
    cfg.obs.profile = true;
    let (prof_run, prof_out) = run_scenario_observed(cfg);
    let profile = prof_out.profile.expect("profile requested");

    assert_eq!(base_run.events_processed, prof_run.events_processed);
    assert_eq!(base_out.trace_json, prof_out.trace_json);
    assert_eq!(base_out.metrics_jsonl, prof_out.metrics_jsonl);
    for (b, p) in base_run.rows().iter().zip(prof_run.rows().iter()) {
        assert_eq!(b.vm, p.vm);
        assert_eq!(b.requests, p.requests);
        assert_eq!(b.mean_us.to_bits(), p.mean_us.to_bits());
        assert_eq!(b.p99_us.to_bits(), p.p99_us.to_bits());
    }

    // And the profile itself is populated and self-consistent: one
    // observation per dispatched event, frames for the event types and
    // the ResEx phase breakdown.
    assert_eq!(profile.events, prof_run.events_processed);
    assert!(!profile.frames.is_empty());
    assert!(profile.event_types().count() >= 3, "several event types");
    for chain in ["FabricSync", "HvSync", "ResExInterval;policy"] {
        assert!(
            profile.frames.contains_key(chain),
            "missing frame {chain}: {:?}",
            profile.frames.keys().collect::<Vec<_>>()
        );
    }
    assert!(profile.calendar.samples == profile.events);
}

#[test]
fn hdr_p99_matches_exact_sort_within_one_bucket() {
    // Fig1's interfered workload produces a broad latency distribution;
    // the histogram's p99 must land in the same bucket as the exact-sort
    // p99 over the raw (opt-in) record stream.
    let mut cfg = ScenarioConfig::interfered(2 * 1024 * 1024);
    cfg.duration = SimDuration::from_millis(400);
    cfg.warmup = SimDuration::from_millis(50);
    cfg.obs.keep_records = true;
    let run = run_scenario(cfg);
    let vm = run.vm("64KB").expect("reporter VM");
    let mut exact: Vec<u64> = vm.records.iter().map(|r| r.total().as_nanos()).collect();
    assert!(exact.len() > 100, "enough post-warmup samples");
    assert_eq!(exact.len() as u64, vm.histogram.count());
    exact.sort_unstable();
    let rank = ((0.99 * exact.len() as f64).ceil() as usize).max(1);
    let exact_p99 = exact[rank - 1];
    let (lo, hi) = vm.histogram.bucket_bounds(exact_p99);
    assert!(exact_p99 >= lo && exact_p99 < hi);
    assert_eq!(
        vm.histogram.quantile(0.99),
        lo,
        "histogram p99 must be the lower bound of the bucket holding the exact p99 \
         (exact={exact_p99}, bucket=[{lo},{hi}))"
    );
}

#[test]
fn slo_counts_match_exact_records() {
    // The interfered reporter carries an SLA, so the world auto-derives
    // an SLO threshold for it; the monitor's totals must agree with an
    // exact count over the raw record stream.
    let mut cfg = observed_cfg();
    cfg.obs.keep_records = true;
    let run = run_scenario(cfg);
    let vm = run.vm("64KB").expect("reporter VM");
    let (checked, violations) = vm
        .slo_stats()
        .expect("SLA-carrying VM auto-derives an SLO monitor");
    let threshold = vm.slo.as_ref().unwrap().threshold_ns();
    assert_eq!(checked, vm.records.len() as u64);
    let exact = vm
        .records
        .iter()
        .filter(|r| r.total().as_nanos() > threshold)
        .count() as u64;
    assert_eq!(violations, exact);
    // Per-interval violation fractions were recorded and are fractions.
    assert!(vm.slo_trace.len() > 1);
    assert!(vm
        .slo_trace
        .points()
        .iter()
        .all(|&(_, f)| (0.0..=1.0).contains(&f)));
    // The interferer has no SLA and therefore no monitor.
    assert!(run.vm("2MB").unwrap().slo.is_none());
}

#[test]
fn disabled_observability_returns_no_output() {
    let mut cfg = observed_cfg();
    cfg.obs.trace = false;
    cfg.obs.metrics = false;
    let (_, out) = run_scenario_observed(cfg);
    assert!(out.trace_json.is_none());
    assert!(out.metrics_jsonl.is_none());
    assert!(out.summary.is_empty());
}

#[test]
fn trace_covers_every_subsystem_and_vm() {
    // Coverage of subsystem::FAULTS needs the fault plane installed; a
    // skip-heavy schedule guarantees stale-telemetry events in a short run.
    // Likewise subsystem::ADVERSARY needs the antagonist plane armed and
    // subsystem::CHAOS needs a crash class drawn within the run.
    let mut cfg = observed_cfg();
    cfg.faults = resex_faults::FaultSchedule::from(
        resex_faults::FaultSpec::parse("skip=0.5,loss=0.01,vm_crash=1,vm_down_ms=5")
            .expect("valid spec"),
    );
    cfg.adversary = resex_adversary::AdversarySpec::parse("class=burst").expect("valid spec");
    let (_, out) = run_scenario_observed(cfg);
    let trace = out.trace_json.unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&trace).expect("valid JSON");
    let events = parsed.as_array().expect("array format");
    for sub in resex_obs::subsystem::ALL {
        assert!(
            trace.contains(&format!("\"cat\":\"{sub}\"")),
            "no events from {sub}"
        );
    }
    // One named process per VM plus the host scope.
    for label in ["host", "64KB", "2MB"] {
        assert!(
            events.iter().any(|e| {
                e["name"].as_str() == Some("process_name")
                    && e["args"]["name"].as_str() == Some(label)
            }),
            "missing process {label}"
        );
    }
    // Every record carries the fields strict consumers require.
    for e in events {
        for field in ["ph", "ts", "pid", "tid", "name"] {
            assert!(!e[field].is_null(), "record missing {field}: {e}");
        }
    }
}

#[test]
fn metrics_rows_line_up_the_causal_chain() {
    let (_, out) = run_scenario_observed(observed_cfg());
    let jsonl = out.metrics_jsonl.unwrap();
    let rows: Vec<serde_json::Value> = jsonl
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid JSON row"))
        .collect();
    assert!(rows.len() > 10);
    // Two VMs per interval, in VM order.
    assert_eq!(rows[0]["vm"].as_u64(), Some(0));
    assert_eq!(rows[1]["vm"].as_u64(), Some(1));
    assert_eq!(rows[0]["vm_name"].as_str(), Some("64KB"));
    assert_eq!(rows[1]["vm_name"].as_str(), Some("2MB"));
    for r in &rows {
        for field in [
            "t_ns",
            "reso_balance",
            "cap_pct",
            "egress_bytes",
            "mtus_fabric",
            "mtus_ibmon",
            "est_buffer_size",
            "policy",
            "action",
        ] {
            assert!(!r[field].is_null(), "row missing {field}: {r}");
        }
        assert_eq!(r["policy"].as_str(), Some("FreeMarket"));
    }
    // The interferer eventually trips the market: some row must show a
    // cap actuation, and the fabric/IBMon MTU views must track each other.
    assert!(rows.iter().any(|r| r["action"]
        .as_str()
        .is_some_and(|a| a.starts_with("set_cap:"))));
    let last = rows.last().unwrap();
    let fabric = last["mtus_fabric"].as_u64().unwrap() as f64;
    let ibmon = last["mtus_ibmon"].as_u64().unwrap() as f64;
    assert!(fabric > 0.0);
    assert!(
        (fabric - ibmon).abs() / fabric < 0.05,
        "IBMon estimate drifted"
    );
    // Registry summary is present and deterministically ordered.
    assert!(!out.summary.is_empty());
    let keys: Vec<_> = out
        .summary
        .iter()
        .map(|s| (s.subsystem.clone(), s.entity.clone(), s.name.clone()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    // Samples are grouped by kind, each group key-ordered.
    assert_eq!(keys.len(), sorted.len());
}
