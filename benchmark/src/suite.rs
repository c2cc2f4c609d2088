//! One benchmark run of one workload: set-up passes, a discarded warm-up
//! rep, measured reps until the time budget is spent, the fig9 baseline
//! check, and — when traced — one profiled rep plus the layer drivers.
//!
//! Every rep runs in a child process of this binary, one child at a
//! time, so each rep's peak memory is its own and a crash costs only that
//! rep. The parent only orchestrates and runs the layer drivers.

use crate::drivers::{self, Shape};
use crate::rep::{RepOutcome, SetupOutcome};
use crate::stats::median;
use crate::workload::{Plan, Workload};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up children per run: `setup_s` is the median over all their
/// passes. The build's cost moves by a third between processes, so the
/// passes are spread over several.
const SETUP_CHILDREN: usize = 5;
/// Fewest measured reps per run, however long they take.
const MIN_REPS: usize = 3;
/// The committed fig9 `--quick` document the simulator must reproduce.
const FIG9_BASELINE: &str = "tests/baselines/fig9_quick.json";

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs derive from.
    pub seed: u64,
    /// Seconds of measured reps.
    pub seconds: f64,
    /// Also run the traced pass and the layer drivers.
    pub trace: bool,
    /// Multiplier on every simulated span (1.0 = the benchmark).
    pub scale: f64,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// Where and on what a result was measured.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Provenance {
    /// `git rev-parse --short=12 HEAD`, or "unknown" outside a checkout.
    pub git_rev: String,
    /// Logical CPUs available to the process.
    pub nproc: u64,
    /// Pool width the measured reps actually ran on.
    pub threads_effective: u64,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// True when every correctness check passed.
    pub correct: bool,
    /// Checks attempted: one per simulation run of every rep, plus the
    /// fig9 baseline comparison.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Digest over every simulation run's digest in the warm-up rep: equal
    /// for equal inputs and results, so it changes with the seed.
    pub digest: String,
    /// Host and revision.
    pub provenance: Provenance,
    /// Per-rep samples behind each end-to-end median (per pass for
    /// `setup_s`).
    pub samples: std::collections::BTreeMap<String, Vec<f64>>,
    /// End-to-end metrics (medians over the measured reps).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

/// Pool width a workload's reps run on: the rack uses every CPU, the
/// single-host workloads one thread.
fn width(w: Workload) -> usize {
    match w {
        Workload::Rack => nproc(),
        _ => 1,
    }
}

/// Logical CPUs available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_rev() -> String {
    // Look for a repository in the working directory only, never above it.
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Runs this binary with `args` on a pool of `threads` and returns its
/// standard output, or `None` if it failed.
fn child(args: &[String], threads: usize) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(args)
        .env("RESEX_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()
}

/// [`child`], parsing the last line of its output as JSON.
fn child_json<T: serde::Deserialize>(args: &[String], threads: usize) -> Option<T> {
    serde_json::from_str(child(args, threads)?.lines().last()?).ok()
}

/// Failure bookkeeping across every rep of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts a rep's runs, failing each that is unsound or whose digest
    /// differs from `reference` (the warm-up rep's).
    fn rep(&mut self, runs: usize, rep: Option<&RepOutcome>, reference: Option<&RepOutcome>) {
        self.attempted += runs as u64;
        let (Some(rep), Some(reference)) = (rep, reference) else {
            self.failed += runs as u64;
            return;
        };
        for i in 0..runs {
            let ok = match (rep.runs.get(i), reference.runs.get(i)) {
                (Some(r), Some(w)) => r.sound && w.sound && r.digest == w.digest,
                _ => false,
            };
            self.failed += u64::from(!ok);
        }
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs one workload as described by `spec`.
pub fn run(spec: &RunSpec) -> RunResult {
    let w = spec.workload;
    let plan = Plan::new(w, spec.seed, spec.scale);
    let runs = plan.runs();
    let args = |sub: &str| -> Vec<String> {
        [
            sub,
            "--workload",
            w.name(),
            "--seed",
            &spec.seed.to_string(),
            "--scale",
            &spec.scale.to_string(),
        ]
        .map(String::from)
        .to_vec()
    };
    let rep_args = args("rep");
    let mut traced_args = args("rep");
    traced_args.push("--traced".into());
    let setup_args = args("setup");

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    for _ in 0..SETUP_CHILDREN {
        let setup: Option<SetupOutcome> = child_json(&setup_args, width(w));
        tally.check(setup.is_some());
        if let Some(s) = setup {
            setup_s.extend(s.pass_s);
            build_ms.extend(s.build_ms);
        }
    }
    let warm: Option<RepOutcome> = child_json(&rep_args, width(w));
    tally.rep(runs, warm.as_ref(), warm.as_ref());

    let mut reps: Vec<RepOutcome> = Vec::new();
    let t0 = Instant::now();
    let mut tries = 0;
    while tries < MIN_REPS || t0.elapsed().as_secs_f64() < spec.seconds {
        tries += 1;
        let rep: Option<RepOutcome> = child_json(&rep_args, width(w));
        tally.rep(runs, rep.as_ref(), warm.as_ref());
        reps.extend(rep);
    }

    let baseline = std::fs::read_to_string(Path::new(FIG9_BASELINE)).ok();
    let fig9 = child(&["fig9".to_string()], nproc());
    tally.check(baseline.is_some() && fig9 == baseline);

    let wall: Vec<f64> = reps.iter().map(|r| r.scaled_wall_s).collect();
    let mut samples = std::collections::BTreeMap::new();
    samples.insert("wall_s".to_string(), wall.clone());
    samples.insert(
        "sim_req_per_s".to_string(),
        reps.iter()
            .map(|r| r.served as f64 / r.scaled_wall_s)
            .collect(),
    );
    samples.insert("setup_s".to_string(), setup_s);
    // Unscaled, for reference only.
    samples.insert(
        "wall_raw_s".to_string(),
        reps.iter().map(|r| r.wall_s).collect(),
    );
    samples.insert(
        "peak_rss_mb".to_string(),
        reps.iter().map(|r| r.peak_rss_mb).collect(),
    );
    let med = |k: &str| median(&samples[k]);
    let end_to_end = vec![
        metric("wall_s", med("wall_s"), "s"),
        metric("sim_req_per_s", med("sim_req_per_s"), "req/s"),
        metric("setup_s", med("setup_s"), "s"),
        metric("peak_rss_mb", med("peak_rss_mb"), "MB"),
    ];

    let mut per_layer = Vec::new();
    if spec.trace {
        let traced: Option<RepOutcome> = child_json(&traced_args, 1);
        tally.rep(runs, traced.as_ref(), warm.as_ref());
        // The rack's digests must not depend on the pool width.
        let width1 = (width(w) > 1).then(|| child_json::<RepOutcome>(&rep_args, 1));
        if let Some(r) = &width1 {
            tally.rep(runs, r.as_ref(), warm.as_ref());
        }
        if let Some(traced) = &traced {
            let wall1 = width1.flatten().map(|r| r.scaled_wall_s);
            per_layer = layer_metrics(&plan, traced, &build_ms, median(&wall), wall1);
        }
    }

    let threads = reps.iter().map(|r| r.threads_effective).max().unwrap_or(0);
    let finite = end_to_end
        .iter()
        .chain(&per_layer)
        .all(|m| m.value.is_finite());
    RunResult {
        workload: w.name().into(),
        seed: spec.seed,
        correct: tally.failed == 0 && finite && (!spec.trace || !per_layer.is_empty()),
        attempted: tally.attempted,
        failed: tally.failed,
        digest: warm.as_ref().map_or_else(String::new, RepOutcome::digest),
        provenance: Provenance {
            git_rev: git_rev(),
            nproc: nproc() as u64,
            threads_effective: threads,
        },
        samples,
        end_to_end,
        per_layer,
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never exercises).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced rep. `build_ms` are the set-up
/// passes' build times, `wall` the untraced median, and `wall1` the
/// rack's width-1 wall time, when it ran wider.
fn layer_metrics(
    plan: &Plan,
    traced: &RepOutcome,
    build_ms: &[f64],
    wall: f64,
    wall1: Option<f64>,
) -> Vec<Metric> {
    let p = traced.profile.clone().unwrap_or_default();
    let served = traced.served as f64;
    let share = |chains: &[&str]| p.share_pct(chains);
    // The dispatch loop's own time: every event-type root except client
    // timers (BenchEx's), plus the fabric completion handlers.
    let dispatch: Vec<&str> = p
        .self_ns
        .keys()
        .map(String::as_str)
        .filter(|c| match c.split_once(';') {
            None => *c != "ClientTimer",
            Some((root, child)) => root == "FabricSync" && child != "fabric.advance",
        })
        .collect();
    let scan_c = ratio(traced.managed_served as f64, traced.managed_vm_ms as f64).round();
    let shape = Shape::of(plan, scan_c as u32, p.calendar_mean.round() as usize);
    let mut out = vec![
        metric(
            "simcore.events_per_req",
            ratio(traced.events as f64, served),
            "events/req",
        ),
        metric(
            "fabric.sync_per_req",
            ratio(
                p.calls.get("FabricSync").copied().unwrap_or(0) as f64,
                served,
            ),
            "syncs/req",
        ),
        metric(
            "fabric.self_pct",
            share(&["FabricSync;fabric.advance"]),
            "%",
        ),
        metric("ibmon.self_pct", share(&["ResExInterval;telemetry"]), "%"),
        metric(
            "ibmon.est_err_pct",
            100.0
                * ratio(
                    (traced.ibmon_mtus as f64 - traced.true_mtus as f64).abs(),
                    traced.true_mtus as f64,
                ),
            "%",
        ),
        metric("core.self_pct", share(&["ResExInterval;policy"]), "%"),
        metric(
            "hypervisor.self_pct",
            share(&["HvSync;hv.advance", "ResExInterval;actuate"]),
            "%",
        ),
        metric("benchex.server_self_pct", share(&["HvSync;JobDone"]), "%"),
        metric("benchex.client_self_pct", share(&["ClientTimer"]), "%"),
        metric("platform.dispatch_self_pct", share(&dispatch), "%"),
        metric(
            "platform.allocs_per_event",
            ratio(p.allocs as f64, traced.events as f64),
            "allocs/event",
        ),
        metric(
            "platform.alloc_bytes_per_req",
            ratio(p.alloc_bytes as f64, served),
            "bytes/req",
        ),
        metric("platform.build_ms", median(build_ms), "ms"),
        metric(
            "platform.rack_stall_frac",
            ratio(traced.stalls as f64, traced.windows as f64),
            "ratio",
        ),
        metric(
            "platform.rack_speedup",
            wall1.map_or(0.0, |w1| w1 / wall),
            "ratio",
        ),
        metric(
            "faults.retry_frac",
            ratio(traced.retries as f64, served),
            "ratio",
        ),
        metric("faults.reconnects", traced.reconnects as f64, "count"),
        metric("trace_overhead", traced.scaled_wall_s / wall, "ratio"),
    ];
    out.extend(
        drivers::run_all(&shape)
            .into_iter()
            .map(|(name, value, unit)| metric(name, value, unit)),
    );
    out
}
