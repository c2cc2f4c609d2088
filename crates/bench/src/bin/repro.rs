//! `repro` — regenerate every figure of the ResEx paper.
//!
//! ```text
//! cargo run -p resex-bench --release --bin repro -- all
//! cargo run -p resex-bench --release --bin repro -- fig7 --full
//! cargo run -p resex-bench --release --bin repro -- fig9 --json out.json
//! ```
//!
//! Targets: `fig1` … `fig9`, `ablation`, `hw_qos`, `scaling`, `rack`,
//! `all`. `--quick` (default) runs CI-scale simulations; `--full` runs
//! paper-shaped spans. `rack` runs the sharded rack-scale scenario
//! (hundreds of per-host calendars under conservative lookahead over the
//! two-tier ToR/spine topology); it is deliberately *not* part of `all`,
//! which keeps the figure suite's output and BENCH baselines unchanged. `--json PATH`
//! additionally dumps the figure data as JSON for plotting. `--trace PATH`
//! / `--metrics PATH` additionally run the representative managed
//! scenario (64KB + 2MB under FreeMarket) with observability on and write
//! a Perfetto-loadable trace / per-interval JSONL metrics. `--faults SPEC`
//! installs a deterministic fault schedule (see `resex_faults::FaultSpec`)
//! on every scenario the target runs. `--adversary SPEC` arms the
//! antagonist plane (see `resex_adversary::AdversarySpec`) on every
//! multi-VM scenario the target runs.
//!
//! `repro chaos [--budget N] [--seed S]` runs the seeded random
//! fault-schedule explorer instead of a figure: every generated schedule
//! is checked against the global invariant registry and any violation is
//! shrunk to a minimal replayable `--faults` reproducer. Exit status is
//! nonzero when a violation survives — CI runs this with a fixed seed.
//!
//! `all` computes the independent figure targets **concurrently** on the
//! work-stealing pool (each figure also fans its own sweep points out),
//! then prints every figure in the canonical order — so stdout and the
//! JSON document are byte-identical whether the pool has 1 thread
//! (`RESEX_THREADS=1`) or many. Per-target wall-clock goes to stderr.
//!
//! `repro profile [target]` (target defaults to `all`) runs the same
//! simulations under the DES self-profiler and prints a perf report
//! instead of the figures: per-event-type self-time, allocations/event,
//! events/sec, calendar shape. `--profile-json PATH` writes the
//! machine-readable `ProfileReport`; `--flame PATH` writes a
//! collapsed-stack file for flamegraph tooling. Profiling never perturbs
//! the simulation: `--json` output from a profiled run is byte-identical
//! to an unprofiled one (CI enforces this).

use rayon::prelude::*;
use resex_bench::report::{build_report, merged_profile, Provenance};
use resex_platform::experiments::{
    ablation, fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, hw_qos, rack, scaling, Scale,
};
use resex_platform::{PolicyKind, ScenarioConfig};
use serde_json::{json, Value};
use std::io::Write;

/// Count heap allocations per thread so the profiler can attribute them
/// to event types. Pure delegation to the system allocator plus two
/// thread-local counter bumps; installed here (a binary decision) rather
/// than by any library.
#[global_allocator]
static ALLOC: resex_obs::alloc::CountingAlloc = resex_obs::alloc::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: repro [profile] <fig1|...|fig9|ablation|hw_qos|scaling|rack|all> \
         [--quick|--full] [--duration-ms N] [--warmup-ms N] \
         [--json PATH] [--trace PATH] [--metrics PATH] [--faults SPEC] \
         [--adversary SPEC] [--profile-json PATH] [--flame PATH]\n\
       repro chaos [--budget N] [--seed S] [--duration-ms N] [--warmup-ms N]\n\
         fault SPEC: comma list of seed=N loss=P corrupt=P delay=P \
delay_us=N tear=P skip=P stale=P capfail=P flap_ms=N flap_down_us=N \
mgr_crash=P mgr_down_ms=N host_crash=P host_down_ms=N vm_crash=P vm_down_ms=N\n\
         adversary SPEC: comma list of class=<burst|freeride|poison|collude> \
seed=N attackers=I+J+.. victim=I intensity=F duty=F"
    );
    std::process::exit(2);
}

/// The run the observability flags record: the paper's canonical managed
/// contention case (64KB reporting VM vs 2MB interferer, FreeMarket).
fn observed_representative(scale: &Scale, trace_path: Option<&str>, metrics_path: Option<&str>) {
    let mut cfg = ScenarioConfig::managed(2 * 1024 * 1024, PolicyKind::FreeMarket);
    cfg.obs.trace = trace_path.is_some();
    cfg.obs.metrics = metrics_path.is_some();
    let label = cfg.label.clone();
    let (run, observed) = scale.run([(scale.duration, cfg)]).remove(0);
    eprintln!("[observed {label}: {} events]", run.events_processed);
    if let (Some(out), Some(json)) = (trace_path, &observed.trace_json) {
        std::fs::write(out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        eprintln!("[trace -> {out}]");
    }
    if let (Some(out), Some(jsonl)) = (metrics_path, &observed.metrics_jsonl) {
        std::fs::write(out, jsonl).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        eprintln!("[metrics -> {out}]");
    }
}

/// A computed figure: printing is deferred so `all` can compute targets
/// concurrently and still print in canonical order.
trait Figure: Send {
    fn print(&self);
    fn json(&self) -> Value;
}

/// A figure result paired with its printer.
struct Fig<R>(R, fn(&R));

impl<R: serde::Serialize + Send> Figure for Fig<R> {
    fn print(&self) {
        (self.1)(&self.0)
    }

    fn json(&self) -> Value {
        json!(self.0)
    }
}

/// Runs one target's simulations without printing anything.
fn compute_target(target: &str, scale: &Scale) -> Box<dyn Figure> {
    fn fig<R: serde::Serialize + Send + 'static>(r: R, print: fn(&R)) -> Box<dyn Figure> {
        Box::new(Fig(r, print))
    }
    match target {
        "fig1" => fig(fig1::run(scale), fig1::Fig1Result::print),
        "fig2" => fig(fig2::run(scale), fig2::Fig2Result::print),
        "fig3" => fig(fig3::run(scale), fig3::Fig3Result::print),
        "fig4" => fig(fig4::run(scale), fig4::Fig4Result::print),
        "fig5" => fig(fig5::run(scale), fig5::Fig5Result::print),
        "fig6" => fig(fig6::run(scale), fig6::Fig6Result::print),
        "fig7" => fig(fig7::run(scale), fig7::Fig7Result::print),
        "fig8" => fig(fig8::run(scale), fig8::Fig8Result::print),
        "fig9" => fig(fig9::run(scale), fig9::Fig9Result::print),
        "ablation" => fig(ablation::run(scale), ablation::AblationResult::print),
        "hw_qos" => fig(hw_qos::run(scale), hw_qos::HwQosResult::print),
        "scaling" => fig(scaling::run(scale), scaling::ScalingResult::print),
        "rack" => fig(rack::run(scale), rack::RackResult::print),
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut target = None;
    let mut profile_mode = false;
    let mut chaos_mode = false;
    let mut chaos_cfg = resex_chaos::ChaosConfig::default();
    let mut mode = "quick";
    let mut scale = Scale::quick();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut profile_json_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    let mut faults_spec: Option<String> = None;
    let mut adversary_spec: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                scale = Scale::quick();
                mode = "quick";
            }
            "--full" => {
                scale = Scale::full();
                mode = "full";
            }
            // Span overrides on top of the selected scale; mainly for the
            // determinism test suite, which wants the same sweep *shape*
            // over a shorter simulated span.
            "--duration-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&ms| ms > 0)
                    .unwrap_or_else(|| usage());
                scale.duration = resex_simcore::time::SimDuration::from_millis(ms);
                scale.timeline = resex_simcore::time::SimDuration::from_millis(2 * ms);
                chaos_cfg.duration = resex_simcore::time::SimDuration::from_millis(ms);
            }
            "--warmup-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                scale.warmup = resex_simcore::time::SimDuration::from_millis(ms);
                chaos_cfg.warmup = resex_simcore::time::SimDuration::from_millis(ms);
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metrics" => {
                i += 1;
                metrics_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--profile-json" => {
                i += 1;
                profile_json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--flame" => {
                i += 1;
                flame_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            // Raw spec strings are collected here and validated *jointly*
            // after the loop: a composed command line with two bad specs
            // reports both problems at once instead of the first only.
            "--faults" => {
                i += 1;
                faults_spec = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--adversary" => {
                i += 1;
                adversary_spec = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--budget" => {
                i += 1;
                chaos_cfg.budget = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                chaos_cfg.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "profile" if !profile_mode && !chaos_mode && target.is_none() => profile_mode = true,
            "chaos" if !profile_mode && !chaos_mode && target.is_none() => chaos_mode = true,
            t if target.is_none() => target = Some(t.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    match resex_platform::parse_spec_combo(faults_spec.as_deref(), adversary_spec.as_deref()) {
        Ok((f, a)) => {
            scale.faults = f;
            scale.adversary = a;
        }
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    }

    // `repro chaos` runs the schedule explorer instead of a figure
    // target: deterministic for a given seed and budget, exit status 1
    // when any invariant violation survives shrinking.
    if chaos_mode {
        if target.is_some() {
            usage();
        }
        let report = resex_chaos::explore(&chaos_cfg);
        report.print();
        if !report.violations.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    // `repro profile` with no explicit target profiles the whole suite.
    let target = target.unwrap_or_else(|| {
        if profile_mode {
            "all".to_string()
        } else {
            usage()
        }
    });

    let targets: Vec<&str> = if target == "all" {
        vec![
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablation",
            "hw_qos", "scaling",
        ]
    } else {
        vec![target.as_str()]
    };

    // Arm the global profiler *before* any world is built so every
    // simulation the targets run submits its per-thread profile. The
    // simulations themselves are untouched: profiling reads host
    // monotonic clocks outside the DES clock, so the figure data (and
    // any --json output) stays byte-identical to an unprofiled run.
    if profile_mode {
        resex_obs::profiler::set_global_enabled(true);
    }

    // Compute every target on the pool (each target also parallelizes its
    // own sweep), then print in canonical order: output is byte-identical
    // to a sequential run.
    let t_all = std::time::Instant::now();
    let computed: Vec<(&str, Box<dyn Figure>, f64)> = targets
        .into_par_iter()
        .map(|t| {
            let t0 = std::time::Instant::now();
            let out = compute_target(t, &scale);
            (t, out, t0.elapsed().as_secs_f64())
        })
        .collect();
    let wall = t_all.elapsed().as_secs_f64();
    if profile_mode {
        resex_obs::profiler::set_global_enabled(false);
    }

    let mut doc = serde_json::Map::new();
    for (t, out, secs) in &computed {
        // Profile mode prints the perf report instead of the figures; the
        // figure data still lands in --json, byte-identical.
        if !profile_mode {
            out.print();
        }
        eprintln!("[{t} done in {secs:.1}s]\n");
        doc.insert(t.to_string(), out.json());
        if !profile_mode {
            println!();
        }
    }
    if computed.len() > 1 {
        eprintln!(
            "[{} targets in {wall:.1}s wall-clock on {} pool thread(s)]",
            computed.len(),
            rayon::current_num_threads()
        );
    }

    if let Some(path) = json_path {
        let mut f = std::fs::File::create(&path).expect("create json output");
        serde_json::to_writer_pretty(&mut f, &Value::Object(doc)).expect("write json");
        writeln!(f).ok();
        eprintln!("wrote {path}");
    }

    if profile_mode {
        let per_thread = resex_obs::profiler::drain();
        let timings: Vec<(String, f64)> = computed
            .iter()
            .map(|(t, _, secs)| (t.to_string(), *secs))
            .collect();
        let report = build_report(
            &target,
            mode,
            Provenance::capture(args.clone()),
            &per_thread,
            wall,
            &timings,
        );
        report.print();
        if let Some(path) = profile_json_path {
            let mut f = std::fs::File::create(&path).expect("create profile json output");
            serde_json::to_writer_pretty(&mut f, &report).expect("write profile json");
            writeln!(f).ok();
            eprintln!("wrote {path}");
        }
        if let Some(path) = flame_path {
            std::fs::write(&path, merged_profile(&per_thread).collapsed())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }

    if trace_path.is_some() || metrics_path.is_some() {
        observed_representative(&scale, trace_path.as_deref(), metrics_path.as_deref());
    }
}
