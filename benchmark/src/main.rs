//! `resex-benchmark` — the repository benchmark. Run it through
//! `benchmark/run.sh`, which builds it first; see benchmark/README.md.
//!
//! ```text
//! run.sh --workload W --seed S --seconds T --trace 0|1   one run of one workload
//! run.sh --seed S [--seconds T] [--out FILE]             every workload, traced
//! run.sh calibrate                                      set bounds in BENCHMARK.json
//! run.sh compare A.json B.json                           compare two result files
//!                                                          (exit 1 if any metric is worse)
//! ```
//!
//! A single run prints `workload metric value unit` lines and, last, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (or, with `--trace 1`, the per-layer metrics).
//! `rep`, `setup` and `fig9` are the child processes a run starts.

use resex_benchmark::rep;
use resex_benchmark::report::{self, BenchmarkDef, SuiteDoc};
use resex_benchmark::suite::{self, RunResult, RunSpec};
use resex_benchmark::workload::{Plan, Workload};
use serde_json::{Map, Value};
use std::process::exit;

/// Count allocations per thread so the traced pass can report
/// allocations per event and the scan driver its bytes per scan.
#[global_allocator]
static ALLOC: resex_obs::alloc::CountingAlloc = resex_obs::alloc::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: resex-benchmark --workload <contended|solo|faulted|rack> --seed N \
         --seconds T --trace 0|1 [--scale F]\n\
       resex-benchmark --seed N [--seconds T] [--scale F] [--out FILE]\n\
       resex-benchmark calibrate\n\
       resex-benchmark compare A.json B.json"
    );
    exit(2)
}

/// Parsed command line.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale: Option<f64>,
    out: Option<String>,
    traced: bool,
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => a.workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => a.seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => {
                a.seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                a.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--scale" => {
                a.scale = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--out" => a.out = Some(value()),
            "--traced" => a.traced = true,
            s if s.starts_with("--") => usage(),
            _ => a.positional.push(arg),
        }
    }
    a
}

fn load_def() -> BenchmarkDef {
    BenchmarkDef::load().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

fn print_lines(r: &RunResult) {
    let p = &r.provenance;
    println!(
        "# {} seed={} rev={} nproc={} threads_effective={} attempted={} failed={} digest={}",
        r.workload,
        r.seed,
        p.git_rev,
        p.nproc,
        p.threads_effective,
        r.attempted,
        r.failed,
        r.digest
    );
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("{} {} {} {}", r.workload, m.name, m.value, m.unit);
    }
}

fn main() {
    let a = parse_args();
    let plan = || {
        Plan::new(
            a.workload.unwrap_or_else(|| usage()),
            a.seed.unwrap_or_else(|| usage()),
            a.scale.unwrap_or(1.0),
        )
    };
    match a.positional.first().map(String::as_str) {
        // Child processes of a run.
        Some("rep") => {
            let out = rep::run(&plan(), a.traced);
            println!("{}", serde_json::to_string(&out).expect("serializable"));
        }
        Some("setup") => {
            let out = rep::setup(&plan());
            println!("{}", serde_json::to_string(&out).expect("serializable"));
        }
        Some("fig9") => print!("{}", rep::fig9_quick_json()),

        Some("calibrate") => match report::calibrate(&load_def()) {
            Ok(new) => {
                let mut text = serde_json::to_string_pretty(&new.doc).expect("serializable");
                text.push('\n');
                std::fs::write(report::BENCHMARK_JSON, text).unwrap_or_else(|e| {
                    eprintln!("cannot write {}: {e}", report::BENCHMARK_JSON);
                    exit(1)
                });
                for m in &new.end_to_end {
                    println!("bound {} {}", m.name, m.bound.unwrap_or_default());
                }
            }
            Err(e) => {
                eprintln!("calibrate: {e}");
                exit(1)
            }
        },
        Some("compare") => {
            let [_, pa, pb] = a.positional.as_slice() else {
                usage()
            };
            let read = |p: &str| -> SuiteDoc {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
                    .unwrap_or_else(|e| {
                        eprintln!("cannot read {p}: {e}");
                        exit(2)
                    })
            };
            if report::compare(&load_def(), &read(pa), &read(pb)) > 0 {
                exit(1);
            }
        }
        Some(_) => usage(),

        // One run of one workload: what `BENCHMARK.json` runs.
        None if a.workload.is_some() => {
            let (Some(seconds), Some(trace)) = (a.seconds, a.trace) else {
                usage()
            };
            let r = suite::run(&RunSpec {
                workload: a.workload.expect("checked"),
                seed: a.seed.unwrap_or_else(|| usage()),
                seconds,
                trace,
                scale: a.scale.unwrap_or(1.0),
            });
            print_lines(&r);
            let mut metrics = Map::new();
            for m in if trace { &r.per_layer } else { &r.end_to_end } {
                let mut v = Map::new();
                v.insert("value".into(), Value::F64(m.value));
                v.insert("unit".into(), Value::String(m.unit.clone()));
                metrics.insert(m.name.clone(), Value::Object(v));
            }
            let mut doc = Map::new();
            doc.insert("correct".into(), Value::Bool(r.correct));
            doc.insert("attempted".into(), Value::U64(r.attempted));
            doc.insert("failed".into(), Value::U64(r.failed));
            doc.insert("metrics".into(), Value::Object(metrics));
            println!(
                "{}",
                serde_json::to_string(&Value::Object(doc)).expect("serializable")
            );
            if !r.correct {
                exit(1);
            }
        }

        // Every workload, traced: the one-command suite.
        None => {
            let seed = a.seed.unwrap_or_else(|| usage());
            let seconds = a.seconds.unwrap_or_else(|| load_def().run_seconds);
            let doc = SuiteDoc {
                seed,
                results: Workload::ALL
                    .into_iter()
                    .map(|workload| {
                        let r = suite::run(&RunSpec {
                            workload,
                            seed,
                            seconds,
                            trace: true,
                            scale: a.scale.unwrap_or(1.0),
                        });
                        print_lines(&r);
                        r
                    })
                    .collect(),
            };
            if let Some(path) = &a.out {
                let mut text = serde_json::to_string_pretty(&doc).expect("serializable");
                text.push('\n');
                std::fs::write(path, text).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1)
                });
            }
            if doc.results.iter().any(|r| !r.correct) {
                eprintln!("correctness checks failed");
                exit(1);
            }
        }
    }
}
