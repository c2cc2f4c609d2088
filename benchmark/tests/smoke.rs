//! A 1/50-size run of every workload through the real command line: each
//! emits every metric `BENCHMARK.json` names with a finite value, passes
//! every correctness check, and reports the managed-only layers as 0
//! where no IBMon or manager runs.

use resex_benchmark::report::BenchmarkDef;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Runs one small traced run; returns every `workload metric value unit`
/// line as name → value, and the final JSON line.
fn run(workload: &str) -> (BTreeMap<String, f64>, serde_json::Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_resex-benchmark"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.1"])
        .args(["--trace", "1", "--scale", "0.02"])
        .current_dir(root())
        .output()
        .expect("benchmark runs");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{text}");
    let mut metrics = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with(workload)) {
        let f: Vec<&str> = line.split(' ').collect();
        assert_eq!(f.len(), 4, "`workload metric value unit`: {line}");
        metrics.insert(
            f[1].to_string(),
            f[2].parse::<f64>().expect("numeric value"),
        );
    }
    let last = text.lines().last().expect("a result line");
    (metrics, serde_json::from_str(last).expect("JSON result"))
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let def = BenchmarkDef::parse(
        &std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("valid definition");
    for w in ["contended", "solo", "faulted", "rack"] {
        let (metrics, result) = run(w);
        assert_eq!(result["correct"].as_bool(), Some(true), "{w}");
        assert_eq!(
            result["failed"].as_u64(),
            Some(0),
            "{w}: fail_frac must be 0"
        );
        assert!(result["attempted"].as_u64().unwrap_or(0) > 0);
        let json_names: Vec<&String> = result["metrics"]
            .as_object()
            .expect("metrics object")
            .keys()
            .collect();
        assert_eq!(
            json_names.len(),
            def.per_layer.len(),
            "{w}: traced JSON holds the per-layer set"
        );
        for m in def.end_to_end.iter().chain(&def.per_layer) {
            let v = metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("{w} lacks {}", m.name));
            assert!(v.is_finite(), "{w} {} = {v}", m.name);
        }
        for m in ["wall_s", "sim_req_per_s", "setup_s", "peak_rss_mb"] {
            assert!(metrics[m] > 0.0, "{w} {m} must never be 0");
        }
        let managed_only = metrics
            .iter()
            .filter(|(k, _)| k.starts_with("ibmon.") || k.starts_with("core."));
        for (k, v) in managed_only {
            if w == "solo" || w == "rack" {
                assert_eq!(*v, 0.0, "{w} runs no IBMon or manager, yet {k} = {v}");
            } else if k != "ibmon.est_err_pct" {
                assert!(*v > 0.0, "{w} {k} = {v}");
            }
        }
    }
}
