//! Reading `BENCHMARK.json`, comparing two result files, and calibrating
//! the end-to-end bounds.

use crate::stats::{mad, median, quartiles, rel_spread};
use crate::suite::{self, RunResult, RunSpec};
use crate::workload::Workload;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// The benchmark definition file, at the repository root.
pub const BENCHMARK_JSON: &str = "BENCHMARK.json";
/// Threshold `compare` applies to per-layer metrics, which carry no bound.
const LAYER_THRESHOLD: f64 = 0.10;
/// Calibration never sets an end-to-end bound below this.
const MIN_BOUND: f64 = 0.05;
/// Nor a bound on a metric timed on the host below this: the host's speed
/// moves in phases that the probe only partly cancels, and calibrations
/// run at different times saw 10-run spreads of up to 4.4 % (README.md).
const HOST_TIME_FLOOR: f64 = 0.135;
/// The end-to-end metrics timed on the host.
const HOST_TIME: [&str; 2] = ["wall_s", "sim_req_per_s"];
/// Calibration refuses a bound above this, the most a bound may be.
const MAX_BOUND: f64 = 0.25;
/// `setup_s` is exempt from the spread check and gets the largest bound
/// allowed.
const SETUP_BOUND: f64 = MAX_BOUND;

/// One metric definition from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this crate reads.
#[derive(Clone, Debug)]
pub struct BenchmarkDef {
    /// The whole document, for rewriting.
    pub doc: Value,
    /// `run_seconds`.
    pub run_seconds: f64,
    /// End-to-end metric definitions.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metric definitions.
    pub per_layer: Vec<MetricDef>,
}

impl BenchmarkDef {
    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            let list = doc
                .get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("`{key}` must be a list"))?;
            list.iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: m
                            .get("name")
                            .and_then(Value::as_str)
                            .ok_or("metric without a name")?
                            .to_string(),
                        lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchmarkDef {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("`run_seconds` must be a number")?,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
            doc,
        })
    }

    /// Reads `BENCHMARK.json` from the current directory.
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(BENCHMARK_JSON)
            .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
        Self::parse(&text)
    }
}

/// A result file: every workload of one `--seed` run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SuiteDoc {
    /// The input seed.
    pub seed: u64,
    /// One result per workload.
    pub results: Vec<RunResult>,
}

/// What `compare` concluded about one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// The spread exceeds the bound, so the medians cannot be told apart.
    Unresolved,
}

/// Verdict for samples `a` (parent) and `b` (change) of one metric. A
/// metric whose spread exceeds its bound is unresolved unless every run
/// of B beats every run of A.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    // Orient so that smaller is better.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let a: Vec<f64> = a.iter().map(|x| x * sign).collect();
    let b: Vec<f64> = b.iter().map(|x| x * sign).collect();
    let max_b = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min_a = a.iter().copied().fold(f64::INFINITY, f64::min);
    if max_b < min_a {
        return Verdict::Better;
    }
    let spread = |xs: &[f64]| {
        if xs.len() > 1 {
            rel_spread(xs).abs()
        } else {
            0.0
        }
    };
    if spread(&a).max(spread(&b)) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(&a), median(&b));
    let change = (mb - ma) / ma.abs();
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn fmt_quartiles(xs: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(xs);
    format!("{q2:.4} [{q1:.4}, {q3:.4}]")
}

/// Prints one row per (workload, metric): each side's median and
/// quartiles, the bound, and the verdict. Returns the number of metrics
/// found worse.
pub fn compare(def: &BenchmarkDef, a: &SuiteDoc, b: &SuiteDoc) -> usize {
    let mut worse = 0;
    println!("workload metric A-median [q1, q3] B-median [q1, q3] bound verdict");
    for ra in &a.results {
        let Some(rb) = b.results.iter().find(|r| r.workload == ra.workload) else {
            continue;
        };
        let rows = def.end_to_end.iter().filter_map(|m| {
            let (sa, sb) = (ra.samples.get(&m.name)?, rb.samples.get(&m.name)?);
            Some((m, sa.clone(), sb.clone(), m.bound.unwrap_or(MIN_BOUND)))
        });
        let layers = def.per_layer.iter().filter_map(|m| {
            let find = |r: &RunResult| {
                r.per_layer
                    .iter()
                    .find(|x| x.name == m.name)
                    .map(|x| x.value)
            };
            Some((m, vec![find(ra)?], vec![find(rb)?], LAYER_THRESHOLD))
        });
        for (m, sa, sb, bound) in rows.chain(layers) {
            let v = verdict(&sa, &sb, bound, m.lower_is_better);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{} {} {} {} {bound} {v:?}",
                ra.workload,
                m.name,
                fmt_quartiles(&sa),
                fmt_quartiles(&sb)
            );
        }
    }
    worse
}

/// Runs every workload 10 times (seeds 1–10, untraced, `run_seconds`
/// each, as the benchmark's own runs), prints
/// each end-to-end metric's spread, and returns `def` with bounds set to
/// max(floor, 3 × IQR/median, 3 × MAD/median) over the workloads, where
/// the floor is `HOST_TIME_FLOOR` for host-timed metrics and `MIN_BOUND`
/// otherwise. `setup_s` gets `SETUP_BOUND`. Fails when a bound would
/// exceed `MAX_BOUND`.
pub fn calibrate(def: &BenchmarkDef) -> Result<BenchmarkDef, String> {
    let mut bounds: Vec<f64> = def
        .end_to_end
        .iter()
        .map(|m| {
            if HOST_TIME.contains(&m.name.as_str()) {
                HOST_TIME_FLOOR
            } else {
                MIN_BOUND
            }
        })
        .collect();
    for w in Workload::ALL {
        let results: Vec<RunResult> = (1..=10)
            .map(|seed| {
                suite::run(&RunSpec {
                    workload: w,
                    seed,
                    seconds: def.run_seconds,
                    trace: false,
                    scale: 1.0,
                })
            })
            .collect();
        if let Some(bad) = results.iter().find(|r| !r.correct) {
            return Err(format!("{} seed {} failed its checks", w.name(), bad.seed));
        }
        for (i, m) in def.end_to_end.iter().enumerate() {
            let xs: Vec<f64> = results
                .iter()
                .filter_map(|r| r.end_to_end.iter().find(|x| x.name == m.name))
                .map(|x| x.value)
                .collect();
            let (spread, rel_mad) = (rel_spread(&xs), mad(&xs) / median(&xs));
            println!(
                "{} {} median={:.6} spread={spread:.4} rel_mad={rel_mad:.4}",
                w.name(),
                m.name,
                median(&xs)
            );
            bounds[i] = bounds[i].max(3.0 * spread).max(3.0 * rel_mad);
        }
    }
    let mut out = def.clone();
    let mut too_wide = Vec::new();
    for (i, (m, bound)) in out.end_to_end.iter_mut().zip(bounds).enumerate() {
        // Two decimals of a percent, rounded up.
        let bound = if m.name == "setup_s" {
            SETUP_BOUND
        } else {
            (bound * 1e4).ceil() / 1e4
        };
        if m.name != "setup_s" && bound > MAX_BOUND {
            too_wide.push(format!("{} needs {bound}", m.name));
        }
        m.bound = Some(bound);
        if let Value::Array(list) = &mut out.doc["end_to_end"] {
            list[i]["bound"] = Value::F64(bound);
        }
    }
    if too_wide.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "bounds above {MAX_BOUND}: {}; lengthen the reps",
            too_wide.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Clearly slower, tight spread.
        assert_eq!(verdict(&a, &[12.0, 12.1, 11.9], 0.05, true), Verdict::Worse);
        // Same distribution.
        assert_eq!(
            verdict(&a, &[10.02, 9.98, 10.0], 0.05, true),
            Verdict::Unchanged
        );
        // Higher-is-better flips the reading.
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9], 0.05, false),
            Verdict::Better
        );
        // Wide spread: unresolved unless B beats every A.
        let wide = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(verdict(&wide, &[21.0, 22.0], 0.05, false), Verdict::Better);
        assert_eq!(
            verdict(&wide, &[12.0, 13.0], 0.05, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn parses_the_committed_definition() {
        let text = std::fs::read_to_string(format!("../{BENCHMARK_JSON}")).unwrap();
        let def = BenchmarkDef::parse(&text).unwrap();
        assert!(def.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &def.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= SETUP_BOUND, "{}", m.name);
        }
        assert!(def.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
