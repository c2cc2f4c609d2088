//! One module per figure of the paper's evaluation.
//!
//! Each `figN::run(&Scale)` executes the simulations behind the
//! corresponding figure and returns a printable + JSON-serializable result
//! whose rows/series mirror the figure's axes. The `repro` binary in
//! `resex-bench` drives them.
//!
//! Every figure has one run path: it lists its scenario variants, hands
//! them to [`Scale::run`], and summarizes the results. `Scale::run` is the
//! only place that stamps a scenario with the span, warmup, fault rates
//! and adversary spec, and the only place that fans scenarios out on the
//! pool. (The `rack` target is the exception: it drives its own sharded
//! runner.)
//!
//! | module | paper figure | shows |
//! |---|---|---|
//! | [`fig1`] | Figure 1 | latency histogram, normal vs interfered server |
//! | [`fig2`] | Figure 2 | CTime/WTime/PTime vs #servers, ± load |
//! | [`fig3`] | Figure 3 | latency vs buffer ratio with cap = 100/BR |
//! | [`fig4`] | Figure 4 | latency vs interferer CPU cap sweep |
//! | [`fig5`] | Figure 5 | FreeMarket latency + cap timeline |
//! | [`fig6`] | Figure 6 | Reso depletion and rated capping |
//! | [`fig7`] | Figure 7 | IOShares latency + cap timeline |
//! | [`fig8`] | Figure 8 | no-interference back-off cases |
//! | [`fig9`] | Figure 9 | policies vs interferer buffer size |
//! | [`ablation`] | (extensions) | design-choice sensitivity sweeps |
//! | [`hw_qos`] | (extensions) | hardware QoS levers vs ResEx |
//! | [`scaling`] | (extensions) | consolidation depth: N reporters + streamer |
//! | [`rack`] | (extensions) | rack-scale sharded run over the two-tier topology |

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hw_qos;
pub mod rack;
pub mod scaling;

use crate::metrics::RunMetrics;
use crate::scenario::ScenarioConfig;
use crate::world::{run_scenario_observed, ObservedRun};
use rayon::prelude::*;
use resex_adversary::AdversarySpec;
use resex_faults::{FaultSchedule, FaultSpec};
use resex_simcore::time::SimDuration;
use serde::Serialize;

/// How long to simulate. The paper's runs span 100 s of wall time (10⁵
/// 1 ms iterations); the default reproduces the same dynamics over shorter
/// spans to keep the full suite snappy.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Duration of steady-state comparison runs.
    pub duration: SimDuration,
    /// Duration of timeline runs (Figures 5–7).
    pub timeline: SimDuration,
    /// Warmup excluded from summaries.
    pub warmup: SimDuration,
    /// Fault rates applied to every scenario of the experiment (all-zero =
    /// no fault plane installed; the default).
    pub faults: FaultSpec,
    /// Antagonist plane applied to every scenario of the experiment
    /// (class `off` = no plane installed; the default).
    pub adversary: AdversarySpec,
    /// Hosts in the `rack` target's sharded rack (quick = 128, full =
    /// 256; ignored by the single-pair figures).
    pub rack_hosts: u32,
}

impl Scale {
    /// Fast smoke-scale (CI-friendly).
    pub fn quick() -> Self {
        Scale {
            duration: SimDuration::from_secs(2),
            timeline: SimDuration::from_secs(4),
            warmup: SimDuration::from_millis(200),
            faults: FaultSpec::default(),
            adversary: AdversarySpec::default(),
            rack_hosts: 128,
        }
    }

    /// Paper-shaped scale (a few minutes for the whole suite).
    pub fn full() -> Self {
        Scale {
            duration: SimDuration::from_secs(6),
            timeline: SimDuration::from_secs(20),
            warmup: SimDuration::from_millis(500),
            faults: FaultSpec::default(),
            adversary: AdversarySpec::default(),
            rack_hosts: 256,
        }
    }

    /// Runs a figure's scenarios on the pool and returns their results in
    /// input order. Each case pairs a span (`self.duration` for steady
    /// comparisons, `self.timeline` for the timeline runs of Figures 5–7)
    /// with a scenario carrying the figure's per-case edits. Only then is
    /// the scenario stamped: the span, this scale's warmup, its fault
    /// rates, and its adversary spec. A scenario the spec cannot apply to
    /// (e.g. the single-VM base case, which serves as the attacker-free
    /// reference) is left clean.
    pub fn run(
        &self,
        cases: impl IntoIterator<Item = (SimDuration, ScenarioConfig)>,
    ) -> Vec<(RunMetrics, ObservedRun)> {
        let cases: Vec<_> = cases.into_iter().collect();
        cases
            .into_par_iter()
            .map(|(span, mut cfg)| {
                cfg.duration = span;
                cfg.warmup = self.warmup;
                if self.faults.enabled() {
                    cfg.faults = FaultSchedule::from(self.faults);
                }
                if self.adversary.enabled() && self.adversary.validate_for(cfg.vms.len()).is_ok() {
                    cfg.adversary = self.adversary.clone();
                }
                run_scenario_observed(cfg)
            })
            .collect()
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::quick()
    }
}

/// Mean latency components of a named VM: `(ptime, ctime, wtime, total)` µs.
pub fn components(run: &RunMetrics, vm: &str) -> (f64, f64, f64, f64) {
    let s = run.vm(vm).map(|v| v.summary()).unwrap_or_default();
    (
        s.ptime.mean(),
        s.ctime.mean(),
        s.wtime.mean(),
        s.total.mean(),
    )
}

/// Mean/std of a named VM's total latency, µs.
pub fn mean_std(run: &RunMetrics, vm: &str) -> (f64, f64) {
    let s = run.vm(vm).map(|v| v.summary()).unwrap_or_default();
    (s.total.mean(), s.total.population_std_dev())
}

/// 99th-percentile latency of a named VM, µs (0 if the VM is absent).
pub fn p99_us(run: &RunMetrics, vm: &str) -> f64 {
    run.vm(vm)
        .map(|v| v.histogram.quantile(0.99) as f64 / 1000.0)
        .unwrap_or(0.0)
}

/// SLO-violation percentage of a named VM over the whole run (0 when the
/// VM has no SLO monitor or checked nothing).
pub fn slo_violation_pct(run: &RunMetrics, vm: &str) -> f64 {
    run.vm(vm)
        .and_then(|v| v.slo_stats())
        .map(|(checked, violations)| {
            if checked == 0 {
                0.0
            } else {
                100.0 * violations as f64 / checked as f64
            }
        })
        .unwrap_or(0.0)
}

/// A labelled `(x, y)` series for JSON output.
#[derive(Clone, Debug, Serialize)]
pub struct Series {
    /// Series label (legend entry).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from a time-series trace, x in seconds.
    pub fn from_trace(
        label: impl Into<String>,
        trace: &resex_simcore::TimeSeries,
        window: SimDuration,
    ) -> Series {
        Series {
            label: label.into(),
            points: trace
                .downsample_mean(window)
                .into_iter()
                .map(|(t, v)| (t.as_secs_f64(), v))
                .collect(),
        }
    }
}

/// Renders a compact sparkline of a series for terminal output.
pub fn sparkline(points: &[(f64, f64)], width: usize) -> String {
    if points.is_empty() {
        return String::from("(no data)");
    }
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = points.iter().map(|&(_, y)| y).fold(f64::INFINITY, f64::min);
    let hi = points
        .iter()
        .map(|&(_, y)| y)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    let step = (points.len().max(1) as f64 / width as f64).max(1.0);
    let mut out = String::new();
    let mut i = 0.0;
    while (i as usize) < points.len() && out.chars().count() < width {
        let y = points[i as usize].1;
        let g = (((y - lo) / span) * (GLYPHS.len() - 1) as f64).round() as usize;
        out.push(GLYPHS[g.min(GLYPHS.len() - 1)]);
        i += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AdversaryTotals;
    use crate::scenario::VmSpec;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().duration < Scale::full().duration);
        assert!(Scale::quick().warmup < Scale::quick().duration);
    }

    #[test]
    fn run_keeps_input_order_and_stamps_after_per_case_edits() {
        let mut scale = Scale::quick();
        scale.duration = SimDuration::from_millis(100);
        scale.timeline = SimDuration::from_millis(150);
        scale.warmup = SimDuration::from_millis(20);
        scale.adversary = AdversarySpec::parse("class=burst,seed=3").unwrap();
        // The base case grown to fit the spec's attacker (VM 1).
        let mut grown = ScenarioConfig::base_case(64 * 1024);
        grown.label = "grown".into();
        grown.vms.push(VmSpec::server("2MB", 2 * 1024 * 1024));
        let runs: Vec<RunMetrics> = scale
            .run([
                (scale.timeline, grown),
                (scale.duration, ScenarioConfig::interfered(128 * 1024)),
                (scale.duration, ScenarioConfig::base_case(64 * 1024)),
            ])
            .into_iter()
            .map(|(run, _)| run)
            .collect();
        let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["grown", "interfered-128KB", "base-64KB"]);
        let spans: Vec<SimDuration> = runs.iter().map(|r| r.duration).collect();
        assert_eq!(spans, [scale.timeline, scale.duration, scale.duration]);
        assert!(runs.iter().all(|r| r.warmup == scale.warmup));
        assert!(runs[0].adversary.bursts > 0, "the grown case is attacked");
        assert_eq!(
            runs[2].adversary,
            AdversaryTotals::default(),
            "the base case stays attacker-free"
        );
    }

    #[test]
    fn sparkline_renders() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, (i % 10) as f64)).collect();
        let s = sparkline(&pts, 20);
        assert_eq!(s.chars().count(), 20);
        assert_eq!(sparkline(&[], 10), "(no data)");
        // A flat series renders without NaN panics.
        let flat = vec![(0.0, 5.0), (1.0, 5.0)];
        assert_eq!(sparkline(&flat, 2).chars().count(), 2);
    }
}
