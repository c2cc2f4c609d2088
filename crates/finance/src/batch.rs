//! Transaction-level pricing workloads.
//!
//! BenchEx requests carry a [`PricingTask`]: a batch of options to value,
//! optionally with Greeks, an implied-vol solve or a binomial repricing.
//! [`PricingTask::work_estimate`] is the deterministic *work estimate* the
//! simulator charges as compute time (so heavier transactions occupy the
//! VCPU longer, exactly like the paper's configurable per-request
//! processing times). [`PricingTask::execute`] does the real math and
//! reports the same work units; no simulated path runs it, and the
//! benchmark times it as its `finance.task_ns` layer.

use crate::binomial::{crr_price, Exercise};
use crate::black_scholes::{OptionKind, OptionSpec};
use crate::implied::implied_vol;
use serde::{Deserialize, Serialize};

/// What a transaction asks the engine to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Closed-form prices only.
    Quote,
    /// Prices plus full Greeks (risk check).
    Risk,
    /// Binomial repricing with the given lattice depth (heavy).
    Reprice {
        /// Lattice steps.
        steps: u32,
    },
    /// Implied-vol backsolve from the quoted price.
    ImpliedVol,
}

/// One unit of exchange work: value `n_options` option positions.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PricingTask {
    /// Operation requested.
    pub kind: TaskKind,
    /// Number of option positions in the transaction.
    pub n_options: u32,
    /// Seed perturbing the option terms, so batches differ.
    pub seed: u64,
}

/// Result of executing a task.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TaskResult {
    /// Sum of computed values (checksum-style output).
    pub value_sum: f64,
    /// Abstract work units consumed (drives simulated CPU time).
    pub work_units: u64,
}

/// Work units for one closed-form evaluation.
const UNIT_QUOTE: u64 = 1;
/// Work units for a Greeks evaluation.
const UNIT_RISK: u64 = 3;
/// Work units per binomial lattice node (n² scaling).
const UNIT_LATTICE_NODE: u64 = 1;
/// Work units for an implied-vol solve (≈ Newton iterations × quote).
const UNIT_IMPLIED: u64 = 12;

impl PricingTask {
    /// Deterministically generates the i-th option of the batch.
    fn option(&self, i: u32) -> OptionSpec {
        // Small multiplicative hash for parameter variety.
        let h = (self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let pick = |shift: u32, range: f64, base: f64| {
            base + ((h >> shift) & 0xFFFF) as f64 / 65535.0 * range
        };
        OptionSpec {
            kind: if h & 1 == 0 {
                OptionKind::Call
            } else {
                OptionKind::Put
            },
            spot: 100.0,
            strike: pick(8, 60.0, 70.0), // 70–130
            rate: pick(24, 0.06, 0.01),  // 1–7%
            sigma: pick(40, 0.55, 0.10), // 10–65%
            expiry: pick(16, 1.9, 0.1),  // 0.1–2 years
        }
    }

    /// Executes the task: real pricing math on every option.
    pub fn execute(&self) -> TaskResult {
        let mut sum = 0.0;
        let mut work = 0u64;
        for i in 0..self.n_options {
            let spec = self.option(i);
            match self.kind {
                TaskKind::Quote => {
                    sum += spec.price();
                    work += UNIT_QUOTE;
                }
                TaskKind::Risk => {
                    let g = spec.greeks();
                    sum += spec.price() + g.delta + g.vega * 1e-2;
                    work += UNIT_RISK;
                }
                TaskKind::Reprice { steps } => {
                    sum += crr_price(&spec, steps, Exercise::American);
                    work += UNIT_LATTICE_NODE * (steps as u64 * steps as u64) / 2;
                }
                TaskKind::ImpliedVol => {
                    let price = spec.price();
                    sum += implied_vol(&spec, price).unwrap_or(spec.sigma);
                    work += UNIT_IMPLIED;
                }
            }
        }
        TaskResult {
            value_sum: sum,
            work_units: work.max(1),
        }
    }

    /// The task's work estimate without executing it (used by open-loop
    /// workload generators to budget offered load).
    pub fn work_estimate(&self) -> u64 {
        let per = match self.kind {
            TaskKind::Quote => UNIT_QUOTE,
            TaskKind::Risk => UNIT_RISK,
            TaskKind::Reprice { steps } => UNIT_LATTICE_NODE * (steps as u64 * steps as u64) / 2,
            TaskKind::ImpliedVol => UNIT_IMPLIED,
        };
        (per * self.n_options as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_is_deterministic() {
        let t = PricingTask {
            kind: TaskKind::Risk,
            n_options: 50,
            seed: 7,
        };
        let a = t.execute();
        let b = t.execute();
        assert_eq!(a, b);
        assert!(a.value_sum.is_finite());
    }

    #[test]
    fn different_seeds_differ() {
        let a = PricingTask {
            kind: TaskKind::Quote,
            n_options: 10,
            seed: 1,
        }
        .execute();
        let b = PricingTask {
            kind: TaskKind::Quote,
            n_options: 10,
            seed: 2,
        }
        .execute();
        assert_ne!(a.value_sum, b.value_sum);
    }

    #[test]
    fn work_scales_with_batch_size() {
        let small = PricingTask {
            kind: TaskKind::Quote,
            n_options: 10,
            seed: 0,
        };
        let large = PricingTask {
            kind: TaskKind::Quote,
            n_options: 100,
            seed: 0,
        };
        assert_eq!(large.execute().work_units, 10 * small.execute().work_units);
    }

    #[test]
    fn reprice_is_heavier_than_quote() {
        let quote = PricingTask {
            kind: TaskKind::Quote,
            n_options: 10,
            seed: 0,
        };
        let heavy = PricingTask {
            kind: TaskKind::Reprice { steps: 64 },
            n_options: 10,
            seed: 0,
        };
        assert!(heavy.execute().work_units > 100 * quote.execute().work_units);
    }

    #[test]
    fn estimate_matches_execution() {
        for kind in [
            TaskKind::Quote,
            TaskKind::Risk,
            TaskKind::Reprice { steps: 32 },
            TaskKind::ImpliedVol,
        ] {
            let t = PricingTask {
                kind,
                n_options: 17,
                seed: 3,
            };
            assert_eq!(t.work_estimate(), t.execute().work_units);
        }
    }

    #[test]
    fn generated_options_are_valid() {
        let t = PricingTask {
            kind: TaskKind::Quote,
            n_options: 200,
            seed: 99,
        };
        for i in 0..t.n_options {
            t.option(i).validate().unwrap();
        }
    }

    #[test]
    fn implied_vol_task_runs() {
        let t = PricingTask {
            kind: TaskKind::ImpliedVol,
            n_options: 5,
            seed: 11,
        };
        let r = t.execute();
        // Implied vols land in the generator's sigma range.
        assert!(r.value_sum > 0.0 && r.value_sum < 5.0 * 0.7);
    }
}
