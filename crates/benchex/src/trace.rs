//! Exchange workload traces.
//!
//! The paper's BenchEx "includes traces which model the I/O and processing
//! workloads present in an exchange like ICE". Real ICE traces are
//! proprietary, so [`TraceGen`] synthesizes transaction mixes with the
//! load-shape features that matter to the experiments: a configurable blend
//! of light quotes, medium risk checks, implied-vol solves and heavy
//! repricings, plus optional burst regimes (markets alternate calm and
//! frantic periods). Traces are generated, never recorded: a profile and a
//! seed reproduce the same transaction sequence.

use resex_finance::{PricingTask, TaskKind};
use resex_simcore::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Relative weights of the transaction mix.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TaskMix {
    /// Weight of plain quotes (light).
    pub quote: u32,
    /// Weight of risk checks (medium).
    pub risk: u32,
    /// Weight of binomial repricings (heavy).
    pub reprice: u32,
    /// Weight of implied-vol solves (medium-heavy).
    pub implied: u32,
}

impl Default for TaskMix {
    fn default() -> Self {
        // Quote-dominated, like real exchange order flow.
        TaskMix {
            quote: 90,
            risk: 7,
            reprice: 1,
            implied: 2,
        }
    }
}

/// Burst behaviour of the trace.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum Burstiness {
    /// Uniform mix throughout.
    Steady,
    /// Alternate calm and bursty regimes; during a burst, batch sizes are
    /// multiplied (heavier transactions, more I/O per response).
    Bursty {
        /// Transactions per regime.
        regime_len: u32,
        /// Batch-size multiplier during bursts.
        burst_factor: u32,
    },
    /// Adversarial telemetry-poisoning shape: each cycle emits a few huge
    /// batches and then chases them with a long run of minimal ones. Timed
    /// against a ring-scan monitor, the tiny completions wrap the large
    /// CQEs off the ring between scans, so the per-slot size average the
    /// scanner extrapolates from is biased far low.
    Cycle {
        /// Huge transactions at the head of each cycle.
        big_len: u32,
        /// Batch-size multiplier for the huge transactions.
        big_factor: u32,
        /// Minimal (batch-1) transactions chasing them.
        tiny_len: u32,
    },
}

/// Trace configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Transaction mix weights.
    pub mix: TaskMix,
    /// Base options per transaction.
    pub base_batch: u32,
    /// Lattice depth for repricing transactions.
    pub reprice_steps: u32,
    /// Burst structure.
    pub burstiness: Burstiness,
}

impl Default for TraceProfile {
    fn default() -> Self {
        TraceProfile {
            mix: TaskMix::default(),
            // 8 quote units ≈ 100 µs of CPU with the default server config.
            base_batch: 8,
            reprice_steps: 24,
            burstiness: Burstiness::Steady,
        }
    }
}

impl TraceProfile {
    /// A uniform profile where *every* transaction is a quote batch of the
    /// given size — the fixed-cost workload the paper's latency figures use.
    pub fn uniform_quotes(batch: u32) -> Self {
        TraceProfile {
            mix: TaskMix {
                quote: 1,
                risk: 0,
                reprice: 0,
                implied: 0,
            },
            base_batch: batch,
            reprice_steps: 0,
            burstiness: Burstiness::Steady,
        }
    }

    /// An attacker's amplified quote flood: `uniform_quotes` with the batch
    /// scaled by `amplification` (≥ 1; rounded, floored at 1). Burst- and
    /// free-ride-class adversaries push this much more traffic than the
    /// honest interferer they masquerade as.
    pub fn amplified_quotes(batch: u32, amplification: f64) -> Self {
        let amp = amplification.max(1.0);
        TraceProfile::uniform_quotes(((batch as f64 * amp).round() as u32).max(1))
    }

    /// A telemetry-poisoning trace: cycles of `big` huge quote batches
    /// (each `big_factor` × the base) chased by `repaint` minimal ones —
    /// see [`Burstiness::Cycle`].
    pub fn poison_cycle(batch: u32, big: u32, big_factor: u32, repaint: u32) -> Self {
        TraceProfile {
            burstiness: Burstiness::Cycle {
                big_len: big.max(1),
                big_factor: big_factor.max(1),
                tiny_len: repaint.max(1),
            },
            ..TraceProfile::uniform_quotes(batch)
        }
    }
}

/// Deterministic transaction generator.
pub struct TraceGen {
    profile: TraceProfile,
    rng: SimRng,
    emitted: u64,
}

impl TraceGen {
    /// Creates a generator with the given profile and seed.
    pub fn new(profile: TraceProfile, seed: u64) -> Self {
        TraceGen {
            profile,
            rng: SimRng::seed_from_u64(seed),
            emitted: 0,
        }
    }

    /// The next transaction's pricing task.
    pub fn next_task(&mut self) -> PricingTask {
        let m = self.profile.mix;
        let total = (m.quote + m.risk + m.reprice + m.implied).max(1) as u64;
        let roll = self.rng.next_below(total) as u32;
        let kind = if roll < m.quote {
            TaskKind::Quote
        } else if roll < m.quote + m.risk {
            TaskKind::Risk
        } else if roll < m.quote + m.risk + m.reprice {
            TaskKind::Reprice {
                steps: self.profile.reprice_steps.max(1),
            }
        } else {
            TaskKind::ImpliedVol
        };
        let n_options = match self.profile.burstiness {
            Burstiness::Steady => self.profile.base_batch.max(1),
            Burstiness::Bursty {
                regime_len,
                burst_factor,
            } => {
                let regime = (self.emitted / regime_len.max(1) as u64) % 2;
                let mult = if regime == 1 { burst_factor.max(1) } else { 1 };
                (self.profile.base_batch * mult).max(1)
            }
            Burstiness::Cycle {
                big_len,
                big_factor,
                tiny_len,
            } => {
                let cycle = (big_len.max(1) + tiny_len.max(1)) as u64;
                if self.emitted % cycle < big_len.max(1) as u64 {
                    (self.profile.base_batch * big_factor.max(1)).max(1)
                } else {
                    1
                }
            }
        };
        let seed = self.rng.next_u64();
        self.emitted += 1;
        PricingTask {
            kind,
            n_options,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = TraceGen::new(TraceProfile::default(), 7);
        let mut b = TraceGen::new(TraceProfile::default(), 7);
        for _ in 0..100 {
            assert_eq!(a.next_task(), b.next_task());
        }
    }

    #[test]
    fn mix_roughly_matches_weights() {
        let mut g = TraceGen::new(TraceProfile::default(), 1);
        let n = 10_000;
        let mut quotes = 0;
        for _ in 0..n {
            if matches!(g.next_task().kind, TaskKind::Quote) {
                quotes += 1;
            }
        }
        let frac = quotes as f64 / n as f64;
        assert!((frac - 0.90).abs() < 0.02, "quote fraction {frac}");
    }

    #[test]
    fn uniform_quotes_is_constant_cost() {
        let mut g = TraceGen::new(TraceProfile::uniform_quotes(8), 3);
        for _ in 0..50 {
            let t = g.next_task();
            assert_eq!(t.kind, TaskKind::Quote);
            assert_eq!(t.n_options, 8);
            assert_eq!(t.work_estimate(), 8);
        }
    }

    #[test]
    fn bursts_alternate_batch_sizes() {
        let profile = TraceProfile {
            burstiness: Burstiness::Bursty {
                regime_len: 10,
                burst_factor: 4,
            },
            ..TraceProfile::uniform_quotes(8)
        };
        let mut g = TraceGen::new(profile, 5);
        let sizes: Vec<u32> = (0..30).map(|_| g.next_task().n_options).collect();
        assert!(sizes[..10].iter().all(|&s| s == 8), "calm regime");
        assert!(sizes[10..20].iter().all(|&s| s == 32), "burst regime");
        assert!(sizes[20..30].iter().all(|&s| s == 8), "calm again");
    }

    #[test]
    fn poison_cycle_repaints_after_big_batches() {
        let mut g = TraceGen::new(TraceProfile::poison_cycle(8, 2, 16, 5), 9);
        let sizes: Vec<u32> = (0..14).map(|_| g.next_task().n_options).collect();
        assert_eq!(&sizes[..2], &[128, 128], "big head");
        assert!(sizes[2..7].iter().all(|&s| s == 1), "tiny repaint tail");
        assert_eq!(&sizes[7..9], &[128, 128], "cycle repeats");
        assert!(sizes[9..14].iter().all(|&s| s == 1));
    }

    #[test]
    fn amplified_quotes_scales_the_batch() {
        let p = TraceProfile::amplified_quotes(8, 4.5);
        assert_eq!(p.base_batch, 36);
        // Sub-unit amplification never shrinks the honest batch.
        assert_eq!(TraceProfile::amplified_quotes(8, 0.5).base_batch, 8);
    }

    #[test]
    fn batch_is_never_zero() {
        let profile = TraceProfile {
            base_batch: 0,
            ..TraceProfile::default()
        };
        let mut g = TraceGen::new(profile, 1);
        assert!(g.next_task().n_options >= 1);
    }
}
