//! One rep: run a plan's inputs once and report what a benchmark needs —
//! host wall time, simulated work, a digest per simulation run, and (for
//! the traced pass) the event-loop profile.

use crate::probe::ScaledTimer;
use crate::workload::Plan;
use resex_obs::Profile;
use resex_platform::experiments::{fig9, Scale};
use resex_platform::{run_rack, PolicyKind, RackConfig, RunMetrics, World};
use resex_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The outcome of one simulation run (one scenario, or one rack host).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunCheck {
    /// Digest of everything the run reports (see [`digest`]); 0 after a panic.
    pub digest: u64,
    /// False when the run panicked, lost a request, or failed the
    /// journal conservation audit.
    pub sound: bool,
}

/// The profile numbers the per-layer metrics read, summed over every
/// simulation run of the traced rep.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Self nanoseconds per `;`-joined frame chain.
    pub self_ns: BTreeMap<String, u64>,
    /// Calls per frame chain.
    pub calls: BTreeMap<String, u64>,
    /// Heap allocations inside event dispatch.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Mean pending-event count of the calendar.
    pub calendar_mean: f64,
}

impl ProfileSummary {
    fn from_profile(p: &Profile) -> Self {
        let mut s = ProfileSummary {
            calendar_mean: p.calendar.mean_len(),
            ..Default::default()
        };
        for (chain, f) in &p.frames {
            s.self_ns.insert(chain.clone(), f.self_ns);
            s.calls.insert(chain.clone(), f.calls);
            s.allocs += f.allocs;
            s.alloc_bytes += f.alloc_bytes;
        }
        s
    }

    /// Total self time over every frame. `Profile::wall_ns` is not used:
    /// merged over parallel rack shards it counts each shard's whole
    /// lifetime, far more than the host time spent.
    fn busy_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// Percentage of busy time spent in the named frames' own code.
    pub fn share_pct(&self, chains: &[&str]) -> f64 {
        let part: u64 = chains.iter().filter_map(|c| self.self_ns.get(*c)).sum();
        100.0 * part as f64 / self.busy_ns().max(1) as f64
    }
}

/// What one rep produced.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RepOutcome {
    /// Host seconds from the first `World::build` to the last run's
    /// return, not counting the probe measurements in between.
    pub wall_s: f64,
    /// The same in seconds of the reference host: each run's time scaled
    /// by the probe measured around it (see [`crate::probe`]).
    pub scaled_wall_s: f64,
    /// Simulated requests served (Σ `VmMetrics::served`).
    pub served: u64,
    /// Simulated events processed.
    pub events: u64,
    /// One entry per simulation run, in plan order.
    pub runs: Vec<RunCheck>,
    /// Ground-truth and IBMon-estimated MTUs over the managed runs.
    pub true_mtus: u64,
    /// IBMon's estimate of the same.
    pub ibmon_mtus: u64,
    /// Requests served by managed runs, and their VM-milliseconds: the
    /// completions each monitored ring sees per 1 ms charging interval.
    pub managed_served: u64,
    /// Σ VMs × simulated ms over the managed runs.
    pub managed_vm_ms: u64,
    /// Client retries and QP reconnects (the recovery layer's work).
    pub retries: u64,
    /// QP reconnect cycles.
    pub reconnects: u64,
    /// Rack barrier stalls and windows, summed over shards.
    pub stalls: u64,
    /// Rack windows joined, summed over shards.
    pub windows: u64,
    /// The process's peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// Pool width the rep ran on.
    pub threads_effective: u64,
    /// Event-loop profile (traced reps only).
    pub profile: Option<ProfileSummary>,
}

impl RepOutcome {
    /// One digest over every run's digest, as 16 hex digits.
    pub fn digest(&self) -> String {
        let all: Vec<u64> = self.runs.iter().map(|r| r.digest).collect();
        format!("{:016x}", fnv1a(format!("{all:?}").as_bytes()))
    }

    fn absorb(&mut self, m: &RunMetrics, managed: bool) {
        let rec = m.recovery_totals();
        let sound = rec.lost_requests == 0 && m.crashes.journal_divergence == 0;
        self.runs.push(RunCheck {
            digest: digest(m),
            sound,
        });
        self.events += m.events_processed;
        self.retries += rec.retries;
        self.reconnects += rec.reconnects;
        let served: u64 = m.vms.iter().map(|v| v.served).sum();
        self.served += served;
        if managed {
            self.true_mtus += m.vms.iter().map(|v| v.true_mtus).sum::<u64>();
            self.ibmon_mtus += m.vms.iter().map(|v| v.ibmon_mtus).sum::<u64>();
            self.managed_served += served;
            self.managed_vm_ms += m.vms.len() as u64 * m.duration.as_nanos() / 1_000_000;
        }
    }

    fn panicked(&mut self) {
        self.runs.push(RunCheck {
            digest: 0,
            sound: false,
        });
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a run's simulated results: the summary rows, per-VM served
/// and MTU counters, and the recovery and crash totals. Event counts are
/// left out on purpose: batching may change them without changing any
/// result.
fn digest(m: &RunMetrics) -> u64 {
    let per_vm: Vec<(u64, u64, u64)> = m
        .vms
        .iter()
        .map(|v| (v.served, v.true_mtus, v.ibmon_mtus))
        .collect();
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}",
        m.rows(),
        per_vm,
        m.recovery_totals(),
        m.crashes
    );
    fnv1a(text.as_bytes())
}

/// Runs one rep of `plan`. With `traced`, every run profiles its event
/// loop (which slows it down; the results are unchanged).
pub fn run(plan: &Plan, traced: bool) -> RepOutcome {
    let mut timer = ScaledTimer::default();
    let mut out = RepOutcome {
        threads_effective: rayon::current_num_threads() as u64,
        ..Default::default()
    };
    let mut merged: Option<Profile> = None;
    let mut keep = |p: Option<Profile>| {
        if let Some(p) = p {
            match &mut merged {
                Some(m) => m.merge(&p),
                None => merged = Some(p),
            }
        }
    };
    match plan {
        Plan::Scenarios(cfgs) => {
            let mut cfgs = cfgs.clone();
            for c in &mut cfgs {
                c.obs.profile = traced;
            }
            let mut results = Vec::with_capacity(cfgs.len());
            for cfg in cfgs {
                let managed = cfg.policy != PolicyKind::None;
                let (r, secs, scaled) = timer
                    .time(|| catch_unwind(AssertUnwindSafe(|| World::build(cfg).run_observed())));
                out.wall_s += secs;
                out.scaled_wall_s += scaled;
                results.push((r, managed));
            }
            for (r, managed) in results {
                match r {
                    Ok((m, observed)) => {
                        out.absorb(&m, managed);
                        keep(observed.profile);
                    }
                    Err(_) => out.panicked(),
                }
            }
        }
        Plan::Racks(racks) => {
            for rc in racks {
                let rc = RackConfig {
                    profile: traced,
                    ..rc.clone()
                };
                let (r, secs, scaled) =
                    timer.time(|| catch_unwind(AssertUnwindSafe(|| run_rack(&rc))));
                out.wall_s += secs;
                out.scaled_wall_s += scaled;
                match r {
                    Ok(run) => {
                        for (m, s) in run.hosts.iter().zip(&run.shards) {
                            out.absorb(m, false);
                            out.stalls += s.stalls;
                            out.windows += s.windows;
                        }
                        keep(run.profile);
                    }
                    Err(_) => (0..rc.topology.hosts).for_each(|_| out.panicked()),
                }
            }
        }
    }
    out.profile = merged.as_ref().map(ProfileSummary::from_profile);
    out.peak_rss_mb = peak_rss_mb();
    out
}

/// The set-up cost of one rep, measured as build-only passes.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SetupOutcome {
    /// Seconds of the reference host to build every `World` of the rep,
    /// one entry per pass (see [`crate::probe`]).
    pub pass_s: Vec<f64>,
    /// Milliseconds per `World::build` over all passes (for the rack: the
    /// pass time divided by the host count, since the rack builds its
    /// shards internally).
    pub build_ms: Vec<f64>,
}

/// Build-only passes per set-up child.
const SETUP_PASSES: usize = 3;

/// Builds every `World` of `plan` without running it, `SETUP_PASSES` times.
/// The rack has no build-only entry point, so its pass is `run_rack`
/// over a 1 ms span, which builds and arms every shard.
pub fn setup(plan: &Plan) -> SetupOutcome {
    let mut timer = ScaledTimer::default();
    let mut out = SetupOutcome::default();
    for _ in 0..SETUP_PASSES {
        let ((), _, scaled) = timer.time(|| match plan {
            Plan::Scenarios(cfgs) => {
                for cfg in cfgs.clone() {
                    let t0 = Instant::now();
                    let world = World::build(cfg);
                    out.build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    drop(world);
                }
            }
            Plan::Racks(racks) => {
                for rc in racks {
                    let rc = RackConfig {
                        duration: SimDuration::from_millis(1),
                        warmup: SimDuration::ZERO,
                        ..rc.clone()
                    };
                    let t0 = Instant::now();
                    std::hint::black_box(run_rack(&rc));
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    out.build_ms.push(ms / rc.topology.hosts as f64);
                }
            }
        });
        out.pass_s.push(scaled);
    }
    out
}

/// The fig9 `--quick` document exactly as `repro fig9 --quick --json`
/// writes it: pretty-printed `{"fig9": …}` plus a trailing newline.
pub fn fig9_quick_json() -> String {
    let doc = serde_json::json!({ "fig9": (fig9::run(&Scale::quick())) });
    let mut text = serde_json::to_string_pretty(&doc).expect("serializable figure");
    text.push('\n');
    text
}

/// This process's peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
