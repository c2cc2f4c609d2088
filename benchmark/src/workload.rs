//! The four workloads and the seeded inputs each one runs.
//!
//! A workload turns `(seed, scale)` into a [`Plan`]: the exact
//! `ScenarioConfig` (or `RackConfig`) list one rep simulates. Every seed
//! inside a plan — scenario, trace shape, fault schedule, attacker — is
//! derived with SplitMix64 from `(seed, workload, index)`, so the program
//! under test only ever sees the generated configs. The structure of a
//! plan (buffer sizes, policies, VM counts) does not depend on the seed,
//! which keeps the work per rep, and so its host time, comparable across
//! seeds.

use resex_adversary::AdversarySpec;
use resex_benchex::{Burstiness, TraceProfile};
use resex_core::ResExConfig;
use resex_faults::{FaultSchedule, FaultSpec};
use resex_platform::{PolicyKind, RackConfig, ScenarioConfig, VmSpec, BASE_LATENCY_US};
use resex_simcore::time::SimDuration;

const KIB: u32 = 1024;
const MIB: u32 = 1024 * 1024;

/// Simulated span of one scenario at scale 1, per workload, in ms. Sized
/// so that one rep takes about half a second of host time on a 2-core x86-64
/// host (see README.md for the measured numbers).
const CONTENDED_MS: u64 = 800;
const SOLO_MS: u64 = 24_000;
const FAULTED_MS: u64 = 600;
const RACK_MS: u64 = 500;
/// The `rack` workload runs `RACKS` racks of `RACK_HOSTS` hosts (each a
/// full two-VM `World`) back to back: two ToRs per rack, one pairing
/// inside itself and one across the spine. Two shorter racks rather than
/// one large one let the host-speed probe run between them.
const RACKS: usize = 2;
const RACK_HOSTS: u32 = 32;

/// The fault mix of the `faulted` workload: every fault class the
/// recovery layer handles, at rates it survives with no lost request.
pub const FAULT_SPEC: &str = "loss=0.01,corrupt=0.002,tear=0.01,skip=0.02,capfail=0.02,\
flap_ms=50,flap_down_us=2000,mgr_crash=0.01,mgr_down_ms=20,vm_crash=0.005,vm_down_ms=5";

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's regime: 2–7 flows share the link under a pricing policy.
    Contended,
    /// The control: one unmanaged VM per scenario.
    Solo,
    /// Contended pairs under faults, plus poisoning and burst attackers.
    Faulted,
    /// The sharded rack: the only parallel workload.
    Rack,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Contended,
        Workload::Solo,
        Workload::Faulted,
        Workload::Rack,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Contended => "contended",
            Workload::Solo => "solo",
            Workload::Faulted => "faulted",
            Workload::Rack => "rack",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Distinct per-workload salt for seed derivation.
    fn salt(self) -> u64 {
        match self {
            Workload::Contended => 0xC0_47E4_DED0,
            Workload::Solo => 0x5010,
            Workload::Faulted => 0xFA_017E_D000,
            Workload::Rack => 0x4A_C000,
        }
    }
}

/// SplitMix64 finaliser.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a derived seed feeds.
#[derive(Clone, Copy)]
enum Role {
    Scenario = 0,
    Trace = 1,
    Fault = 2,
    Attacker = 3,
}

/// The seed for `role` of input `index` of workload `w` under run seed `seed`.
fn derive(seed: u64, w: Workload, index: usize, role: Role) -> u64 {
    splitmix64(splitmix64(seed ^ w.salt()).wrapping_add(index as u64 * 4 + role as u64))
}

/// The inputs of one rep.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Independent scenarios, run back to back.
    Scenarios(Vec<ScenarioConfig>),
    /// Sharded rack runs, back to back.
    Racks(Vec<RackConfig>),
}

impl Plan {
    /// The inputs of one rep of `w` under `seed`. `scale` multiplies every
    /// simulated span (and the rack's host count); 1.0 is the benchmark.
    pub fn new(w: Workload, seed: u64, scale: f64) -> Plan {
        let span = |ms: u64| SimDuration::from_millis(((ms as f64 * scale).round() as u64).max(20));
        let mut cfgs = match w {
            Workload::Contended => contended(),
            Workload::Solo => solo(),
            Workload::Faulted => faulted(),
            Workload::Rack => {
                let hosts = ((RACK_HOSTS as f64 * scale).round() as u32).max(8);
                let racks = (0..RACKS).map(|i| {
                    let mut rc = RackConfig::new(hosts);
                    rc.duration = span(RACK_MS);
                    rc.warmup = rc.duration.mul_f64(0.1);
                    rc.seed = derive(seed, w, i, Role::Scenario);
                    rc
                });
                return Plan::Racks(racks.collect());
            }
        };
        let ms = match w {
            Workload::Contended => CONTENDED_MS,
            Workload::Solo => SOLO_MS,
            _ => FAULTED_MS,
        };
        for (i, cfg) in cfgs.iter_mut().enumerate() {
            cfg.seed = derive(seed, w, i, Role::Scenario);
            cfg.duration = span(ms);
            cfg.warmup = cfg.duration.mul_f64(0.1);
            let trace_seed = derive(seed, w, i, Role::Trace);
            for vm in cfg.vms.iter_mut().filter(|v| v.sla.is_none()) {
                vm.trace = client_trace(w, trace_seed);
            }
            if cfg.faults.enabled() {
                cfg.faults.spec.seed = derive(seed, w, i, Role::Fault);
            }
            if cfg.adversary.enabled() {
                cfg.adversary.seed = derive(seed, w, i, Role::Attacker);
            }
        }
        Plan::Scenarios(cfgs)
    }

    /// Simulation runs in one rep: scenarios, or hosts for the rack.
    pub fn runs(&self) -> usize {
        match self {
            Plan::Scenarios(cfgs) => cfgs.len(),
            Plan::Racks(racks) => racks.iter().map(|r| r.topology.hosts as usize).sum(),
        }
    }
}

/// The client trace of every VM without an SLA: the interferers, and the
/// solo VMs.
fn client_trace(w: Workload, seed: u64) -> TraceProfile {
    match w {
        // The default exchange mix: quotes, risk checks, CRR reprices and
        // implied-vol solves.
        Workload::Solo => TraceProfile::default(),
        // Fixed-cost 8-quote batches. Under this fault mix the exchange
        // mix's heavy tasks can outlast the 10 ms client timeout on every
        // retry of a capped VM, and the request is lost.
        Workload::Faulted => TraceProfile::uniform_quotes(8),
        // The exchange mix alternating calm and 3x bursty regimes whose
        // length comes from the seed (the depth is fixed, so the work per
        // rep does not swing with the seed).
        _ => TraceProfile {
            burstiness: Burstiness::Bursty {
                regime_len: 64 + (seed % 193) as u32,
                burst_factor: 3,
            },
            ..TraceProfile::default()
        },
    }
}

/// Six 64 KiB reporters plus a 2 MiB streamer under IOShares.
fn six_plus_streamer() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::base_case(64 * KIB);
    cfg.label = "6x64KB+2MB-ioshares".into();
    cfg.policy = PolicyKind::IoShares;
    cfg.vms = (0..6)
        .map(|i| VmSpec::server(format!("64KB-{i}"), 64 * KIB).with_sla(BASE_LATENCY_US, 2.0))
        .collect();
    cfg.vms.push(VmSpec::server("2MB", 2 * MIB));
    cfg
}

fn contended() -> Vec<ScenarioConfig> {
    let mut out = Vec::new();
    for intf in [256 * KIB, MIB, 2 * MIB] {
        out.push(ScenarioConfig::managed(intf, PolicyKind::FreeMarket));
        out.push(ScenarioConfig::managed(intf, PolicyKind::IoShares));
        out.push(six_plus_streamer());
    }
    out
}

fn solo() -> Vec<ScenarioConfig> {
    [64 * KIB, 256 * KIB, MIB]
        .into_iter()
        .map(ScenarioConfig::base_case)
        .collect()
}

fn faulted() -> Vec<ScenarioConfig> {
    let mut out = Vec::new();
    for intf in [MIB, 2 * MIB] {
        for policy in [PolicyKind::FreeMarket, PolicyKind::IoShares] {
            let mut cfg = ScenarioConfig::managed(intf, policy);
            cfg.faults = FaultSchedule::from(FaultSpec::parse(FAULT_SPEC).expect("valid spec"));
            out.push(cfg);
        }
    }
    // Attackers against hardened IOShares, in the buffer regime where each
    // attack class does measurable damage.
    for (class, intf) in [("poison", MIB), ("burst", 256 * KIB)] {
        let mut cfg = ScenarioConfig::adversarial(intf, 3, PolicyKind::IoShares);
        cfg.resex = ResExConfig::hardened();
        cfg.adversary = AdversarySpec::parse(&format!("class={class},attackers=1+2+3"))
            .expect("valid adversary spec");
        out.push(cfg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenarios(w: Workload, seed: u64) -> Vec<ScenarioConfig> {
        match Plan::new(w, seed, 1.0) {
            Plan::Scenarios(cfgs) => cfgs,
            Plan::Racks(_) => panic!("scenario plan expected"),
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            let (a, b) = (Plan::new(w, 7, 1.0), Plan::new(w, 7, 1.0));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_changes_trace_fault_and_attacker_seeds() {
        for w in [Workload::Contended, Workload::Solo, Workload::Faulted] {
            for (x, y) in scenarios(w, 1).iter().zip(scenarios(w, 2)) {
                assert_ne!(x.seed, y.seed, "scenario seed");
            }
        }
        let traces = |cfgs: Vec<ScenarioConfig>| {
            let t: Vec<_> = cfgs
                .iter()
                .flat_map(|c| c.vms.iter().map(|v| v.trace))
                .collect();
            format!("{t:?}")
        };
        assert_ne!(
            traces(scenarios(Workload::Contended, 1)),
            traces(scenarios(Workload::Contended, 2))
        );
        let (a, b) = (
            scenarios(Workload::Faulted, 1),
            scenarios(Workload::Faulted, 2),
        );
        for (x, y) in a.iter().zip(&b) {
            if x.faults.enabled() {
                assert_ne!(x.faults.spec.seed, y.faults.spec.seed, "fault seed");
            }
            if x.adversary.enabled() {
                assert_ne!(x.adversary.seed, y.adversary.seed, "attacker seed");
            }
        }
        assert!(a.iter().any(|c| c.faults.enabled()) && a.iter().any(|c| c.adversary.enabled()));
        let rack_seeds = |s| match Plan::new(Workload::Rack, s, 1.0) {
            Plan::Racks(r) => r.iter().map(|r| r.seed).collect::<Vec<_>>(),
            Plan::Scenarios(_) => panic!("rack plan expected"),
        };
        for (a, b) in rack_seeds(1).into_iter().zip(rack_seeds(2)) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn plan_structure_does_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let shape = |p: &Plan| match p {
                Plan::Scenarios(c) => c
                    .iter()
                    .map(|c| (c.vms.len(), c.policy.clone(), c.duration))
                    .map(|x| format!("{x:?}"))
                    .collect::<Vec<_>>(),
                Plan::Racks(r) => r
                    .iter()
                    .map(|r| format!("{:?} {:?}", r.topology.hosts, r.duration))
                    .collect(),
            };
            assert_eq!(shape(&Plan::new(w, 1, 1.0)), shape(&Plan::new(w, 99, 1.0)));
        }
    }

    #[test]
    fn every_plan_validates() {
        for w in Workload::ALL {
            for scale in [1.0, 0.02] {
                if let Plan::Scenarios(cfgs) = Plan::new(w, 3, scale) {
                    for c in cfgs {
                        c.validate().expect("valid scenario");
                    }
                }
            }
        }
    }
}
