//! Rack-scale sharded runner: one event calendar per host, conservative
//! lookahead between them.
//!
//! Every host in the rack is a full [`World`] — the same audited
//! event loop the single-pair figures run — placed somewhere in a
//! [`RackTopology`] so its fabric latency reflects the routed path to
//! its client (two hops inside a ToR, four across the spine). Hosts do
//! not exchange sub-window messages: the only cross-host coupling is
//! bandwidth contention on the oversubscribed ToR uplinks, which
//! operates at the topology's `sync_quantum`. That quantum is therefore
//! the conservative lookahead: every shard may advance to
//! `min(next event across shards) + quantum` before the next barrier.
//!
//! At each barrier the runner plays switch: it diffs every spine-using
//! host's egress byte counter, sends the demand through a deterministic
//! per-ToR [`LinkChannel`], runs max-min arbitration
//! ([`UplinkArbiter`]), and actuates the grants as per-flow rate limits
//! for the next window — a fluid model of uplink sharing, applied
//! through the same mid-run-safe QoS path the hardware-QoS experiments
//! use.
//!
//! Determinism is identical to the rest of the workspace: shards advance
//! in place, each on its own slot of the shard vector, every
//! barrier decision is made sequentially in host order from per-shard
//! deterministic state, and per-host RNG seeds are forked from the rack
//! seed by host index. The same rack on 1 thread and N threads produces
//! byte-identical results.

use crate::metrics::RunMetrics;
use crate::scenario::{ScenarioConfig, VmSpec};
use crate::world::{ObservedRun, World};
use rayon::prelude::*;
use resex_fabric::{FabricConfig, RackTopology, Topology, UplinkArbiter, UplinkFlow};
use resex_obs::Profile;
use resex_simcore::time::SimDuration;
use resex_simcore::{conservative_horizon, LinkChannel, ShardStats};

/// A rack experiment: how many hosts, how dense, how long.
#[derive(Clone, Debug)]
pub struct RackConfig {
    /// VMs per host: one 64 KiB latency reporter plus `vms_per_host - 1`
    /// 2 MiB interferers.
    pub vms_per_host: u32,
    /// The rack fabric (host count, ToR fan-in, oversubscription,
    /// per-hop latency, sync quantum).
    pub topology: RackTopology,
    /// Simulated run length per host.
    pub duration: SimDuration,
    /// Initial span excluded from summaries.
    pub warmup: SimDuration,
    /// Rack master seed; each host forks its own seed from it by index.
    pub seed: u64,
    /// Arm every shard's event-loop self-profiler and merge the results
    /// into [`RackRun::profile`].
    pub profile: bool,
}

impl RackConfig {
    /// A rack of `hosts` hosts at CI-friendly density and duration.
    pub fn new(hosts: u32) -> Self {
        RackConfig {
            vms_per_host: 2,
            topology: RackTopology {
                hosts,
                // The rack-level config carries no pair placement of its
                // own — every host scenario places itself.
                place_src: 0,
                place_dst: 0,
                ..RackTopology::default()
            },
            duration: SimDuration::from_millis(120),
            warmup: SimDuration::from_millis(20),
            seed: 42,
            profile: false,
        }
    }

    /// Total VMs across the rack.
    pub fn total_vms(&self) -> u32 {
        self.topology.hosts * self.vms_per_host
    }
}

/// What a sharded rack run produced.
#[derive(Clone, Debug)]
pub struct RackRun {
    /// Per-host run metrics, indexed by host id.
    pub hosts: Vec<RunMetrics>,
    /// Per-host shard accounting (events, windows, barrier stalls).
    pub shards: Vec<ShardStats>,
    /// Synchronization windows the rack stepped through.
    pub windows: u64,
    /// Windows in which at least one ToR uplink was oversubscribed and
    /// max-min grants actually bound.
    pub oversub_windows: u64,
    /// Events processed across all shards.
    pub total_events: u64,
    /// Merged per-shard self-profiles (present iff `RackConfig::profile`).
    pub profile: Option<Profile>,
}

impl RackRun {
    /// The rack collapsed into one [`RunMetrics`]: summed event counts
    /// and the per-shard calendar accounting, with per-VM streams left to
    /// the per-host entries (names collide across hosts).
    pub fn summary(&self, cfg: &RackConfig) -> RunMetrics {
        RunMetrics {
            label: format!("rack-{}x{}", self.hosts.len(), cfg.vms_per_host),
            policy: "none".into(),
            duration: cfg.duration,
            warmup: cfg.warmup,
            vms: Vec::new(),
            events_processed: self.total_events,
            adversary: Default::default(),
            crashes: Default::default(),
            shards: self.shards.clone(),
        }
    }
}

/// The client host a server host exchanges with: hosts behind
/// even-numbered ToRs pair with their in-ToR neighbour (a two-hop path
/// that never touches the spine), hosts behind odd-numbered ToRs reach
/// into the next ToR (four hops, riding the uplink). Half the rack
/// exercises each regime, deterministically from the host index alone.
pub fn peer_of(topo: &RackTopology, host: u32) -> u32 {
    let tor = topo.tor_of(host);
    if tor.is_multiple_of(2) {
        let p = host ^ 1;
        if p < topo.hosts && topo.tor_of(p) == tor {
            return p;
        }
    }
    (host + topo.hosts_per_tor) % topo.hosts
}

/// SplitMix64 — the standard seed-sequence scrambler; forks every host's
/// scenario seed from the rack seed with no correlation between hosts.
fn fork_seed(rack_seed: u64, host: u32) -> u64 {
    let mut z = rack_seed.wrapping_add((host as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One host's scenario: a latency reporter plus interferers, placed in
/// the rack so its fabric latency is the routed path to its peer.
fn host_scenario(cfg: &RackConfig, host: u32) -> ScenarioConfig {
    let mut topo = cfg.topology;
    topo.place_src = host;
    topo.place_dst = peer_of(&cfg.topology, host);
    let mut sc = ScenarioConfig::base_case(64 * 1024);
    sc.label = format!("host-{host}");
    for k in 1..cfg.vms_per_host {
        sc.vms
            .push(VmSpec::server(format!("2MB#{}", k + 1), 2 * 1024 * 1024));
    }
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = fork_seed(cfg.seed, host);
    sc.obs.profile = cfg.profile;
    sc.topology = Topology::Rack(topo);
    sc
}

/// One host shard: its world plus barrier-side bookkeeping.
struct Shard {
    host: u32,
    world: World,
    done: bool,
    stats: ShardStats,
    /// The ToR whose uplink this host's traffic consumes (None for
    /// intra-ToR pairs, which never contend for spine capacity).
    uplink_tor: Option<u32>,
    /// Egress byte counter at the previous barrier, for demand deltas.
    last_bytes: u64,
    /// True while a grant-derived rate limit is installed.
    shaped: bool,
}

/// Grants below this floor are rounded up so a shaped flow always makes
/// progress between barriers (64 KiB/s — far below any real grant).
const MIN_GRANT_BPS: u64 = 64 * 1024;

/// Runs the rack: builds one shard per host, advances them in parallel
/// window by window, and arbitrates ToR uplinks at every barrier.
pub fn run_rack(cfg: &RackConfig) -> RackRun {
    cfg.topology.validate().expect("valid rack topology");
    assert!(cfg.vms_per_host >= 1, "at least one VM per host");
    let topo = cfg.topology;
    let quantum = topo.sync_quantum;
    let link_bw = FabricConfig::default().link_bandwidth;
    // One ToR uplink's byte budget per sync window.
    let window_bytes = ((topo.uplink_bandwidth(link_bw) as u128 * quantum.as_nanos() as u128)
        / 1_000_000_000) as u64;

    // Build and arm every shard — parallel, positionally collected, so
    // construction order (and thus every per-host seed and id) is fixed.
    let mut shards: Vec<Shard> = (0..topo.hosts)
        .into_par_iter()
        .map(|h| {
            let mut world = World::build(host_scenario(cfg, h));
            world.start();
            let route = topo.route(h, peer_of(&topo, h));
            Shard {
                host: h,
                world,
                done: false,
                stats: ShardStats::default(),
                uplink_tor: route.uplink_tor(),
                last_bytes: 0,
                shaped: false,
            }
        })
        .collect();

    let mut channels: Vec<LinkChannel<(u32, u64)>> =
        (0..topo.tors()).map(|_| LinkChannel::new()).collect();
    // Barrier scratch, reused every window: the barrier allocates nothing.
    let mut flows: Vec<UplinkFlow> = Vec::new();
    let arb = UplinkArbiter::new(window_bytes);
    let mut windows = 0u64;
    let mut oversub_windows = 0u64;

    loop {
        // Conservative horizon: earliest next event anywhere + quantum.
        let nexts = shards.iter().map(|s| s.world.next_event_time());
        let Some(horizon) = conservative_horizon(nexts, quantum) else {
            break; // every shard has fired End
        };
        for s in shards.iter_mut() {
            if s.done {
                continue;
            }
            s.stats.windows += 1;
            if s.world.next_event_time().is_none_or(|t| t > horizon) {
                s.stats.stalls += 1;
            }
        }
        windows += 1;

        // Advance all shards to the horizon on the work-stealing pool,
        // each in place: no shard (or its World) moves.
        shards.par_iter_mut().for_each(|s| {
            if !s.done {
                s.done = s.world.step_until(horizon);
            }
        });

        // Barrier: publish each spine-using host's egress demand into its
        // ToR's channel (host order), then arbitrate every uplink.
        for s in shards.iter_mut() {
            let Some(tor) = s.uplink_tor else { continue };
            let bytes = s.world.server_egress_bytes();
            let delta = bytes - s.last_bytes;
            s.last_bytes = bytes;
            channels[tor as usize].send(horizon, (s.host, delta));
        }
        let mut any_oversub = false;
        for ch in channels.iter_mut() {
            flows.clear();
            flows.extend(ch.drain_until(horizon).map(|m| UplinkFlow {
                id: m.payload.0,
                demand: m.payload.1,
                grant: 0,
            }));
            if flows.is_empty() {
                continue;
            }
            let oversub = arb.oversubscribed(flows.iter().map(|f| &f.demand));
            if oversub {
                any_oversub = true;
                // Hosts are independent, so shaping them in the (demand,
                // host) order the arbiter sorts them into changes no rate.
                arb.arbitrate(&mut flows);
            }
            for f in &flows {
                let shard = &mut shards[f.id as usize];
                if !oversub || f.demand == 0 {
                    // Uncontended, or no demand this window: nothing to
                    // throttle.
                    if shard.shaped {
                        shard.world.shape_server_egress(None);
                        shard.shaped = false;
                    }
                    continue;
                }
                // Grant in bytes/window → bytes/sec, split evenly across
                // the host's server flows.
                let host_bps =
                    (f.grant as u128 * 1_000_000_000 / quantum.as_nanos() as u128) as u64;
                let per_qp = (host_bps / cfg.vms_per_host as u64).max(MIN_GRANT_BPS);
                shard.world.shape_server_egress(Some(per_qp));
                shard.shaped = true;
            }
        }
        if any_oversub {
            oversub_windows += 1;
        }
    }

    // Settle and harvest every shard (parallel, positional).
    let finished: Vec<(ShardStats, RunMetrics, ObservedRun)> = shards
        .into_par_iter()
        .map(|s| {
            let mut stats = s.stats;
            let (metrics, observed) = s.world.finish();
            stats.events = metrics.events_processed;
            (stats, metrics, observed)
        })
        .collect();

    let mut run = RackRun {
        hosts: Vec::with_capacity(finished.len()),
        shards: Vec::with_capacity(finished.len()),
        windows,
        oversub_windows,
        total_events: 0,
        profile: None,
    };
    for (stats, metrics, observed) in finished {
        run.total_events += stats.events;
        run.shards.push(stats);
        if let Some(p) = observed.profile {
            match &mut run.profile {
                Some(merged) => merged.merge(&p),
                None => run.profile = Some(p),
            }
        }
        run.hosts.push(metrics);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(hosts: u32) -> RackConfig {
        let mut cfg = RackConfig::new(hosts);
        cfg.duration = SimDuration::from_millis(40);
        cfg.warmup = SimDuration::from_millis(10);
        cfg
    }

    #[test]
    fn peers_mix_intra_and_cross_tor() {
        let topo = RackTopology {
            hosts: 64,
            ..RackTopology::default()
        };
        let mut intra = 0;
        let mut cross = 0;
        for h in 0..topo.hosts {
            let p = peer_of(&topo, h);
            assert_ne!(p, h, "a host never pairs with itself");
            if topo.tor_of(p) == topo.tor_of(h) {
                intra += 1;
            } else {
                cross += 1;
            }
        }
        // Even-numbered ToRs pair inside, odd ones across: half and half.
        assert_eq!(intra, 32);
        assert_eq!(cross, 32);
    }

    #[test]
    fn forked_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for h in 0..512 {
            assert!(seen.insert(fork_seed(42, h)), "host {h} repeated a seed");
        }
    }

    #[test]
    fn tiny_rack_runs_and_accounts() {
        let cfg = tiny(4);
        let run = run_rack(&cfg);
        assert_eq!(run.hosts.len(), 4);
        assert_eq!(run.shards.len(), 4);
        assert!(run.windows > 0);
        assert!(run.total_events > 0);
        for (h, s) in run.shards.iter().enumerate() {
            assert!(s.events > 0, "host {h} processed nothing");
            assert!(s.windows > 0);
        }
        let summary = run.summary(&cfg);
        assert_eq!(summary.shards.len(), 4);
        assert_eq!(summary.events_processed, run.total_events);
        // Every host served requests: the reporter VM has latency data.
        for m in &run.hosts {
            let reporter = m.vm("64KB").expect("reporter present");
            assert!(reporter.served > 0);
        }
    }

    #[test]
    fn rack_runs_are_reproducible() {
        let a = run_rack(&tiny(4));
        let b = run_rack(&tiny(4));
        assert_eq!(a.total_events, b.total_events);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.oversub_windows, b.oversub_windows);
        for (x, y) in a.hosts.iter().zip(&b.hosts) {
            assert_eq!(x.events_processed, y.events_processed);
            let (mx, my) = (x.vm("64KB").unwrap(), y.vm("64KB").unwrap());
            assert_eq!(mx.summary.total.mean(), my.summary.total.mean());
        }
    }
}
