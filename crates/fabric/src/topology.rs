//! Multi-switch rack topology: hosts → ToR switches → spine.
//!
//! The original model is a single crossbar: every node hangs off one
//! switch and `FabricConfig::one_way_latency` is the whole story. A rack
//! is not that. Hosts plug into top-of-rack (ToR) switches, ToRs uplink
//! into a spine, and the uplink is deliberately *oversubscribed*: a ToR
//! with 16 host-facing links typically has 4 links' worth of spine
//! capacity, so cross-ToR traffic contends for bandwidth that intra-ToR
//! traffic never sees.
//!
//! This module is pure topology arithmetic — path selection, per-hop
//! latency accumulation, and deterministic max-min arbitration of an
//! oversubscribed uplink. It holds no simulation state; the sharded rack
//! runner in `resex-platform` drives it at every conservative-lookahead
//! barrier, and single-pair scenarios use [`Topology::one_way_latency`]
//! to place their host pair somewhere in the rack.

use crate::config::FabricConfig;
use resex_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// One traversal step on a routed path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Hop {
    /// Host NIC up to its ToR switch.
    HostToTor(u32),
    /// ToR uplink toward the spine — the oversubscribed link.
    TorToSpine(u32),
    /// Spine down-link to the destination ToR.
    SpineToTor(u32),
    /// ToR down to the destination host NIC.
    TorToHost(u32),
}

/// A routed path between two hosts: the ordered hops it traverses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Ordered hops from source NIC to destination NIC. Empty when the
    /// endpoints are the same host (loopback never enters the fabric).
    pub hops: Vec<Hop>,
}

impl Route {
    /// Number of hops on the path.
    pub fn hop_count(&self) -> u32 {
        self.hops.len() as u32
    }

    /// True when the path rides a ToR uplink (and therefore competes for
    /// oversubscribed spine capacity).
    pub fn crosses_spine(&self) -> bool {
        self.hops
            .iter()
            .any(|h| matches!(h, Hop::TorToSpine(_) | Hop::SpineToTor(_)))
    }

    /// The ToR whose uplink this path consumes, when it crosses the spine.
    pub fn uplink_tor(&self) -> Option<u32> {
        self.hops.iter().find_map(|h| match h {
            Hop::TorToSpine(t) => Some(*t),
            _ => None,
        })
    }

    /// Total propagation latency: every hop costs `per_hop`.
    pub fn latency(&self, per_hop: SimDuration) -> SimDuration {
        SimDuration::from_nanos(per_hop.as_nanos() * self.hops.len() as u64)
    }
}

/// A two-tier rack: `hosts` hosts in groups of `hosts_per_tor` behind ToR
/// switches, every ToR uplinked to one spine.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RackTopology {
    /// Total hosts in the rack.
    pub hosts: u32,
    /// Hosts per ToR switch (the last ToR may be partially filled).
    pub hosts_per_tor: u32,
    /// Uplink oversubscription factor F: each ToR's spine capacity is
    /// `hosts_per_tor × host-link bandwidth / F`. F = 1 is non-blocking.
    pub oversubscription: u32,
    /// Per-hop propagation latency (one switch traversal plus its cable).
    pub hop_latency: SimDuration,
    /// Conservative-lookahead window for the sharded rack runner: shards
    /// advance independently inside a window and exchange uplink demand
    /// only at window barriers, so this is the granularity at which
    /// cross-ToR bandwidth contention propagates between hosts.
    pub sync_quantum: SimDuration,
    /// Placement of a single-pair scenario's server host in the rack.
    pub place_src: u32,
    /// Placement of the pair's client host.
    pub place_dst: u32,
}

impl Default for RackTopology {
    fn default() -> Self {
        RackTopology {
            hosts: 128,
            hosts_per_tor: 16,
            oversubscription: 4,
            hop_latency: SimDuration::from_nanos(300),
            sync_quantum: SimDuration::from_micros(500),
            place_src: 0,
            // Default placement crosses the spine: the interesting case.
            place_dst: 16,
        }
    }
}

impl RackTopology {
    /// Number of ToR switches.
    pub fn tors(&self) -> u32 {
        self.hosts.div_ceil(self.hosts_per_tor)
    }

    /// The ToR switch `host` hangs off.
    pub fn tor_of(&self, host: u32) -> u32 {
        host / self.hosts_per_tor
    }

    /// Shortest path from `src` to `dst`: two hops when they share a ToR,
    /// four when the path rides the spine, none for loopback.
    pub fn route(&self, src: u32, dst: u32) -> Route {
        if src == dst {
            return Route { hops: Vec::new() };
        }
        let (st, dt) = (self.tor_of(src), self.tor_of(dst));
        let hops = if st == dt {
            vec![Hop::HostToTor(st), Hop::TorToHost(dst)]
        } else {
            vec![
                Hop::HostToTor(st),
                Hop::TorToSpine(st),
                Hop::SpineToTor(dt),
                Hop::TorToHost(dst),
            ]
        };
        Route { hops }
    }

    /// Accumulated propagation latency of the `src → dst` path.
    pub fn path_latency(&self, src: u32, dst: u32) -> SimDuration {
        self.route(src, dst).latency(self.hop_latency)
    }

    /// One ToR's uplink capacity given the per-host link bandwidth.
    pub fn uplink_bandwidth(&self, host_link: u64) -> u64 {
        let bw = host_link as u128 * self.hosts_per_tor as u128 / self.oversubscription as u128;
        (bw as u64).max(1)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 {
            return Err("rack topology needs at least one host".into());
        }
        if self.hosts_per_tor == 0 {
            return Err("hosts_per_tor must be at least 1".into());
        }
        if self.oversubscription == 0 {
            return Err("oversubscription factor must be at least 1".into());
        }
        if self.hop_latency == SimDuration::ZERO {
            return Err("hop_latency must be positive".into());
        }
        if self.sync_quantum == SimDuration::ZERO {
            return Err("sync_quantum must be positive".into());
        }
        if self.place_src >= self.hosts || self.place_dst >= self.hosts {
            return Err(format!(
                "pair placement ({}, {}) outside rack of {} hosts",
                self.place_src, self.place_dst, self.hosts
            ));
        }
        Ok(())
    }
}

/// Where a scenario's fabric nodes live.
///
/// `Crossbar` is the historical single-switch model and the default —
/// scenarios that never mention a topology behave exactly as before.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// One switch, every node one hop apart; latency comes straight from
    /// [`FabricConfig`].
    #[default]
    Crossbar,
    /// A two-tier rack; latency comes from the placed pair's routed path.
    Rack(RackTopology),
}

impl Topology {
    /// True for the historical single-switch model.
    pub fn is_crossbar(&self) -> bool {
        matches!(self, Topology::Crossbar)
    }

    /// Effective one-way NIC-to-NIC latency for the scenario's pair:
    /// the crossbar defers to `fabric`, a rack accumulates per-hop
    /// latency over the placed pair's route.
    pub fn one_way_latency(&self, fabric: &FabricConfig) -> SimDuration {
        match self {
            Topology::Crossbar => fabric.one_way_latency(),
            Topology::Rack(t) => t.path_latency(t.place_src, t.place_dst),
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Topology::Crossbar => Ok(()),
            Topology::Rack(t) => t.validate(),
        }
    }
}

/// One flow's claim on an uplink window, and what it was granted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UplinkFlow {
    /// Caller-chosen flow id; equal demands are served in id order.
    pub id: u32,
    /// What the flow asks for.
    pub demand: u64,
    /// What [`UplinkArbiter::arbitrate`] granted it.
    pub grant: u64,
}

/// Deterministic max-min fair arbitration of one oversubscribed uplink.
///
/// Pure integer water-filling: demands are satisfied smallest-first, each
/// claimant capped at its fair share of what remains, so small flows are
/// never starved by elephants and equal demands receive equal grants
/// (±1 byte of integer remainder, assigned by id order). Ties sort by id,
/// so the allocation is a pure function of `(capacity, demands)` — no
/// RNG, no iteration-order hazards.
#[derive(Clone, Copy, Debug)]
pub struct UplinkArbiter {
    /// Capacity being divided, in the same unit as the demands (the rack
    /// runner uses bytes per sync window).
    pub capacity: u64,
}

impl UplinkArbiter {
    /// An arbiter for one uplink of the given capacity.
    pub fn new(capacity: u64) -> Self {
        UplinkArbiter { capacity }
    }

    /// True when the demands exceed capacity and grants must bind.
    pub fn oversubscribed<'a>(&self, demands: impl IntoIterator<Item = &'a u64>) -> bool {
        demands.into_iter().fold(0u128, |a, &d| a + d as u128) > self.capacity as u128
    }

    /// Max-min fair grants in place, without allocating: sorts `flows` by
    /// `(demand, id)` and fills in every `grant`.
    pub fn arbitrate(&self, flows: &mut [UplinkFlow]) {
        flows.sort_unstable_by_key(|f| (f.demand, f.id));
        let mut cap = self.capacity;
        let mut left = flows.len() as u64;
        for f in flows {
            let share = cap / left;
            f.grant = f.demand.min(share);
            cap -= f.grant;
            left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack() -> RackTopology {
        RackTopology::default()
    }

    /// Grants positionally aligned with `demands` (ids are positions).
    fn grants(arb: &UplinkArbiter, demands: &[u64]) -> Vec<u64> {
        let mut flows: Vec<UplinkFlow> = (0..)
            .zip(demands)
            .map(|(id, &demand)| UplinkFlow {
                id,
                demand,
                grant: 0,
            })
            .collect();
        arb.arbitrate(&mut flows);
        let mut grants = vec![0; demands.len()];
        for f in flows {
            grants[f.id as usize] = f.grant;
        }
        grants
    }

    #[test]
    fn intra_tor_route_is_two_hops_and_avoids_spine() {
        let t = rack();
        let r = t.route(0, 1);
        assert_eq!(r.hops, vec![Hop::HostToTor(0), Hop::TorToHost(1)]);
        assert!(!r.crosses_spine());
        assert_eq!(r.uplink_tor(), None);
    }

    #[test]
    fn cross_tor_route_rides_the_spine() {
        let t = rack();
        let r = t.route(3, 17);
        assert_eq!(
            r.hops,
            vec![
                Hop::HostToTor(0),
                Hop::TorToSpine(0),
                Hop::SpineToTor(1),
                Hop::TorToHost(17),
            ]
        );
        assert!(r.crosses_spine());
        assert_eq!(r.uplink_tor(), Some(0));
    }

    #[test]
    fn loopback_route_is_empty() {
        let t = rack();
        let r = t.route(5, 5);
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.latency(t.hop_latency), SimDuration::ZERO);
    }

    #[test]
    fn per_hop_latency_accumulates() {
        let t = rack();
        // 2 hops intra-ToR, 4 hops cross-ToR, at 300 ns per hop.
        assert_eq!(t.path_latency(0, 1), SimDuration::from_nanos(600));
        assert_eq!(t.path_latency(0, 16), SimDuration::from_nanos(1200));
        let mut wide = t;
        wide.hop_latency = SimDuration::from_nanos(700);
        assert_eq!(wide.path_latency(0, 16), SimDuration::from_nanos(2800));
    }

    #[test]
    fn tor_mapping_and_count() {
        let t = rack();
        assert_eq!(t.tors(), 8);
        assert_eq!(t.tor_of(0), 0);
        assert_eq!(t.tor_of(15), 0);
        assert_eq!(t.tor_of(16), 1);
        assert_eq!(t.tor_of(127), 7);
        let mut ragged = t;
        ragged.hosts = 20;
        assert_eq!(ragged.tors(), 2, "partial last ToR still counts");
    }

    #[test]
    fn uplink_bandwidth_reflects_oversubscription() {
        let t = rack();
        let host_link = 1024 * 1024 * 1024u64;
        // 16 hosts per ToR at 4:1 → 4 host-links of spine capacity.
        assert_eq!(t.uplink_bandwidth(host_link), 4 * host_link);
        let mut nonblocking = t;
        nonblocking.oversubscription = 1;
        assert_eq!(nonblocking.uplink_bandwidth(host_link), 16 * host_link);
    }

    #[test]
    fn topology_latency_dispatch() {
        let fab = FabricConfig::default();
        assert_eq!(
            Topology::Crossbar.one_way_latency(&fab),
            fab.one_way_latency()
        );
        let t = rack(); // default placement 0 → 16 crosses the spine
        assert_eq!(
            Topology::Rack(t).one_way_latency(&fab),
            SimDuration::from_nanos(1200)
        );
    }

    #[test]
    fn validation_rejects_degenerate_racks() {
        let mut t = rack();
        t.hosts = 0;
        assert!(t.validate().is_err());
        let mut t = rack();
        t.oversubscription = 0;
        assert!(t.validate().is_err());
        let mut t = rack();
        t.place_dst = t.hosts;
        assert!(t.validate().is_err());
        assert!(Topology::Rack(rack()).validate().is_ok());
        assert!(Topology::Crossbar.validate().is_ok());
    }

    #[test]
    fn maxmin_undersubscribed_grants_everything() {
        let arb = UplinkArbiter::new(100);
        assert_eq!(grants(&arb, &[10, 20, 30]), vec![10, 20, 30]);
        assert!(!arb.oversubscribed(&[10, 20, 30]));
    }

    #[test]
    fn maxmin_oversubscribed_protects_small_flows() {
        let arb = UplinkArbiter::new(90);
        assert!(arb.oversubscribed(&[10, 100, 100]));
        // The mouse gets its full 10; the elephants split the remaining 80.
        assert_eq!(grants(&arb, &[10, 100, 100]), vec![10, 40, 40]);
        // Positional: same demands, different order, same per-flow result.
        assert_eq!(grants(&arb, &[100, 10, 100]), vec![40, 10, 40]);
    }

    #[test]
    fn maxmin_never_exceeds_capacity_or_demand() {
        let arb = UplinkArbiter::new(77);
        for demands in [
            vec![],
            vec![0, 0, 0],
            vec![1],
            vec![50, 50],
            vec![7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7],
            vec![u64::MAX, u64::MAX],
        ] {
            let g = grants(&arb, &demands);
            let total: u128 = g.iter().map(|&x| x as u128).sum();
            assert!(total <= 77);
            for (gi, di) in g.iter().zip(&demands) {
                assert!(gi <= di);
            }
        }
    }

    #[test]
    fn maxmin_equal_demands_split_evenly() {
        let arb = UplinkArbiter::new(100);
        assert_eq!(grants(&arb, &[60, 60, 60, 60]), vec![25, 25, 25, 25]);
        // Indivisible remainder lands deterministically on the claimants
        // served last in the sorted order.
        let g = grants(&arb, &[60, 60, 60]);
        assert_eq!(g.iter().sum::<u64>(), 100);
        assert_eq!(g, vec![33, 33, 34]);
    }
}
