//! Integration tests for the two-tier rack topology: path selection,
//! per-hop latency accumulation, and max-min arbitration of the
//! oversubscribed ToR uplink — the three properties the sharded rack
//! runner in `resex-platform` leans on at every lookahead barrier.

use resex_fabric::{FabricConfig, Hop, RackTopology, Topology, UplinkArbiter, UplinkFlow};
use resex_simcore::time::SimDuration;

fn rack() -> RackTopology {
    RackTopology::default() // 128 hosts, 16/ToR, 4:1, 300 ns/hop
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
fn intra_tor_route_never_touches_the_spine() {
    let t = rack();
    for (src, dst) in [(0, 1), (0, 15), (17, 31), (112, 127)] {
        let r = t.route(src, dst);
        assert_eq!(r.hop_count(), 2, "{src}->{dst}");
        assert!(!r.crosses_spine(), "{src}->{dst} rode the uplink");
        assert_eq!(r.uplink_tor(), None);
        assert_eq!(
            r.hops,
            vec![Hop::HostToTor(t.tor_of(src)), Hop::TorToHost(dst)]
        );
    }
}

#[test]
fn cross_tor_route_rides_the_source_tors_uplink() {
    let t = rack();
    for (src, dst) in [(0, 16), (5, 120), (127, 0)] {
        let r = t.route(src, dst);
        assert_eq!(r.hop_count(), 4, "{src}->{dst}");
        assert!(r.crosses_spine());
        // The uplink consumed is the *source* ToR's: that is the queue
        // the sharded runner arbitrates.
        assert_eq!(r.uplink_tor(), Some(t.tor_of(src)), "{src}->{dst}");
        assert_eq!(
            r.hops,
            vec![
                Hop::HostToTor(t.tor_of(src)),
                Hop::TorToSpine(t.tor_of(src)),
                Hop::SpineToTor(t.tor_of(dst)),
                Hop::TorToHost(dst),
            ]
        );
    }
}

#[test]
fn loopback_never_enters_the_fabric() {
    let r = rack().route(42, 42);
    assert_eq!(r.hop_count(), 0);
    assert_eq!(r.latency(SimDuration::from_nanos(300)), SimDuration::ZERO);
}

#[test]
fn latency_accumulates_per_hop() {
    let t = rack();
    let hop = t.hop_latency;
    assert_eq!(
        t.path_latency(0, 1).as_nanos(),
        2 * hop.as_nanos(),
        "intra-ToR = 2 hops"
    );
    assert_eq!(
        t.path_latency(0, 16).as_nanos(),
        4 * hop.as_nanos(),
        "cross-ToR = 4 hops"
    );
    // Symmetric: the reverse path has the same length.
    assert_eq!(t.path_latency(16, 0), t.path_latency(0, 16));
}

#[test]
fn intra_tor_pair_matches_the_historical_crossbar_latency() {
    // Continuity with the single-switch model: a pair placed inside one
    // ToR sees exactly the crossbar's one-way latency (switch + wire =
    // 2 × 300 ns), so "rack with an intra-ToR pair" is a strict
    // generalization, not a recalibration.
    let fabric = FabricConfig::default();
    let mut t = rack();
    (t.place_src, t.place_dst) = (0, 1);
    assert_eq!(
        Topology::Rack(t).one_way_latency(&fabric),
        Topology::Crossbar.one_way_latency(&fabric)
    );
    // The default placement crosses the spine and pays two extra hops.
    assert_eq!(
        Topology::Rack(rack()).one_way_latency(&fabric).as_nanos(),
        2 * Topology::Crossbar.one_way_latency(&fabric).as_nanos()
    );
}

#[test]
fn uplink_bandwidth_divides_by_the_oversubscription_factor() {
    let t = rack();
    let host_link = 1 << 30; // 1 GiB/s, the default link rate
    assert_eq!(
        t.uplink_bandwidth(host_link),
        host_link * t.hosts_per_tor as u64 / t.oversubscription as u64
    );
    // Non-blocking rack: uplink carries every host at full rate.
    let mut nb = t;
    nb.oversubscription = 1;
    assert_eq!(
        nb.uplink_bandwidth(host_link),
        host_link * t.hosts_per_tor as u64
    );
}

#[test]
fn undersubscribed_demands_are_granted_in_full() {
    let arb = UplinkArbiter::new(1000);
    let demands = [100, 200, 300];
    assert!(!arb.oversubscribed(&demands));
    assert_eq!(grants(&arb, &demands), vec![100, 200, 300]);
}

#[test]
fn oversubscribed_grants_are_max_min_fair() {
    let arb = UplinkArbiter::new(900);
    // One mouse, two elephants: the mouse is satisfied in full, the
    // elephants split the remainder evenly.
    let demands = [100, 5000, 5000];
    assert!(arb.oversubscribed(&demands));
    let g = grants(&arb, &demands);
    assert_eq!(g[0], 100);
    assert_eq!(g[1], g[2]);
    assert_eq!(g.iter().sum::<u64>(), 900, "work-conserving at capacity");
    // No flow is granted more than it asked for.
    for (gi, di) in g.iter().zip(demands.iter()) {
        assert!(gi <= di);
    }
}

#[test]
fn arbitration_is_deterministic_and_position_stable() {
    let arb = UplinkArbiter::new(1000);
    let demands = [700, 700, 700, 50];
    let a = grants(&arb, &demands);
    let b = grants(&arb, &demands);
    assert_eq!(a, b, "same demands, same grants");
    // Equal demands tie-break by index, so equal flows get equal (±1
    // integer-division remainder) grants regardless of position.
    let spread = a[..3].iter().max().unwrap() - a[..3].iter().min().unwrap();
    assert!(spread <= 1, "equal demands diverged: {a:?}");
}

#[test]
fn ragged_last_tor_still_routes_and_validates() {
    // 20 hosts at 16/ToR: ToR 1 holds only hosts 16..19.
    let mut t = rack();
    t.hosts = 20;
    (t.place_src, t.place_dst) = (0, 19);
    assert_eq!(t.tors(), 2);
    assert_eq!(t.tor_of(19), 1);
    assert!(t.route(3, 19).crosses_spine());
    t.validate().expect("ragged rack is valid");
}
