//! Conservative-lookahead sharding primitives.
//!
//! A partitioned simulation splits the event calendar into shards that
//! advance independently. The classic conservative (Chandy–Misra–Bryant)
//! argument makes that safe: if no shard can influence another sooner
//! than `lookahead` from now, every shard may process all events up to
//! `min(next event across shards) + lookahead` without ever seeing a
//! message from its past. This module supplies the pieces a sharded
//! driver needs — the horizon computation, deterministically-ordered
//! cross-shard channels, and per-shard accounting — while the shards
//! themselves stay ordinary sequential simulations.
//!
//! Determinism is the design constraint throughout: the horizon is a pure
//! function of the shard clocks, channel drains order messages by
//! `(time, sender, sequence)` regardless of arrival interleaving, and
//! nothing here consults wall clocks or thread identity. A sharded run is
//! therefore byte-identical to the same events processed on one calendar.

use crate::time::{SimDuration, SimTime};
use serde::Serialize;
use std::collections::{vec_deque, VecDeque};

/// Per-shard accounting the sharded driver reports alongside run metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ShardStats {
    /// Events this shard's local calendar processed.
    pub events: u64,
    /// Synchronization windows the shard participated in.
    pub windows: u64,
    /// Windows the shard reached the barrier with nothing to do — its
    /// next event lay beyond the horizon, so it merely waited. High stall
    /// counts mean the lookahead is too small for the workload's cadence.
    pub stalls: u64,
}

impl ShardStats {
    /// Folds another shard's counters into this one.
    pub fn merge(&mut self, other: &ShardStats) {
        self.events += other.events;
        self.windows += other.windows;
        self.stalls += other.stalls;
    }
}

/// The conservative horizon: the earliest next event across all shards
/// plus the lookahead, or `None` when every shard is idle (`nexts` all
/// `None`), which ends the simulation.
///
/// Every shard may safely process all events `≤` the returned horizon:
/// no cross-shard influence can arrive earlier than the earliest event
/// anywhere plus the minimum propagation delay.
pub fn conservative_horizon(
    nexts: impl IntoIterator<Item = Option<SimTime>>,
    lookahead: SimDuration,
) -> Option<SimTime> {
    nexts
        .into_iter()
        .flatten()
        .min()
        .map(|t| t.saturating_add(lookahead))
}

/// One timestamped message on a cross-shard link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkMsg<T> {
    /// Simulated time the message takes effect at the receiver.
    pub at: SimTime,
    /// Per-channel sequence number (FIFO tie-break at equal times).
    pub seq: u64,
    /// The payload.
    pub payload: T,
}

/// A deterministic FIFO channel between two shards.
///
/// Senders must append in non-decreasing time order (conservative
/// simulations only emit into their future — violating that is a
/// scheduling bug, so it panics). The receiver drains everything up to
/// its current horizon; because each channel is FIFO and drains are
/// merged by `(time, channel index, seq)` in the caller, delivery order
/// is a pure function of the traffic, never of thread interleaving.
#[derive(Clone, Debug)]
pub struct LinkChannel<T> {
    msgs: VecDeque<LinkMsg<T>>,
    next_seq: u64,
    last_sent: SimTime,
}

impl<T> Default for LinkChannel<T> {
    fn default() -> Self {
        LinkChannel {
            msgs: VecDeque::new(),
            next_seq: 0,
            last_sent: SimTime::ZERO,
        }
    }
}

impl<T> LinkChannel<T> {
    /// An empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a message taking effect at `at`.
    ///
    /// # Panics
    /// If `at` precedes the previous send — a conservative shard never
    /// transmits into its own past.
    pub fn send(&mut self, at: SimTime, payload: T) {
        assert!(
            at >= self.last_sent,
            "cross-shard send into the past: {} < {}",
            at.as_nanos(),
            self.last_sent.as_nanos()
        );
        self.last_sent = at;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.msgs.push_back(LinkMsg { at, seq, payload });
    }

    /// Removes every message with `at ≤ horizon` and yields them in FIFO
    /// order. Draining allocates nothing; messages the caller does not
    /// consume are dropped with the iterator.
    pub fn drain_until(&mut self, horizon: SimTime) -> vec_deque::Drain<'_, LinkMsg<T>> {
        // Sends are time-ordered, so the due messages are a prefix.
        let due = self.msgs.partition_point(|m| m.at <= horizon);
        self.msgs.drain(..due)
    }

    /// Undelivered messages currently queued.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn horizon_is_min_next_plus_lookahead() {
        let la = SimDuration::from_nanos(100);
        assert_eq!(
            conservative_horizon([Some(t(500)), Some(t(300)), None], la),
            Some(t(400))
        );
        assert_eq!(conservative_horizon([None, None], la), None);
        assert_eq!(
            conservative_horizon(std::iter::empty::<Option<SimTime>>(), la),
            None
        );
    }

    #[test]
    fn horizon_saturates_at_time_max() {
        assert_eq!(
            conservative_horizon([Some(SimTime::MAX)], SimDuration::from_nanos(5)),
            Some(SimTime::MAX)
        );
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = ShardStats {
            events: 1,
            windows: 2,
            stalls: 3,
        };
        a.merge(&ShardStats {
            events: 10,
            windows: 20,
            stalls: 30,
        });
        assert_eq!(
            a,
            ShardStats {
                events: 11,
                windows: 22,
                stalls: 33,
            }
        );
    }

    #[test]
    fn channel_preserves_fifo_and_drains_by_horizon() {
        let mut ch = LinkChannel::new();
        ch.send(t(10), "a");
        ch.send(t(10), "b");
        ch.send(t(30), "c");
        let first: Vec<_> = ch.drain_until(t(10)).collect();
        assert_eq!(
            first.iter().map(|m| m.payload).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(first[0].seq < first[1].seq, "equal-time sends keep order");
        assert_eq!(ch.len(), 1);
        let rest: Vec<_> = ch.drain_until(t(100)).collect();
        assert_eq!(rest[0].payload, "c");
        assert!(ch.is_empty());
    }

    #[test]
    #[should_panic(expected = "send into the past")]
    fn channel_rejects_time_travel() {
        let mut ch = LinkChannel::new();
        ch.send(t(50), ());
        ch.send(t(40), ());
    }

    /// A toy conservative simulation: N logical processes pass a token
    /// around a ring, each hop delayed by exactly the lookahead. Run it
    /// monolithically and with every shard count; the delivery trace must
    /// be identical — the determinism contract the rack runner relies on.
    #[test]
    fn sharded_ring_matches_monolith_for_any_shard_count() {
        const PROCS: usize = 6;
        const HOPS: u64 = 50;
        let la = SimDuration::from_nanos(7);

        fn run(shards: usize, la: SimDuration) -> Vec<(u64, usize, u64)> {
            // Each process p has an inbound channel; process p forwards a
            // token (hop count) to (p+1) % PROCS after the link delay.
            let mut chans: Vec<LinkChannel<u64>> = (0..PROCS).map(|_| LinkChannel::new()).collect();
            chans[0].send(SimTime::ZERO + la, 0);
            let mut trace = Vec::new();
            let group_of = |p: usize| p * shards / PROCS;
            loop {
                let nexts = chans.iter().map(|c| c.msgs.front().map(|m| m.at));
                let Some(h) = conservative_horizon(nexts, la) else {
                    break;
                };
                // Advance shard groups in index order; inside a group,
                // deliveries merge by (time, process, seq).
                for g in 0..shards {
                    let mut due: Vec<(SimTime, usize, u64, u64)> = Vec::new();
                    for p in (0..PROCS).filter(|&p| group_of(p) == g) {
                        for m in chans[p].drain_until(h) {
                            due.push((m.at, p, m.seq, m.payload));
                        }
                    }
                    due.sort();
                    for (at, p, _seq, hop) in due {
                        trace.push((at.as_nanos(), p, hop));
                        if hop < HOPS {
                            chans[(p + 1) % PROCS].send(at + la, hop + 1);
                        }
                    }
                }
            }
            trace
        }

        let mono = run(1, la);
        assert_eq!(mono.len() as u64, HOPS + 1);
        for shards in [2, 3, PROCS] {
            assert_eq!(run(shards, la), mono, "shard count {shards} diverged");
        }
    }
}
