//! Oracle for held calendar entries.
//!
//! The platform loop keeps its two sync wake-ups outside the heap as
//! `(time, seq)` pairs: re-arming one draws a seq from the calendar's
//! counter instead of cancelling and rescheduling a heap entry, and the
//! loop fires whichever of {heap head, held entries} has the smallest
//! `(time, seq)`. Random scripts run both ways here (real heap entries,
//! cancelled and rescheduled, against held pairs) and must pop the same
//! events at the same instants, with the same clock after every step.

use proptest::prelude::*;
use resex_simcore::event::{EventKey, EventQueue};
use resex_simcore::time::{SimDuration, SimTime};

/// What popped: a scheduled event by id, or held wake-up 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fired {
    Real(u32),
    Held(usize),
}

#[derive(Clone, Debug)]
enum Op {
    /// Schedule a real event `delay` µs after now.
    Schedule(u8),
    /// Cancel one of the real keys issued so far (fired ones included).
    Cancel(usize),
    /// Re-arm held wake-up `which` at `delay` µs after now, or disarm it.
    /// As in the platform loop, an unchanged time leaves it alone.
    Rearm { which: usize, delay: Option<u8> },
    /// Pop everything due within this many µs of now.
    Pop(u8),
}

/// Applies a `Schedule` or `Cancel`, which both protocols do alike.
fn real_op(queue: &mut EventQueue<Fired>, keys: &mut Vec<EventKey>, op: &Op, id: u32) {
    match *op {
        Op::Schedule(d) => {
            let at = queue.now() + SimDuration::from_micros(d as u64);
            keys.push(queue.schedule_at(at, Fired::Real(id)));
        }
        Op::Cancel(i) if !keys.is_empty() => {
            queue.cancel(keys[i % keys.len()]);
        }
        _ => {}
    }
}

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// Today's protocol: each wake-up is a heap entry, cancelled and
/// rescheduled whenever its time changes.
#[derive(Default)]
struct Rescheduled {
    queue: EventQueue<Fired>,
    held: [Option<(SimTime, EventKey)>; 2],
    keys: Vec<EventKey>,
}

impl Rescheduled {
    fn apply(&mut self, op: &Op, out: &mut Vec<(SimTime, Fired)>, id: u32) {
        let now = self.queue.now();
        match *op {
            Op::Schedule(_) | Op::Cancel(_) => real_op(&mut self.queue, &mut self.keys, op, id),
            Op::Rearm { which, delay } => {
                let at = delay.map(|d| now + SimDuration::from_micros(d as u64));
                if self.held[which].map(|(t, _)| t) != at {
                    if let Some((_, key)) = self.held[which].take() {
                        self.queue.cancel(key);
                    }
                    self.held[which] =
                        at.map(|at| (at, self.queue.schedule_at(at, Fired::Held(which))));
                }
            }
            Op::Pop(w) => {
                let horizon = now + SimDuration::from_micros(w as u64);
                while self.queue.peek_time().is_some_and(|t| t <= horizon) {
                    let (t, fired) = self.queue.pop().unwrap();
                    if let Fired::Held(which) = fired {
                        self.held[which] = None;
                    }
                    out.push((t, fired));
                }
            }
        }
    }
}

/// The held protocol: wake-ups are `(time, seq)` pairs outside the heap.
#[derive(Default)]
struct Held {
    queue: EventQueue<Fired>,
    held: [Option<(SimTime, u64)>; 2],
    keys: Vec<EventKey>,
}

impl Held {
    fn next(&self) -> Option<(SimTime, Option<usize>)> {
        let mut best = self.queue.peek_key().map(|k| (k, None));
        for (which, held) in self.held.iter().enumerate() {
            if let Some(k) = *held {
                if best.is_none_or(|(b, _)| k < b) {
                    best = Some((k, Some(which)));
                }
            }
        }
        best.map(|((t, _), which)| (t, which))
    }

    fn apply(&mut self, op: &Op, out: &mut Vec<(SimTime, Fired)>, id: u32) {
        let now = self.queue.now();
        match *op {
            Op::Schedule(_) | Op::Cancel(_) => real_op(&mut self.queue, &mut self.keys, op, id),
            Op::Rearm { which, delay } => {
                let at = delay.map(|d| now + SimDuration::from_micros(d as u64));
                if self.held[which].map(|(t, _)| t) != at {
                    self.held[which] = at.map(|at| (at, self.queue.draw_seq()));
                }
            }
            Op::Pop(w) => {
                let horizon = now + SimDuration::from_micros(w as u64);
                while let Some((t, which)) = self.next().filter(|&(t, _)| t <= horizon) {
                    let fired = match which {
                        None => self.queue.pop().unwrap().1,
                        Some(which) => {
                            self.held[which] = None;
                            self.queue.advance_to(t);
                            Fired::Held(which)
                        }
                    };
                    out.push((t, fired));
                }
            }
        }
    }
}

fn op() -> impl Strategy<Value = Op> {
    // Small delays so equal times, and so FIFO ties, are common.
    let delay = || 0u8..6;
    prop_oneof![
        delay().prop_map(Op::Schedule),
        delay().prop_map(Op::Schedule),
        any::<usize>().prop_map(Op::Cancel),
        (0usize..2, prop::option::of(delay()))
            .prop_map(|(which, delay)| Op::Rearm { which, delay }),
        (0usize..2, prop::option::of(delay()))
            .prop_map(|(which, delay)| Op::Rearm { which, delay }),
        delay().prop_map(Op::Pop),
    ]
}

proptest! {
    #[test]
    fn held_entries_pop_like_rescheduled_heap_entries(
        ops in prop::collection::vec(op(), 1..64),
    ) {
        let mut a = Rescheduled::default();
        let mut b = Held::default();
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for (id, op) in ops.iter().enumerate() {
            a.apply(op, &mut got_a, id as u32);
            b.apply(op, &mut got_b, id as u32);
            prop_assert_eq!(&got_a, &got_b, "after op {} ({:?})", id, op);
            prop_assert_eq!(a.queue.now(), b.queue.now());
        }
        // Drain both to the end.
        a.apply(&Op::Pop(u8::MAX), &mut got_a, 0);
        b.apply(&Op::Pop(u8::MAX), &mut got_b, 0);
        prop_assert_eq!(got_a, got_b);
        prop_assert_eq!(a.queue.now(), b.queue.now());
    }
}

/// One hand-written script: a held wake-up re-armed to the instant of an
/// already scheduled event fires after it (its seq is younger), and one
/// armed before the event fires first.
#[test]
fn held_seq_orders_same_instant_ties() {
    let mut b = Held::default();
    let mut out = Vec::new();
    b.apply(
        &Op::Rearm {
            which: 0,
            delay: Some(5),
        },
        &mut out,
        0,
    );
    b.apply(&Op::Schedule(5), &mut out, 1);
    b.apply(
        &Op::Rearm {
            which: 1,
            delay: Some(5),
        },
        &mut out,
        2,
    );
    b.apply(&Op::Pop(5), &mut out, 3);
    let order: Vec<Fired> = out.iter().map(|&(_, f)| f).collect();
    assert_eq!(order, [Fired::Held(0), Fired::Real(1), Fired::Held(1)]);
    assert_eq!(b.queue.now(), us(5));
}
