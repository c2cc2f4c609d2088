//! The event calendar at the heart of the discrete-event simulation.
//!
//! [`EventQueue`] is a priority queue of `(fire_time, payload)` entries with
//! two guarantees that matter for reproducibility:
//!
//! 1. **Deterministic tie-breaking** — events scheduled for the same instant
//!    fire in scheduling order (FIFO among ties), independent of heap
//!    internals.
//! 2. **Monotonic clock** — popping an event advances the queue's notion of
//!    `now`; scheduling in the past is rejected (panic in debug, clamped to
//!    `now` in release) so causality violations surface during development.
//!
//! # Storage
//!
//! Entries live in a slab (`Vec` of slots with an intrusive free list); the
//! heap is an *indexed* binary heap of slot ids, and every slot knows its
//! heap position. This buys two things the earlier `BinaryHeap`+`HashSet`
//! design could not offer:
//!
//! - **True O(log n) cancellation** — [`EventQueue::cancel`] removes the
//!   entry from the heap immediately (swap with the last leaf, sift). No
//!   tombstones accumulate, so cancel + reschedule churn (request
//!   deadlines cancelled by their response) leaves no garbage behind.
//! - **Zero steady-state allocation** — cancelled and fired slots return to
//!   the free list and are reused by the next `schedule_*` call. Once the
//!   calendar reaches its high-water mark, scheduling allocates nothing.
//!
//! Stale keys are harmless: each slot carries the sequence number of its
//! current occupant, and a key whose sequence does not match is rejected.
//!
//! # Held entries
//!
//! A caller that keeps a wake-up of its own outside the heap (one slot it
//! re-arms after every event) can order it against the calendar without
//! cancelling and rescheduling: [`EventQueue::draw_seq`] hands it the seq a
//! `schedule_*` call would have used, [`EventQueue::peek_key`] exposes the
//! head's `(time, seq)` to compare against, and [`EventQueue::advance_to`]
//! moves the clock when the held entry fires first. Pops come out exactly
//! as if the held entry had been scheduled at the instant its seq was
//! drawn.

use crate::time::SimTime;
use std::cmp::Ordering;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    slot: u32,
    seq: u64,
}

struct Slot<E> {
    at: SimTime,
    /// Sequence number of the current occupant; breaks ties FIFO and
    /// invalidates stale keys after the slot is reused.
    seq: u64,
    /// Position of this slot's id inside `heap` (meaningful only while
    /// occupied).
    pos: u32,
    /// `Some` while scheduled; `None` marks a free slot (then `pos` is the
    /// next free slot id, forming an intrusive free list).
    payload: Option<E>,
}

/// A deterministic discrete-event calendar.
///
/// ```
/// use resex_simcore::event::EventQueue;
/// use resex_simcore::time::SimTime;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_at(SimTime::from_micros(5), "b");
/// q.schedule_at(SimTime::from_micros(2), "a");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_micros(2), "a"));
/// assert_eq!(q.now(), SimTime::from_micros(2));
/// ```
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Head of the intrusive free list threaded through `Slot::pos`, or
    /// `NO_SLOT` when every slot is occupied.
    free_head: u32,
    /// Binary min-heap of occupied slot ids, ordered by `(at, seq)`.
    heap: Vec<u32>,
    next_seq: u64,
    now: SimTime,
}

const NO_SLOT: u32 = u32::MAX;

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NO_SLOT,
            heap: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated instant (time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a causality bug: debug builds panic; release
    /// builds clamp to `now` so long experiments degrade instead of dying.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventKey {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at}, now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.draw_seq();
        let slot = if self.free_head != NO_SLOT {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            self.free_head = s.pos;
            s.at = at;
            s.seq = seq;
            s.payload = Some(payload);
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot != NO_SLOT, "event calendar slot space exhausted");
            self.slots.push(Slot {
                at,
                seq,
                pos: 0,
                payload: Some(payload),
            });
            slot
        };
        let pos = self.heap.len() as u32;
        self.slots[slot as usize].pos = pos;
        self.heap.push(slot);
        self.sift_up(pos as usize);
        EventKey { slot, seq }
    }

    /// Cancels a previously scheduled event. Returns true if the event was
    /// still pending (i.e. had not fired and was not already cancelled).
    ///
    /// Cancelling a key that already fired — or was already cancelled, or
    /// was never issued — returns false and changes nothing: the slot's
    /// sequence number identifies its current occupant, so stale keys
    /// cannot touch a reused slot.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let Some(s) = self.slots.get(key.slot as usize) else {
            return false;
        };
        if s.payload.is_none() || s.seq != key.seq {
            return false;
        }
        let pos = s.pos as usize;
        self.remove_at(pos);
        self.release(key.slot);
        true
    }

    /// The firing time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&slot| self.slots[slot as usize].at)
    }

    /// The `(time, seq)` ordering key of the next event, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(|_| self.rank(0))
    }

    /// Draws the sequence number the next `schedule_*` call would use, for
    /// an entry the caller holds outside the heap.
    #[inline]
    pub fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Advances `now` to `at`, the time of a held entry that fires ahead of
    /// every scheduled one.
    #[inline]
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(
            at >= self.now && self.peek_key().is_none_or(|(t, _)| at <= t),
            "held entry fires out of order: at={at}, now={}",
            self.now
        );
        self.now = at;
    }

    /// Pops the next event, advancing `now` to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &slot = self.heap.first()?;
        self.remove_at(0);
        let s = &mut self.slots[slot as usize];
        let at = s.at;
        debug_assert!(at >= self.now, "event calendar went backwards");
        self.now = at;
        let payload = s.payload.take().expect("heap entry has a payload");
        self.release_freed(slot);
        Some((at, payload))
    }

    /// Pushes `slot` onto the free list; the payload must already be gone.
    fn release_freed(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.payload.is_none());
        s.pos = self.free_head;
        self.free_head = slot;
    }

    /// Drops the payload of `slot` and pushes it onto the free list.
    fn release(&mut self, slot: u32) {
        self.slots[slot as usize].payload = None;
        self.release_freed(slot);
    }

    /// `(at, seq)` ordering key of the slot at heap position `pos`.
    #[inline]
    fn rank(&self, pos: usize) -> (SimTime, u64) {
        let s = &self.slots[self.heap[pos] as usize];
        (s.at, s.seq)
    }

    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        self.rank(a).cmp(&self.rank(b)) == Ordering::Less
    }

    /// Swaps the heap entries at positions `a` and `b`, fixing back-links.
    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slots[self.heap[a] as usize].pos = a as u32;
        self.slots[self.heap[b] as usize].pos = b as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.less(pos, parent) {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let smallest = if right < self.heap.len() && self.less(right, left) {
                right
            } else {
                left
            };
            if !self.less(smallest, pos) {
                break;
            }
            self.swap(pos, smallest);
            pos = smallest;
        }
    }

    /// Removes the heap entry at position `pos` (the slot stays allocated;
    /// callers free or reuse it).
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        if pos != last {
            self.swap(pos, last);
        }
        self.heap.pop();
        if pos < self.heap.len() {
            // The transplanted leaf may need to move either direction.
            self.sift_down(pos);
            self.sift_up(pos);
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(us(30), 3);
        q.schedule_at(us(10), 1);
        q.schedule_at(us(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(us(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_at(us(10), ());
        q.schedule_at(us(25), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), us(10));
        q.pop();
        assert_eq!(q.now(), us(25));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(us(10), ());
        q.pop();
        q.schedule_at(us(5), ());
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let k1 = q.schedule_at(us(10), 1);
        q.schedule_at(us(20), 2);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(k1));
        assert!(!q.cancel(k1), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(us(20)));
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_key_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventKey {
            slot: u32::MAX,
            seq: u64::MAX
        }));
        assert!(!q.cancel(EventKey { slot: 99, seq: 0 }));
    }

    #[test]
    fn cancel_fired_key_reports_false() {
        // Regression: cancelling an already-fired key used to return true
        // and park the seq in the cancellation set forever.
        let mut q = EventQueue::new();
        let k = q.schedule_at(us(10), 1);
        assert_eq!(q.pop(), Some((us(10), 1)));
        assert!(!q.cancel(k), "a fired event is no longer pending");
        // The queue stays fully functional afterwards.
        let k2 = q.schedule_at(us(20), 2);
        assert!(q.cancel(k2));
        assert!(q.is_empty());
    }

    #[test]
    fn stale_key_cannot_cancel_a_reused_slot() {
        // Fire an event, then schedule another (which reuses the slot):
        // the old key must not be able to cancel the new occupant.
        let mut q = EventQueue::new();
        let k_old = q.schedule_at(us(10), 1);
        q.pop();
        let k_new = q.schedule_at(us(20), 2);
        assert!(!q.cancel(k_old), "stale key rejected");
        assert_eq!(q.len(), 1, "new occupant untouched");
        assert!(q.cancel(k_new));
    }

    #[test]
    fn cancellation_set_stays_bounded_in_long_runs() {
        // Cancel-after-fire in a loop: the backlog must not accumulate.
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            let k = q.schedule_at(q.now() + SimDuration::from_micros(1), i);
            q.pop();
            assert!(!q.cancel(k));
        }
        // Cancel-before-fire: entries are reclaimed immediately.
        let keys: Vec<_> = (0..100).map(|i| q.schedule_at(us(1_000_000), i)).collect();
        for k in keys {
            assert!(q.cancel(k));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slab_reuses_slots_without_growing() {
        // Steady-state churn (cancel + reschedule around every pop) must
        // not grow the slab.
        let mut q = EventQueue::new();
        let mut sync = q.schedule_at(us(1), 0u64);
        for i in 1..1_000u64 {
            q.schedule_at(us(i), i);
            q.pop();
            // Cancel outcome is irrelevant; only the slab bound matters.
            let _ = q.cancel(sync);
            sync = q.schedule_at(us(i + 1), 0u64);
        }
        assert!(
            q.slots.len() <= 8,
            "slab grew to {} slots under bounded churn",
            q.slots.len()
        );
    }

    #[test]
    fn interleaved_cancel_preserves_order() {
        // Cancel entries from the middle of the heap and check the
        // survivors still pop in exact (time, FIFO) order.
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..50u64).map(|i| q.schedule_at(us(i % 7), i)).collect();
        for (i, k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*k));
            }
        }
        let mut expect: Vec<(u64, u64)> = (0..50u64)
            .filter(|i| i % 3 != 0)
            .map(|i| (i % 7, i))
            .collect();
        expect.sort();
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos() / 1000, e))).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(us(10), ());
        assert_eq!(q.peek_time(), Some(us(10)));
        assert_eq!(q.now(), SimTime::ZERO);
    }
}
