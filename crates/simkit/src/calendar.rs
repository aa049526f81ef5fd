//! The event calendar: a priority queue of timestamped events with
//! deterministic tie-breaking and cancellation.
//!
//! Events that share a timestamp are delivered in the order they were
//! scheduled (FIFO), which makes simulation runs reproducible.
//!
//! Cancellation uses a generation-checked slab instead of a hash set:
//! each handle is a `(slot, generation)` pair, so `schedule`, `cancel`,
//! and `pop` never hash — liveness is one array compare. Cancelled
//! entries stay where they were queued, but the fronts are eagerly
//! purged of dead entries after every mutation, so `pop` always finds a
//! live entry at a front.
//!
//! Events come in through two queues that share the slab and the
//! schedule order: a binary heap for any time, and an in-order lane for
//! events scheduled at non-decreasing times
//! ([`Calendar::schedule_in_order`]), such as a periodic chain whose
//! next beat is always one period after the current instant. The lane
//! is a FIFO, so those events cost O(1) to schedule and pop, and the
//! heap holds only the rest. `pop` takes the earlier of the two fronts
//! by `(time, seq)`, so the delivery order is the one a single heap
//! gives.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Identifies a scheduled event so it can later be [cancelled].
///
/// A handle is a slab slot plus a per-slot generation; a handle goes
/// stale the moment its event fires or is cancelled, so acting on a
/// stale handle is always a detected no-op (generations would have to
/// wrap 2^32 times on one slot for a handle to falsely match — out of
/// reach for any realistic run).
///
/// [cancelled]: Calendar::cancel
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> EventId {
        EventId((gen as u64) << 32 | slot as u64)
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw handle bits, mainly useful for logging.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    /// Global schedule order; breaks timestamp ties FIFO.
    seq: u64,
    id: EventId,
    payload: E,
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ordered by time, then by schedule order. Payload never
        // participates in ordering.
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

/// A deterministic event calendar.
///
/// Both [`Calendar::schedule`] and [`Calendar::schedule_in_order`]
/// deliver in `(time, schedule order)`; the second is a cheaper path
/// for callers whose times never go down.
///
/// # Example
///
/// ```
/// use simkit::calendar::Calendar;
/// use simkit::time::SimTime;
///
/// let mut cal = Calendar::new();
/// let a = cal.schedule(SimTime::from_secs(5), "a");
/// let _b = cal.schedule(SimTime::from_secs(5), "b");
/// cal.cancel(a);
/// let (_, _, payload) = cal.pop().unwrap();
/// assert_eq!(payload, "b");
/// assert!(cal.pop().is_none());
/// ```
#[derive(Debug)]
pub struct Calendar<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Entries scheduled in order: ascending `(time, seq)` front to
    /// back, since each is at or after the one before and `seq` grows.
    lane: VecDeque<Entry<E>>,
    /// Current generation of each slot. A queued entry is live iff its
    /// handle's generation matches its slot's.
    generations: Vec<u32>,
    /// Slots whose events fired or were cancelled, ready for reuse.
    free_slots: Vec<u32>,
    /// Live (scheduled, not cancelled) event count.
    live: usize,
    next_seq: u64,
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            generations: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `time` and returns a handle
    /// that can cancel it.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let entry = self.entry(time, payload);
        let id = entry.id;
        self.heap.push(Reverse(entry));
        id
    }

    /// [`Calendar::schedule`] for an event at or after every event
    /// scheduled in order before it: it joins the in-order lane, which
    /// costs O(1) now and at its pop. An earlier `time` than the lane's
    /// last goes to the heap instead, so any call order is correct.
    pub fn schedule_in_order(&mut self, time: SimTime, payload: E) -> EventId {
        if self.lane.back().is_some_and(|last| time < last.time) {
            return self.schedule(time, payload);
        }
        let entry = self.entry(time, payload);
        let id = entry.id;
        self.lane.push_back(entry);
        id
    }

    /// Takes a slot and the next schedule order for a new entry.
    fn entry(&mut self, time: SimTime, payload: E) -> Entry<E> {
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.generations.len()).expect("slot count fits u32");
                self.generations.push(0);
                slot
            }
        };
        let id = EventId::new(slot, self.generations[slot as usize]);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        Entry {
            time,
            seq,
            id,
            payload,
        }
    }

    /// Retires an id's slot: invalidates every outstanding handle to it
    /// and queues it for reuse.
    fn retire(&mut self, id: EventId) {
        self.generations[id.slot()] = id.gen().wrapping_add(1);
        self.free_slots.push(id.slot() as u32);
        self.live -= 1;
    }

    fn is_live(&self, id: EventId) -> bool {
        self.generations[id.slot()] == id.gen()
    }

    /// Drops dead entries from the heap top and the lane front so `pop`
    /// sees a live entry at each (or an empty queue).
    fn purge_fronts(&mut self) {
        while self
            .heap
            .peek()
            .is_some_and(|Reverse(entry)| !self.is_live(entry.id))
        {
            self.heap.pop();
        }
        while self
            .lane
            .front()
            .is_some_and(|entry| !self.is_live(entry.id))
        {
            self.lane.pop_front();
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// The entry stays queued and is dropped when it reaches a front.
    /// Returns `true` if the event was still pending, `false` if it
    /// had already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let live = self
            .generations
            .get(id.slot())
            .is_some_and(|&gen| gen == id.gen());
        if live {
            self.retire(id);
            self.purge_fronts();
        }
        live
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        // Both fronts are always live (see `purge_fronts`), so no skip
        // loop here.
        let from_lane = match (self.heap.peek(), self.lane.front()) {
            (Some(Reverse(top)), Some(front)) => front < top,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        let entry = if from_lane {
            self.lane.pop_front()?
        } else {
            self.heap.pop()?.0
        };
        debug_assert!(self.is_live(entry.id));
        self.retire(entry.id);
        self.purge_fronts();
        Some((entry.time, entry.id, entry.payload))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), 3u32);
        cal.schedule(SimTime::from_secs(1), 1);
        cal.schedule(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_breaking() {
        let mut cal = Calendar::new();
        for i in 0..100u32 {
            cal.schedule(SimTime::from_secs(7), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_tie_breaking_survives_slot_reuse() {
        // Slots freed by fired events are reused by later schedules; the
        // FIFO order must follow schedule time, not slot index.
        let mut cal = Calendar::new();
        for i in 0..10u32 {
            cal.schedule(SimTime::from_secs(1), i);
        }
        for _ in 0..10 {
            cal.pop().unwrap();
        }
        // These reuse the ten freed slots (in LIFO slot order).
        for i in 0..10u32 {
            cal.schedule(SimTime::from_secs(2), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_secs(1), "a");
        let b = cal.schedule(SimTime::from_secs(2), "b");
        assert_eq!(cal.len(), 2);
        assert!(cal.cancel(a));
        assert!(!cal.cancel(a), "double cancel must be a no-op");
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop().unwrap().2, "b");
        assert!(!cal.cancel(b), "cancelling a fired event must fail");
        assert!(cal.is_empty());
    }

    #[test]
    fn stale_handle_to_reused_slot_is_rejected() {
        let mut cal = Calendar::new();
        let a = cal.schedule(SimTime::from_secs(1), "a");
        assert!(cal.cancel(a));
        // "b" reuses a's slot with a bumped generation.
        let b = cal.schedule(SimTime::from_secs(2), "b");
        assert_eq!(a.as_u64() as u32, b.as_u64() as u32, "slot reused");
        assert!(!cal.cancel(a), "stale handle must not cancel the new event");
        assert_eq!(cal.pop().unwrap().2, "b");
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(!cal.cancel(EventId(42)));
    }

    #[test]
    fn lane_and_heap_merge_by_time_then_schedule_order() {
        let mut cal = Calendar::new();
        cal.schedule_in_order(SimTime::from_secs(1), "lane 1");
        cal.schedule(SimTime::from_secs(2), "heap 2");
        cal.schedule_in_order(SimTime::from_secs(2), "lane 2");
        cal.schedule(SimTime::from_secs(1), "heap 1");
        cal.schedule_in_order(SimTime::from_secs(3), "lane 3");
        let order: Vec<&str> = std::iter::from_fn(|| cal.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["lane 1", "heap 1", "heap 2", "lane 2", "lane 3"]);
    }

    #[test]
    fn an_earlier_in_order_event_falls_back_to_the_heap() {
        let mut cal = Calendar::new();
        cal.schedule_in_order(SimTime::from_secs(5), "late");
        cal.schedule_in_order(SimTime::from_secs(2), "early");
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.pop().unwrap().2, "early");
        assert_eq!(cal.pop().unwrap().2, "late");
        assert!(cal.pop().is_none());
    }

    #[test]
    fn cancelled_lane_entries_are_skipped() {
        let mut cal = Calendar::new();
        let a = cal.schedule_in_order(SimTime::from_secs(1), "a");
        let b = cal.schedule_in_order(SimTime::from_secs(2), "b");
        cal.schedule_in_order(SimTime::from_secs(3), "c");
        assert!(cal.cancel(b));
        assert!(cal.cancel(a));
        assert!(!cal.cancel(a));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop().unwrap().2, "c");
        assert!(cal.is_empty());
        assert!(cal.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut cal = Calendar::new();
        let mut now = SimTime::ZERO;
        cal.schedule(now + SimDuration::from_secs(1), 1u32);
        let mut seen = Vec::new();
        while let Some((t, _, p)) = cal.pop() {
            assert!(t >= now, "time went backwards");
            now = t;
            seen.push(p);
            if p < 5 {
                cal.schedule(now + SimDuration::from_secs(1), p + 1);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn large_volume_is_sorted() {
        // Deterministic pseudo-random insertion order.
        let mut cal = Calendar::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cal.schedule(SimTime::from_micros(x % 1_000_000), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _, _)) = cal.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}
