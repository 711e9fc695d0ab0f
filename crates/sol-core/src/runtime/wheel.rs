//! A two-level bucketed time wheel: the queue of scheduled interventions
//! under [`NodeRuntime`](crate::runtime::node::NodeRuntime).
//!
//! The wheel was built as the runtime's one event queue, when agent wakes
//! were events too — tens of thousands of 1 ms-cadence wakes per virtual
//! minute, almost all firing within milliseconds of being scheduled — and
//! its shape still shows that load. Wakes now live in the runtime's wake
//! table; what is queued here is interventions only (a few dozen per run,
//! off the tick path: the runtime touches the wheel only when one is due),
//! and `benchmark/` drives the type in isolation. The two levels:
//!
//! * **Near horizon** — `BUCKETS` slots of `GRANULE` nanoseconds each
//!   (~1 ms, a power of two so slot mapping is a shift+mask). An event due
//!   within the wheel's span is appended to its slot's `Vec` — amortized one
//!   bounds check and a pointer bump. Slots are drained through a head
//!   cursor and their buffers are cleared-but-retained, so steady state runs
//!   allocation-free ("slab" reuse across epochs).
//! * **Far horizon** — everything past the span goes to a small overflow
//!   heap and migrates into the wheel as the base advances. Migration
//!   happens *before* any same-time direct insert can target those slots, so
//!   migrated events keep their scheduling order.
//!
//! # Exact pop order
//!
//! Events pop in exactly the old heap's order: earliest timestamp first,
//! ties broken by schedule order. Within a slot, insertion order is recorded
//! by a *per-bucket* `u32` counter (reset every time the slot empties —
//! there is no global sequence state), and a slot is lazily sorted by
//! `(at, seq)` only when pushes arrived out of time order. Across slots,
//! ring position is time order; across the two levels, the overflow heap
//! orders by `(at, seq)` and migrates ahead of any direct insert at the same
//! timestamp. The equivalence proptest in this module (driving the
//! test-only `runtime::testutil::ReferenceQueue` model) feeds arbitrary
//! schedule/drain/invalidate sequences through this wheel and a
//! reference heap and asserts identical pop sequences.

use std::collections::BinaryHeap;

use crate::time::Timestamp;

/// Number of near-horizon slots (power of two).
const BUCKETS: usize = 32;
/// log2 of each slot's width in nanoseconds (2^20 ns ≈ 1.05 ms).
const GRANULE_SHIFT: u32 = 20;
/// Width of one slot in nanoseconds.
const GRANULE: u64 = 1 << GRANULE_SHIFT;
/// Virtual time covered by the near horizon.
const SPAN: u64 = GRANULE * BUCKETS as u64;

/// An event resident in a near-horizon slot.
struct BucketEntry<K> {
    at: u64,
    /// Per-bucket insertion counter value at push time.
    seq: u32,
    kind: K,
}

/// One near-horizon slot: a drain-in-place vector of events.
struct Bucket<K> {
    events: Vec<BucketEntry<K>>,
    /// Index of the first undrained event; everything before it is dead.
    /// Draining advances this cursor instead of shifting the vector, and the
    /// buffer (capacity retained) is recycled once fully drained.
    head: usize,
    /// Next insertion sequence; reset to zero when the slot empties.
    seq: u32,
    /// Whether `events[head..]` is known to be `(at, seq)`-sorted.
    sorted: bool,
}

impl<K> Bucket<K> {
    const fn new() -> Self {
        Bucket { events: Vec::new(), head: 0, seq: 0, sorted: true }
    }

    fn is_empty(&self) -> bool {
        self.head == self.events.len()
    }

    fn push(&mut self, at: u64, kind: K) {
        if let Some(last) = self.events.last() {
            if at < last.at {
                self.sorted = false;
            }
        }
        let seq = self.seq;
        self.seq += 1;
        self.events.push(BucketEntry { at, seq, kind });
    }

    /// Sorts the undrained tail if pushes arrived out of time order. Keys
    /// `(at, seq)` are unique within a slot, so the order is total and the
    /// unstable sort is exact.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.events[self.head..].sort_unstable_by_key(|e| (e.at, e.seq));
            self.sorted = true;
        }
    }

    /// Recycles the slot once fully drained: capacity is retained, the
    /// sequence counter restarts.
    fn recycle(&mut self) {
        debug_assert!(self.is_empty());
        self.events.clear();
        self.head = 0;
        self.seq = 0;
        self.sorted = true;
    }
}

/// An event parked beyond the near horizon.
struct OverflowEntry<K> {
    at: u64,
    /// Overflow-level insertion counter value at push time.
    seq: u64,
    kind: K,
}

impl<K> PartialEq for OverflowEntry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<K> Eq for OverflowEntry<K> {}

impl<K> PartialOrd for OverflowEntry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for OverflowEntry<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, migration wants earliest first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The two-level wheel. `K` is the event payload; the scheduler itself only
/// knows times and insertion order.
///
/// The type is `#[doc(hidden)]` public: it is the intervention queue of
/// [`NodeRuntime`](crate::runtime::node::NodeRuntime), exposed only so
/// `benchmark/` can drive it in isolation (`wheel.ns_per_event_*`). It is
/// exempt from semver.
pub struct TimeWheel<K> {
    /// Slot-aligned lower edge of the near horizon. Every undrained event in
    /// the slots satisfies `base <= at < base + SPAN` — except past-due
    /// events, which are clamped into the base slot.
    base: u64,
    buckets: Box<[Bucket<K>; BUCKETS]>,
    /// Events at or beyond `base + SPAN`, ordered `(at, seq)`.
    overflow: BinaryHeap<OverflowEntry<K>>,
    overflow_seq: u64,
    /// Total undrained events across both levels.
    len: usize,
}

impl<K> Default for TimeWheel<K> {
    fn default() -> Self {
        TimeWheel::new()
    }
}

impl<K> TimeWheel<K> {
    /// An empty wheel with its base at the origin of simulated time.
    pub fn new() -> Self {
        TimeWheel {
            base: 0,
            buckets: Box::new([const { Bucket::new() }; BUCKETS]),
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The near horizon's exclusive upper edge, saturating so `Timestamp::MAX`
    /// sentinels cannot wrap the comparison.
    fn horizon(&self) -> u64 {
        self.base.saturating_add(SPAN)
    }

    fn slot_of(&self, at: u64) -> usize {
        // Past-due events (schedules at or before already-drained time) are
        // clamped into the base slot; they still pop first because slots
        // order by `(at, seq)`.
        let eff = at.max(self.base);
        ((eff >> GRANULE_SHIFT) as usize) & (BUCKETS - 1)
    }

    /// Inserts an event. `O(1)` amortized: an append for the near horizon, a
    /// heap push for the far one.
    pub fn schedule(&mut self, at: Timestamp, kind: K) {
        let at = at.as_nanos();
        if at >= self.horizon() {
            let seq = self.overflow_seq;
            self.overflow_seq += 1;
            self.overflow.push(OverflowEntry { at, seq, kind });
        } else {
            let slot = self.slot_of(at);
            self.buckets[slot].push(at, kind);
        }
        self.len += 1;
    }

    /// Pulls every overflow event now inside the near horizon into its slot,
    /// in `(at, seq)` order so migrated events keep their scheduling order
    /// (they always precede later direct inserts at the same timestamp).
    fn migrate_overflow(&mut self) {
        let horizon = self.horizon();
        while self.overflow.peek().map(|e| e.at < horizon).unwrap_or(false) {
            let e = self.overflow.pop().expect("peeked");
            let slot = self.slot_of(e.at);
            self.buckets[slot].push(e.at, e.kind);
        }
        if self.overflow.is_empty() {
            self.overflow_seq = 0;
        }
    }

    /// Advances `base` to the slot containing `at` (never backwards) and
    /// migrates newly near overflow events.
    fn advance_base_to(&mut self, at: u64) {
        let aligned = at & !(GRANULE - 1);
        if aligned > self.base {
            self.base = aligned;
            self.migrate_overflow();
        }
    }

    /// Index of the first non-empty slot in ring order from `base`, after
    /// advancing `base` (and migrating) to skip leading empty slots. Returns
    /// `None` when every slot is empty.
    fn first_busy_slot(&mut self) -> Option<usize> {
        if self.len == self.overflow.len() {
            return None;
        }
        let mut slot = (self.base >> GRANULE_SHIFT) as usize & (BUCKETS - 1);
        for step in 0..BUCKETS {
            if !self.buckets[slot].is_empty() {
                if step > 0 {
                    // Skipped slots are empty: base can move to this slot's
                    // granule so future scans start here and overflow events
                    // inside the widened horizon come near.
                    let slot_start =
                        self.base.saturating_add(step as u64 * GRANULE) & !(GRANULE - 1);
                    self.advance_base_to(slot_start);
                }
                return Some(slot);
            }
            slot = (slot + 1) & (BUCKETS - 1);
        }
        unreachable!("len accounting says a slot is busy");
    }

    /// Earliest pending event time, discarding invalidated head events along
    /// the way (matching the old heap's lazy invalidation on peek). `valid`
    /// is consulted only for events that would define the wheel's head; the
    /// runtime's interventions are always valid.
    pub fn peek(&mut self, valid: impl Fn(&K) -> bool) -> Option<Timestamp> {
        loop {
            match self.first_busy_slot() {
                Some(slot) => {
                    let bucket = &mut self.buckets[slot];
                    bucket.ensure_sorted();
                    while bucket.head < bucket.events.len() {
                        if valid(&bucket.events[bucket.head].kind) {
                            return Some(Timestamp::from_nanos(bucket.events[bucket.head].at));
                        }
                        bucket.head += 1;
                        self.len -= 1;
                    }
                    bucket.recycle();
                }
                None => {
                    let horizon = self.horizon();
                    match self.overflow.peek() {
                        None => return None,
                        Some(e) if e.at >= horizon && self.base >= e.at & !(GRANULE - 1) => {
                            // Saturating top end: the event cannot be brought
                            // inside any horizon (at ~ u64::MAX). Peek it in
                            // place, discarding stale heads like a slot would.
                            if valid(&self.overflow.peek().expect("peeked").kind) {
                                return Some(Timestamp::from_nanos(
                                    self.overflow.peek().expect("peeked").at,
                                ));
                            }
                            self.overflow.pop();
                            self.len -= 1;
                        }
                        Some(e) => {
                            let at = e.at;
                            self.advance_base_to(at);
                        }
                    }
                }
            }
        }
    }

    /// Drains every event due at or before `next` into `out`, in exact
    /// `(at, seq)` order — the batch-slice pop: one sorted slot walk instead
    /// of one heap rebalance per event. Invalidated events are drained too
    /// (the caller's dispatch ignores them), matching the old heap.
    pub fn drain_due(&mut self, next: Timestamp, out: &mut Vec<K>) {
        let next = next.as_nanos();
        loop {
            match self.first_busy_slot() {
                Some(slot) => {
                    let bucket = &mut self.buckets[slot];
                    bucket.ensure_sorted();
                    if bucket.events[bucket.head].at > next {
                        return;
                    }
                    let mut end = bucket.head + 1;
                    while end < bucket.events.len() && bucket.events[end].at <= next {
                        end += 1;
                    }
                    self.len -= end - bucket.head;
                    let mut drained = bucket.events.drain(..end);
                    // Skip (and drop) the invalidated prefix peek left behind.
                    for _ in 0..bucket.head {
                        drained.next();
                    }
                    out.extend(drained.map(|e| e.kind));
                    bucket.head = 0;
                    if bucket.events.is_empty() {
                        bucket.recycle();
                        // Past-due events can span several slots; keep going.
                        continue;
                    }
                    return;
                }
                None => match self.overflow.peek() {
                    Some(e) if e.at <= next => {
                        let e = self.overflow.pop().expect("peeked");
                        out.push(e.kind);
                        self.len -= 1;
                    }
                    _ => return,
                },
            }
        }
    }

    /// Heap bytes retained by the scheduler (slot and overflow capacity).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of::<[Bucket<K>; BUCKETS]>()
            + self
                .buckets
                .iter()
                .map(|b| b.events.capacity() * std::mem::size_of::<BucketEntry<K>>())
                .sum::<usize>()
            + self.overflow.capacity() * std::mem::size_of::<OverflowEntry<K>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_nanos(n)
    }

    /// Pops every event one at a time via peek + drain_due(peek time).
    fn pop_all(wheel: &mut TimeWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(at) = wheel.peek(|_| true) {
            let mut batch = Vec::new();
            wheel.drain_due(at, &mut batch);
            assert!(!batch.is_empty(), "peek promised a due event");
            out.extend(batch.into_iter().map(|k| (at.as_nanos(), k)));
        }
        assert_eq!(wheel.len(), 0);
        out
    }

    #[test]
    fn pops_in_time_then_schedule_order() {
        let mut wheel = TimeWheel::new();
        // Deliberately out of time order, with same-time collisions.
        wheel.schedule(ts(500), 0);
        wheel.schedule(ts(100), 1);
        wheel.schedule(ts(500), 2);
        wheel.schedule(ts(100), 3);
        wheel.schedule(ts(0), 4);
        let popped = pop_all(&mut wheel);
        assert_eq!(popped, vec![(0, 4), (100, 1), (100, 3), (500, 0), (500, 2)]);
    }

    #[test]
    fn far_events_overflow_and_migrate_in_schedule_order() {
        let mut wheel = TimeWheel::new();
        let far = SPAN * 3 + 17;
        wheel.schedule(ts(far), 0);
        wheel.schedule(ts(far), 1);
        wheel.schedule(ts(10), 2);
        wheel.schedule(ts(far + GRANULE), 3);
        let popped = pop_all(&mut wheel);
        assert_eq!(popped, vec![(10, 2), (far, 0), (far, 1), (far + GRANULE, 3)]);
    }

    #[test]
    fn migrated_event_precedes_later_direct_insert_at_same_time() {
        let mut wheel = TimeWheel::new();
        let t = SPAN + 5;
        wheel.schedule(ts(t), 0); // beyond horizon: parked in overflow
        wheel.schedule(ts(1), 1);
        let mut batch = Vec::new();
        wheel.drain_due(ts(1), &mut batch);
        assert_eq!(batch, vec![1]);
        // Base has not advanced past t yet; peek advances it and migrates.
        assert_eq!(wheel.peek(|_| true), Some(ts(t)));
        wheel.schedule(ts(t), 2); // direct insert at the same timestamp
        let popped = pop_all(&mut wheel);
        assert_eq!(popped, vec![(t, 0), (t, 2)]);
    }

    #[test]
    fn drain_due_crosses_slot_boundaries() {
        let mut wheel = TimeWheel::new();
        for i in 0..8u32 {
            wheel.schedule(ts(u64::from(i) * GRANULE), i);
        }
        let mut batch = Vec::new();
        wheel.drain_due(ts(5 * GRANULE), &mut batch);
        assert_eq!(batch, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.peek(|_| true), Some(ts(6 * GRANULE)));
    }

    #[test]
    fn past_due_schedule_pops_before_future_events() {
        let mut wheel = TimeWheel::new();
        wheel.schedule(ts(SPAN * 2), 0);
        // Drain time forward so base advances well past zero.
        assert_eq!(wheel.peek(|_| true), Some(ts(SPAN * 2)));
        // Now schedule something earlier than the current base.
        wheel.schedule(ts(3), 1);
        let popped = pop_all(&mut wheel);
        assert_eq!(popped, vec![(3, 1), (SPAN * 2, 0)]);
    }

    #[test]
    fn peek_discards_invalid_head_events() {
        let mut wheel = TimeWheel::new();
        wheel.schedule(ts(10), 0);
        wheel.schedule(ts(20), 1);
        wheel.schedule(ts(30), 2);
        // Events 0 and 1 are stale: peek must skip (and drop) them.
        assert_eq!(wheel.peek(|k| *k >= 2), Some(ts(30)));
        assert_eq!(wheel.len(), 1);
        let popped = pop_all(&mut wheel);
        assert_eq!(popped, vec![(30, 2)]);
    }

    #[test]
    fn timestamp_max_sentinel_is_schedulable_and_popped() {
        let mut wheel = TimeWheel::new();
        wheel.schedule(Timestamp::MAX, 0);
        wheel.schedule(Timestamp::MAX, 1);
        wheel.schedule(ts(7), 2);
        assert_eq!(wheel.peek(|_| true), Some(ts(7)));
        let popped = pop_all(&mut wheel);
        assert_eq!(
            popped,
            vec![(7, 2), (u64::MAX, 0), (u64::MAX, 1)],
            "MAX sentinels pop last, in schedule order"
        );
    }

    #[test]
    fn max_sentinel_head_respects_validity() {
        let mut wheel = TimeWheel::new();
        wheel.schedule(Timestamp::MAX, 0);
        wheel.schedule(Timestamp::MAX, 1);
        // The first sentinel is stale: peek drops it, keeps the second.
        assert_eq!(wheel.peek(|k| *k == 1), Some(Timestamp::MAX));
        assert_eq!(wheel.len(), 1);
    }

    #[test]
    fn slot_buffers_are_recycled_not_reallocated() {
        let mut wheel = TimeWheel::new();
        for round in 0..3u64 {
            for i in 0..100u32 {
                wheel.schedule(ts(round * 10 + u64::from(i % 3)), i);
            }
            let mut batch = Vec::new();
            wheel.drain_due(ts(round * 10 + 2), &mut batch);
            assert_eq!(batch.len(), 100);
        }
        let bytes_after_warmup = wheel.mem_bytes();
        for round in 3..6u64 {
            for i in 0..100u32 {
                wheel.schedule(ts(round * 10 + u64::from(i % 3)), i);
            }
            let mut batch = Vec::new();
            wheel.drain_due(ts(round * 10 + 2), &mut batch);
            assert_eq!(batch.len(), 100);
        }
        assert_eq!(wheel.mem_bytes(), bytes_after_warmup, "steady state allocates nothing new");
    }

    #[test]
    fn mem_bytes_tracks_slot_capacity() {
        let mut wheel = TimeWheel::new();
        let empty = wheel.mem_bytes();
        for i in 0..1000u32 {
            wheel.schedule(ts(u64::from(i)), i);
        }
        assert!(wheel.mem_bytes() > empty);
    }

    mod equivalence {
        use proptest::prelude::*;

        use super::super::{TimeWheel, GRANULE, SPAN};
        use crate::runtime::testutil::ReferenceQueue;
        use crate::time::Timestamp;

        /// One step of the scheduler workload. A cancel+reschedule is an
        /// `Invalidate` of the old entry plus a fresh `Schedule`, which the
        /// sequence generator produces by composition.
        #[derive(Debug, Clone)]
        enum Op {
            /// Schedule a fresh event at an absolute time (nanos).
            Schedule(u64),
            /// Schedule a `Timestamp::MAX` parked-sentinel event.
            ScheduleMax,
            /// Invalidate a previously scheduled event (index modulo the
            /// number scheduled so far).
            Invalidate(usize),
            /// Peek both queues under the current validity set and compare.
            Peek,
            /// Drain both queues to an absolute time and compare order.
            Drain(u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                // Dense near-horizon traffic: same-slot collisions and ties.
                3 => (0u64..GRANULE * 8).prop_map(Op::Schedule),
                // Sparse far traffic: overflow parking and migration.
                3 => (0u64..SPAN * 4).prop_map(Op::Schedule),
                1 => Just(Op::ScheduleMax),
                2 => any::<usize>().prop_map(Op::Invalidate),
                2 => Just(Op::Peek),
                3 => (0u64..SPAN * 4).prop_map(Op::Drain),
            ]
        }

        proptest! {
            /// The wheel is observationally identical to the old global-
            /// sequence heap: same peek times, same drain order, same lazy
            /// discard of invalidated heads — under arbitrary interleavings
            /// of near/far/past-due/sentinel schedules, cancellations, and
            /// partial drains.
            #[test]
            fn wheel_matches_reference_heap(ops in proptest::collection::vec(op(), 1..250)) {
                let mut wheel = TimeWheel::new();
                let mut reference = ReferenceQueue::new();
                let mut next_id: u32 = 0;
                let mut invalid = std::collections::HashSet::new();
                for op in ops {
                    match op {
                        Op::Schedule(at) => {
                            wheel.schedule(Timestamp::from_nanos(at), next_id);
                            reference.schedule(Timestamp::from_nanos(at), next_id);
                            next_id += 1;
                        }
                        Op::ScheduleMax => {
                            wheel.schedule(Timestamp::MAX, next_id);
                            reference.schedule(Timestamp::MAX, next_id);
                            next_id += 1;
                        }
                        Op::Invalidate(i) => {
                            if next_id > 0 {
                                invalid.insert((i % next_id as usize) as u32);
                            }
                        }
                        Op::Peek => {
                            let w = wheel.peek(|k| !invalid.contains(k));
                            let r = reference.peek(|k| !invalid.contains(k));
                            prop_assert_eq!(w, r);
                        }
                        Op::Drain(t) => {
                            let (mut w, mut r) = (Vec::new(), Vec::new());
                            wheel.drain_due(Timestamp::from_nanos(t), &mut w);
                            reference.drain_due(Timestamp::from_nanos(t), &mut r);
                            prop_assert_eq!(w, r);
                        }
                    }
                }
                // Run both queues dry; they must agree to exhaustion.
                loop {
                    let w = wheel.peek(|k| !invalid.contains(k));
                    let r = reference.peek(|k| !invalid.contains(k));
                    prop_assert_eq!(w, r);
                    let Some(at) = w else { break };
                    let (mut w, mut r) = (Vec::new(), Vec::new());
                    wheel.drain_due(at, &mut w);
                    reference.drain_due(at, &mut r);
                    prop_assert_eq!(&w, &r);
                    prop_assert!(!w.is_empty(), "peek promised a due event");
                }
                prop_assert_eq!(wheel.len(), 0);
            }
        }
    }
}
