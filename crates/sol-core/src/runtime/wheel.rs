//! The queue of scheduled interventions under
//! [`NodeRuntime`](crate::runtime::node::NodeRuntime): a binary heap over
//! `(at, seq)` — earliest time first, ties in schedule order. A run schedules
//! a handful (the busiest benchmark workload queues 30 per node-minute) and
//! the runtime touches the queue only when one is due, so this is the simplest
//! structure with the right pop order. An empty queue owns no heap memory.
//!
//! Module and type keep the name `wheel::TimeWheel` only because `benchmark/`
//! imports that path and may not be edited here; the rename is ROADMAP item 7.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Timestamp;

/// A queued event, ordered by `(at, seq)` alone — reversed, because
/// [`BinaryHeap`] is a max-heap and pops want the earliest first. `seq` counts
/// the events scheduled before this one: unique, so the order is total.
struct Entry<K> {
    at: Timestamp,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K> Eq for Entry<K> {}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The intervention queue; `K` is the event payload. `#[doc(hidden)]` public
/// and exempt from semver: exposed only so `benchmark/` can drive it in
/// isolation (`wheel.ns_per_event_*`).
pub struct TimeWheel<K> {
    heap: BinaryHeap<Entry<K>>,
    seq: u64,
}

impl<K> Default for TimeWheel<K> {
    fn default() -> Self {
        TimeWheel::new()
    }
}

impl<K> TimeWheel<K> {
    /// An empty queue; allocates nothing until the first `schedule`.
    pub fn new() -> Self {
        TimeWheel { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Inserts an event. A time already drained past is fine: it pops first.
    pub fn schedule(&mut self, at: Timestamp, kind: K) {
        self.heap.push(Entry { at, seq: self.seq, kind });
        self.seq += 1;
    }

    /// Earliest pending event time, dropping head events `valid` rejects.
    pub fn peek(&mut self, valid: impl Fn(&K) -> bool) -> Option<Timestamp> {
        while let Some(head) = self.heap.peek() {
            if valid(&head.kind) {
                return Some(head.at);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops every event due at or before `next` into `out`, in `(at, seq)`
    /// order. Validity is not consulted: the caller's dispatch decides.
    pub fn drain_due(&mut self, next: Timestamp, out: &mut Vec<K>) {
        while self.heap.peek().is_some_and(|e| e.at <= next) {
            out.push(self.heap.pop().expect("peeked").kind);
        }
    }

    /// Bytes held: the queue itself plus the heap's buffer.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap.capacity() * std::mem::size_of::<Entry<K>>()
    }
}

#[cfg(test)]
mod tests {
    //! Test names predate the heap (the suite is tracked by name): "slot",
    //! "overflow" and "migrated" are routes these inputs took through a 32-slot,
    //! 2^20 ns-a-slot wheel — near, far, far-then-near: still the cases to feed.

    use super::*;

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_nanos(n)
    }

    /// A queue holding one event per time, numbered in schedule order.
    fn queue_of(times: &[u64]) -> TimeWheel<u32> {
        let mut queue = TimeWheel::new();
        for (id, &at) in times.iter().enumerate() {
            queue.schedule(ts(at), id as u32);
        }
        queue
    }

    fn pop_all(queue: &mut TimeWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(at) = queue.peek(|_| true) {
            let mut batch = Vec::new();
            queue.drain_due(at, &mut batch);
            assert!(!batch.is_empty(), "peek promised a due event");
            out.extend(batch.into_iter().map(|k| (at.as_nanos(), k)));
        }
        out
    }

    #[test]
    fn pops_in_time_then_schedule_order() {
        let mut queue = queue_of(&[500, 100, 500, 100, 0]);
        assert_eq!(pop_all(&mut queue), vec![(0, 4), (100, 1), (100, 3), (500, 0), (500, 2)]);
    }

    #[test]
    fn far_events_overflow_and_migrate_in_schedule_order() {
        let far = 100_663_313;
        let mut queue = queue_of(&[far, far, 10, far + 1_048_576]);
        assert_eq!(pop_all(&mut queue), vec![(10, 2), (far, 0), (far, 1), (far + 1_048_576, 3)]);
    }

    #[test]
    fn migrated_event_precedes_later_direct_insert_at_same_time() {
        let t = 33_554_437;
        let mut queue = queue_of(&[t, 1]);
        let mut batch = Vec::new();
        queue.drain_due(ts(1), &mut batch);
        assert_eq!(batch, vec![1]);
        assert_eq!(queue.peek(|_| true), Some(ts(t)));
        queue.schedule(ts(t), 2);
        assert_eq!(pop_all(&mut queue), vec![(t, 0), (t, 2)]);
    }

    #[test]
    fn drain_due_crosses_slot_boundaries() {
        let mut queue = queue_of(&[0, 1, 2, 3, 4, 5, 6, 7].map(|i| i * 1_048_576));
        let mut batch = Vec::new();
        queue.drain_due(ts(5 * 1_048_576), &mut batch);
        assert_eq!(batch, vec![0, 1, 2, 3, 4, 5], "everything at or before `next`");
        assert_eq!(queue.peek(|_| true), Some(ts(6 * 1_048_576)));
    }

    #[test]
    fn past_due_schedule_pops_before_future_events() {
        let mut queue = queue_of(&[67_108_864]);
        assert_eq!(queue.peek(|_| true), Some(ts(67_108_864)));
        queue.schedule(ts(3), 1);
        assert_eq!(pop_all(&mut queue), vec![(3, 1), (67_108_864, 0)]);
    }

    #[test]
    fn peek_discards_invalid_head_events() {
        let mut queue = queue_of(&[10, 20, 30]);
        // Events 0 and 1 are stale: peek must skip (and drop) them.
        assert_eq!(queue.peek(|k| *k >= 2), Some(ts(30)));
        assert_eq!(pop_all(&mut queue), vec![(30, 2)]);
    }

    #[test]
    fn timestamp_max_sentinel_is_schedulable_and_popped() {
        let mut queue = queue_of(&[u64::MAX, u64::MAX, 7]);
        assert_eq!(queue.peek(|_| true), Some(ts(7)));
        assert_eq!(pop_all(&mut queue), vec![(7, 2), (u64::MAX, 0), (u64::MAX, 1)]);
    }

    #[test]
    fn max_sentinel_head_respects_validity() {
        let mut queue = queue_of(&[u64::MAX, u64::MAX]);
        assert_eq!(queue.peek(|k| *k == 1), Some(Timestamp::MAX));
        assert_eq!(pop_all(&mut queue), vec![(u64::MAX, 1)]);
    }

    #[test]
    fn mem_bytes_is_the_struct_plus_the_heap_buffer() {
        let empty = std::mem::size_of::<TimeWheel<u32>>();
        assert_eq!(TimeWheel::<u32>::new().mem_bytes(), empty, "no heap memory when empty");
        let mut queue = queue_of(&[5; 1000]);
        let full = queue.mem_bytes();
        assert!(full >= empty + 1000 * std::mem::size_of::<Entry<u32>>());
        // Capacity, not length, is what is held: draining keeps the buffer.
        queue.drain_due(Timestamp::MAX, &mut Vec::new());
        assert_eq!(queue.mem_bytes(), full);
    }

    mod equivalence {
        use proptest::prelude::*;

        use super::{ts, TimeWheel};

        /// One step of the queue's workload: schedule at / drain to an absolute
        /// time in nanos, or invalidate the event with this id (scheduled or
        /// yet to be). A cancel+reschedule is an `Invalidate` plus a `Schedule`.
        #[derive(Debug, Clone)]
        enum Op {
            Schedule(u64),
            Invalidate(usize),
            Peek,
            Drain(u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                // Dense traffic (collisions, ties), sparse traffic, the top end.
                3 => (0u64..8_388_608).prop_map(Op::Schedule),
                3 => (0u64..134_217_728).prop_map(Op::Schedule),
                1 => Just(Op::Schedule(u64::MAX)),
                2 => (0usize..250).prop_map(Op::Invalidate),
                2 => Just(Op::Peek),
                3 => (0u64..134_217_728).prop_map(Op::Drain),
            ]
        }

        proptest! {
            /// The queue against its specification — the log of pending
            /// `(at, id)` schedules, stable-sorted by `at`: the name's
            /// "reference", there is no second queue — under any interleaving
            /// of near, far, past-due and `MAX` schedules, cancellations, peeks
            /// and partial drains, then run dry.
            #[test]
            fn wheel_matches_reference_heap(ops in proptest::collection::vec(op(), 1..250)) {
                let mut queue = TimeWheel::new();
                let mut log: Vec<(u64, u32)> = Vec::new();
                let mut invalid = [false; 250];
                let mut next_id: u32 = 0;
                for op in ops.into_iter().chain([Op::Peek, Op::Drain(u64::MAX)]) {
                    match op {
                        Op::Schedule(at) => {
                            queue.schedule(ts(at), next_id);
                            // Appended in schedule order: the stable sort keeps it on ties.
                            log.push((at, next_id));
                            log.sort_by_key(|&(at, _)| at);
                            next_id += 1;
                        }
                        Op::Invalidate(id) => invalid[id] = true,
                        Op::Peek => {
                            let stale = log.iter().take_while(|&&(_, id)| invalid[id as usize]);
                            log.drain(..stale.count());
                            let head = queue.peek(|&id| !invalid[id as usize]);
                            prop_assert_eq!(head, log.first().map(|&(at, _)| ts(at)));
                        }
                        Op::Drain(to) => {
                            let due = log.partition_point(|&(at, _)| at <= to);
                            let expected: Vec<u32> = log.drain(..due).map(|(_, id)| id).collect();
                            let mut drained = Vec::new();
                            queue.drain_due(ts(to), &mut drained);
                            prop_assert_eq!(drained, expected);
                        }
                    }
                }
            }
        }
    }
}
