//! The agent wake table under [`NodeRuntime`](crate::runtime::node::NodeRuntime):
//! every agent's next wake in a dense `Vec` indexed by agent, under a binary
//! min-heap of agent indices ordered by those wakes.
//!
//! A node hosts a fixed, small population of agents and each has exactly one
//! pending wake, so the wake is a *key that moves*, not an event that is
//! queued: nothing is ever inserted or removed after registration, and there
//! is nothing to invalidate. The heap carries no position map. The tick loop
//! never needs to find an arbitrary agent in it:
//!
//! * the agents due at a tick are exactly those with `wake <= next`, and by
//!   the heap order they form a region connected to the root —
//!   [`due`](WakeTable::due) finds it by walking down from the root and
//!   remembers the heap positions it visited;
//! * the tick rewrites the keys of those agents ([`set`](WakeTable::set)) and
//!   [`repair`](WakeTable::repair) restores the order with one sift-down per
//!   remembered position, deepest first — Floyd's heap construction confined
//!   to the region, since every subtree hanging off it is untouched. The
//!   common tick has one due agent: rewrite the root's key, one sift-down;
//! * a key rewritten *outside* the region (a delay intervention on an agent
//!   that is not due, a registration) is rare enough that
//!   [`rebuild`](WakeTable::rebuild) re-heapifies the whole population.
//!
//! Ties are left in whatever order the heap holds them: the due set is a
//! filter on the key and the runtime steps it sorted by agent index, so the
//! order among equal wakes is never observable.

use crate::time::Timestamp;

/// Per-agent wake times under an index heap. See the module docs.
pub(crate) struct WakeTable {
    /// `wake[agent]`: the wake time the heap is ordered by.
    wake: Vec<Timestamp>,
    /// Agent indices as an implicit binary min-heap on `wake`.
    heap: Vec<usize>,
    /// Heap positions of the last [`due`](Self::due) region, ascending;
    /// consumed by [`repair`](Self::repair) or [`rebuild`](Self::rebuild).
    region: Vec<usize>,
}

impl WakeTable {
    pub(crate) const fn new() -> Self {
        WakeTable { wake: Vec::new(), heap: Vec::new(), region: Vec::new() }
    }

    /// Appends one agent per wake, indexed on from the agents already there.
    pub(crate) fn extend(&mut self, wakes: impl IntoIterator<Item = Timestamp>) {
        self.wake.extend(wakes);
        self.heap.extend(self.heap.len()..self.wake.len());
        self.rebuild();
    }

    /// The earliest wake of any agent.
    pub(crate) fn earliest(&self) -> Option<Timestamp> {
        self.heap.first().map(|&agent| self.wake[agent])
    }

    /// The wake time currently recorded for `agent`.
    pub(crate) fn wake(&self, agent: usize) -> Timestamp {
        self.wake[agent]
    }

    /// Appends every agent with `wake <= next` to `out`, in no particular
    /// order, and remembers where in the heap they sit. The caller must
    /// follow up with [`repair`](Self::repair) or [`rebuild`](Self::rebuild)
    /// before the next call.
    pub(crate) fn due(&mut self, next: Timestamp, out: &mut Vec<usize>) {
        debug_assert!(self.region.is_empty(), "the previous due region was not repaired");
        if self.earliest().is_none_or(|at| at > next) {
            return;
        }
        // Breadth first with `region` as its own queue: a parent is visited
        // before its children and left before right, so positions come out
        // ascending.
        self.region.push(0);
        let mut visited = 0;
        while let Some(&pos) = self.region.get(visited) {
            visited += 1;
            out.push(self.heap[pos]);
            for child in [2 * pos + 1, 2 * pos + 2] {
                if self.heap.get(child).is_some_and(|&agent| self.wake[agent] <= next) {
                    self.region.push(child);
                }
            }
        }
    }

    /// Rewrites one agent's wake. The heap is out of order until the next
    /// [`repair`](Self::repair) (if `agent` was in the last due region) or
    /// [`rebuild`](Self::rebuild) (otherwise).
    pub(crate) fn set(&mut self, agent: usize, wake: Timestamp) {
        self.wake[agent] = wake;
    }

    /// Restores the heap order after keys changed only inside the last
    /// [`due`](Self::due) region.
    pub(crate) fn repair(&mut self) {
        while let Some(pos) = self.region.pop() {
            self.sift_down(pos);
        }
    }

    /// Restores the heap order after arbitrary key changes.
    pub(crate) fn rebuild(&mut self) {
        self.region.clear();
        for pos in (0..self.heap.len() / 2).rev() {
            self.sift_down(pos);
        }
    }

    /// Moves the entry at `pos` down until neither child is earlier, given
    /// that both child subtrees are already in heap order.
    fn sift_down(&mut self, mut pos: usize) {
        let agent = self.heap[pos];
        let key = self.wake[agent];
        loop {
            let mut child = 2 * pos + 1;
            if child >= self.heap.len() {
                break;
            }
            let right = child + 1;
            if right < self.heap.len() && self.wake[self.heap[right]] < self.wake[self.heap[child]]
            {
                child = right;
            }
            if self.wake[self.heap[child]] >= key {
                break;
            }
            self.heap[pos] = self.heap[child];
            pos = child;
        }
        self.heap[pos] = agent;
    }

    /// Heap bytes retained by the table, its heap and the region scratch.
    pub(crate) fn mem_bytes(&self) -> usize {
        self.wake.capacity() * std::mem::size_of::<Timestamp>()
            + (self.heap.capacity() + self.region.capacity()) * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_nanos(n)
    }

    /// Every parent's wake is at or before its children's, and the heap is a
    /// permutation of the agent indices.
    fn assert_heap(table: &WakeTable) {
        for pos in 1..table.heap.len() {
            let parent = (pos - 1) / 2;
            assert!(
                table.wake[table.heap[parent]] <= table.wake[table.heap[pos]],
                "heap order broken between positions {parent} and {pos}"
            );
        }
        let mut agents = table.heap.clone();
        agents.sort_unstable();
        assert!(agents.iter().copied().eq(0..table.wake.len()), "heap lost or repeated an agent");
    }

    #[test]
    fn empty_table_has_no_earliest_and_nothing_due() {
        let mut table = WakeTable::new();
        let mut due = Vec::new();
        table.due(Timestamp::MAX, &mut due);
        table.repair();
        assert_eq!(table.earliest(), None);
        assert!(due.is_empty());
    }

    #[test]
    fn one_due_agent_is_the_root_and_one_sift_down_repairs_it() {
        let mut table = WakeTable::new();
        table.extend([30, 10, 20].map(ts));
        let mut due = Vec::new();
        table.due(ts(10), &mut due);
        assert_eq!(due, vec![1]);
        assert_eq!(table.region, vec![0]);
        table.set(1, ts(40));
        table.repair();
        assert_heap(&table);
        assert_eq!(table.earliest(), Some(ts(20)));
    }

    #[test]
    fn mem_bytes_counts_every_buffer() {
        let mut table = WakeTable::new();
        assert_eq!(table.mem_bytes(), 0);
        table.extend((0..16).map(ts));
        let mut due = Vec::new();
        table.due(ts(16), &mut due);
        table.repair();
        assert!(table.mem_bytes() >= 16 * (8 + 8 + 8));
    }

    /// One step against the table and its reference.
    #[derive(Debug, Clone)]
    enum Op {
        /// Register more agents.
        Extend(Vec<u64>),
        /// Extract the due region at `next`, rewrite some of its keys
        /// (`rewrites[i]` is the i-th due agent's new wake; a wake under
        /// [`KEEP`] leaves the key alone, as do agents past the list's end,
        /// so agents may stay due), then repair.
        Tick { next: u64, rewrites: Vec<u64> },
        /// Rewrite any agent's key (index modulo the population) and rebuild.
        Rewrite { agent: usize, wake: u64 },
    }

    /// Drawn rewrites below this leave the key as it is (a quarter of them).
    const KEEP: u64 = 32;

    fn op() -> impl Strategy<Value = Op> {
        // A narrow key range so ties and multi-agent regions are common.
        prop_oneof![
            2 => proptest::collection::vec(0u64..64, 0..5).prop_map(Op::Extend),
            6 => (0u64..64, proptest::collection::vec(0u64..KEEP + 96, 0..12))
                .prop_map(|(next, rewrites)| Op::Tick { next, rewrites }),
            2 => (any::<usize>(), 0u64..96).prop_map(|(agent, wake)| Op::Rewrite { agent, wake }),
        ]
    }

    proptest! {
        /// Against a plain vector of wakes: `earliest` is the minimum, the
        /// due set is the filter `wake <= next`, and the heap order holds
        /// after every repair and rebuild — whatever mix of registrations,
        /// in-region rewrites (forwards, backwards, or none) and
        /// out-of-region rewrites came before.
        #[test]
        fn table_matches_a_plain_vector(ops in proptest::collection::vec(op(), 1..200)) {
            let mut table = WakeTable::new();
            let mut reference: Vec<Timestamp> = Vec::new();
            for op in ops {
                match op {
                    Op::Extend(wakes) => {
                        table.extend(wakes.iter().copied().map(ts));
                        reference.extend(wakes.iter().copied().map(ts));
                    }
                    Op::Tick { next, rewrites } => {
                        let mut due = Vec::new();
                        table.due(ts(next), &mut due);
                        prop_assert!(table.region.windows(2).all(|w| w[0] < w[1]));
                        due.sort_unstable();
                        let expected: Vec<usize> =
                            (0..reference.len()).filter(|&a| reference[a] <= ts(next)).collect();
                        prop_assert_eq!(&due, &expected);
                        for (&agent, &wake) in due.iter().zip(&rewrites) {
                            if let Some(wake) = wake.checked_sub(KEEP) {
                                table.set(agent, ts(wake));
                                reference[agent] = ts(wake);
                            }
                        }
                        table.repair();
                    }
                    Op::Rewrite { agent, wake } => {
                        if reference.is_empty() {
                            continue;
                        }
                        let agent = agent % reference.len();
                        table.set(agent, ts(wake));
                        reference[agent] = ts(wake);
                        table.rebuild();
                    }
                }
                assert_heap(&table);
                prop_assert_eq!(table.earliest(), reference.iter().copied().min());
                for (agent, &wake) in reference.iter().enumerate() {
                    prop_assert_eq!(table.wake(agent), wake);
                }
            }
        }
    }
}
