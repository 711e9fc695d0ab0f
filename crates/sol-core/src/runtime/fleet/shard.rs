//! The worker side of the barrier: the slot arena's nodes ([`NodeSlot`],
//! [`ShardNode`]), the task list the workers claim them from, the change
//! lists they answer with, the messages either way, and the [`worker`]
//! loop itself.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

use sol_ml::exchange::LearnedState;

use super::report::{summarize, FleetNodeReport};
use super::NodeSeed;
use crate::runtime::builder::ScenarioRecipe;
use crate::runtime::learning::Learner;
use crate::runtime::node::{AgentId, NodeRuntime};
use crate::runtime::placement::{AgentTelemetry, NodeView};
use crate::runtime::profile::Lap;
use crate::runtime::Environment;
use crate::time::Timestamp;

/// One unit of epoch work: a node's slot in the shared arena. The node index
/// lives inside the slot (in its seed), so a task is just the `Arc`.
pub type NodeTask<E> = Arc<NodeSlot<E>>;

/// The live set's tasks, shared by every worker: each claims contiguous
/// chunks through the one atomic cursor until none is left, so a worker that
/// runs out of work takes over what a slower sibling has not reached yet and
/// one slow node never idles the barrier. The list outlives the barrier: the
/// coordinator [`reset`](Self::reset)s it for the next one and builds a new
/// list only when the live set changed.
pub struct TaskList<T> {
    tasks: Vec<T>,
    /// Index of the first unclaimed task (past the end once all are claimed).
    next: AtomicUsize,
    /// Tasks handed out per claim.
    chunk: usize,
}

impl<T> TaskList<T> {
    /// A list `claimants` workers will share. A chunk is an eighth of one
    /// worker's even share: large enough that light nodes (~100 ns of work
    /// an epoch) do not pay one contended atomic each, small enough that the
    /// tail of the list rebalances whatever imbalance its head hid.
    pub fn new(tasks: Vec<T>, claimants: usize) -> Self {
        let chunk = (tasks.len() / (8 * claimants)).max(1);
        TaskList { tasks, next: AtomicUsize::new(0), chunk }
    }

    /// Claims the next chunk, or `None` once every task is claimed. Every
    /// task is handed out exactly once: `fetch_add` gives each caller a
    /// distinct start.
    fn claim(&self) -> Option<&[T]> {
        // Relaxed: the cursor publishes nothing but itself. The list reaches
        // the workers through the command channel and their results return
        // through the reply channel, which order everything else.
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        let end = (start + self.chunk).min(self.tasks.len());
        (start < end).then(|| &self.tasks[start..end])
    }

    /// Makes every task claimable again. The caller must know that no claim
    /// is in flight — the coordinator does: every worker answered the
    /// previous barrier, and answers only once its claims ran dry.
    pub fn reset(&self) {
        // Relaxed, as in `claim`: the command channel orders this store
        // before the next barrier's claims.
        self.next.store(0, Ordering::Relaxed);
    }
}

/// One node's collected barrier observation: `(node, agent counters,
/// readings)`, each whole.
type Observation = (usize, Vec<AgentTelemetry>, Vec<(String, f64)>);

/// What one worker observed at one barrier, across every node it claimed:
/// on a collecting barrier, each node's agent counters and readings whole,
/// and on an exchange round, two counters of the learned states that
/// changed (the states stay in the nodes' export baselines). The
/// coordinator moves the entries into its base view and hands the emptied
/// list back with the next command, so the outer vector keeps its capacity.
/// A collecting barrier allocates per node the observation's two vectors,
/// the agent names and whatever the recipe's telemetry closure builds.
/// Without `collect` a worker ships and allocates no per-node observation;
/// an exchange round still allocates each node's learned-state snapshots,
/// which the worker frees itself.
#[derive(Default)]
pub struct ChangeList {
    /// Collected observations, one per claimed node.
    views: Vec<Observation>,
    /// On exchange rounds, the claimed nodes with at least one learned state
    /// changed since their last export or import.
    participants: u64,
    /// On exchange rounds, the bytes of the states those nodes changed.
    bytes_exchanged: u64,
}

impl ChangeList {
    /// Takes the exchange round's `(participants, bytes exchanged)`,
    /// leaving both zero for the list's next barrier.
    pub fn take_learned(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.participants), std::mem::take(&mut self.bytes_exchanged))
    }

    /// Moves every collected observation into its node's entry of `nodes`,
    /// replacing the entry's agents and readings whole, and leaves the list
    /// empty.
    pub fn move_into(&mut self, nodes: &mut [NodeView]) {
        for (node, agents, telemetry) in self.views.drain(..) {
            let view = &mut nodes[node];
            view.agents = agents;
            view.telemetry = telemetry;
        }
    }
}

/// What one barrier asks of the workers.
#[derive(Clone, Copy)]
pub enum Work {
    /// Run every claimed node to `boundary`. `collect` asks for each node's
    /// agent counters and readings, whole — without it no node ships an
    /// observation; `learn` marks a learning-plane exchange round (nodes
    /// piggyback changed learned state).
    Epoch { boundary: Timestamp, collect: bool, learn: bool },
    /// Summarize every claimed node and ship the reports home.
    Finish,
}

/// What the coordinator sends to every worker, once per barrier (the entire
/// lifecycle/placement phase runs coordinator-side against the shared
/// arena) and once more to summarize: the work, the live set's task list,
/// and an empty change list to fill — the one this worker's previous answer
/// came back in.
pub struct CoordMsg<E: Environment + 'static> {
    pub work: Work,
    pub tasks: Arc<TaskList<NodeTask<E>>>,
    pub changes: ChangeList,
}

/// What a worker did with one command.
pub enum Done {
    /// Every node this worker claimed reached the boundary; carries what
    /// changed on them.
    Epoch(ChangeList),
    /// Final outcomes of the nodes this worker claimed (answers `Finish`).
    Finished(Vec<FleetNodeReport>),
}

/// What a worker sends back once the task list ran dry: the outcome, and its
/// own account of the barrier for the
/// [`FleetProfile`](crate::runtime::profile::FleetProfile).
pub struct WorkerMsg {
    pub done: Done,
    /// Wall time from receiving the command to sending this.
    pub busy_ns: u64,
    /// Nodes claimed off the task list.
    pub claimed: u64,
}

/// One stamped node: its seed, its live runtime, the fleet time at which its
/// local clock started (non-zero for nodes joined mid-run), and its
/// learned-state export baseline.
pub struct ShardNode<E: Environment + 'static> {
    pub seed: NodeSeed,
    pub runtime: NodeRuntime<E>,
    start: Timestamp,
    /// Learned states as of the last learning-plane export or import,
    /// indexed by agent slot: the exchange-round diff baseline, and the
    /// fleet's only copy of them (the coordinator keeps no mirror). Empty
    /// until the first exchange round or warm start touches the node, then
    /// written in place: by the worker when a snapshot differs, and by the
    /// coordinator when the node imports a blend of the fleet aggregate.
    pub learned_base: Vec<Option<LearnedState>>,
}

impl<E: Environment + 'static> ShardNode<E> {
    /// Stamps the node out of the recipe.
    fn stamp(recipe: &ScenarioRecipe<E>, seed: NodeSeed, start: Timestamp) -> Self {
        ShardNode { runtime: recipe.instantiate(&seed), seed, start, learned_base: Vec::new() }
    }

    /// Maps fleet time onto this node's local clock. A joined node starts a
    /// virgin timeline at its join boundary, so the recipe's schedules and
    /// seed-derived phases behave exactly as on a node present from the
    /// start.
    fn local(&self, fleet_time: Timestamp) -> Timestamp {
        Timestamp::ZERO + fleet_time.duration_since(self.start)
    }

    /// Runs the node's event loop up to fleet time `boundary`. Out of line on
    /// purpose: this loop is where a node-bound run's time goes, and compiled
    /// into the worker's body its code generation shifts with every edit to
    /// the barrier code around it — the node-bound benchmark workloads read
    /// 5–15 % slower after a change that touched no line of the loop.
    #[inline(never)]
    fn run_to(&mut self, boundary: Timestamp) {
        let until = self.local(boundary);
        self.runtime.run_until(until);
    }

    /// Writes the node's barrier observation into `changes`: every agent's
    /// counters and every reading, whole. Placement is not part of it: the
    /// coordinator reads it off the arena.
    fn observe(&self, recipe: &ScenarioRecipe<E>, changes: &mut ChangeList) {
        let agents = self.runtime.agent_snapshots().into_iter();
        let agents = agents.map(|(name, stats)| AgentTelemetry { name, stats }).collect();
        let readings = recipe.extract_telemetry(self.runtime.environment());
        changes.views.push((self.seed.index() as usize, agents, readings));
    }

    /// The learning-plane export for this barrier: overwrites the baseline
    /// entry of every agent whose learned state changed since the node's
    /// last export or import (the first exchange round takes every
    /// exportable state), and counts the node and the changed bytes into
    /// `changes`. A node with nothing new counts nothing — the
    /// quiet-learner case.
    ///
    /// Unlike the per-node view diff deleted after 0 of 29.8 M `fleet-control`
    /// node-barriers were quiet, this diff fires: one `fleet-control` run
    /// (seed 1) found 226 of 213,113 learned-state snapshots unchanged since
    /// the node's last export or import. Counting them would move
    /// `LearningStats::{participants, bytes_exchanged}`, so the comparison
    /// stays (`unchanged_learned_states_are_exported_once` pins it).
    fn export_learned(&mut self, changes: &mut ChangeList) {
        let snapshots = self.runtime.learned_snapshots();
        self.learned_base.resize(snapshots.len(), None);
        let mut changed = false;
        for (base, snapshot) in self.learned_base.iter_mut().zip(snapshots) {
            let Some(state) = snapshot else { continue };
            if base.as_ref() == Some(&state) {
                continue;
            }
            changed = true;
            changes.bytes_exchanged += state.byte_len() as u64;
            // In place whenever kind and shape hold, which is every round
            // after a slot's first.
            if base.as_mut().is_none_or(|held| held.assign_from(&state).is_err()) {
                *base = Some(state);
            }
        }
        changes.participants += u64::from(changed);
    }

    /// The node as redistribution and warm starts take it: its export
    /// baseline beside the import into its models.
    pub fn learner(&mut self) -> Learner<'_, impl FnMut(usize, &LearnedState) -> bool + '_> {
        let runtime = &mut self.runtime;
        let import = move |slot: usize, state: &LearnedState| {
            slot < runtime.agent_count()
                && runtime.driver_mut(AgentId::from(slot)).import_learned(state).is_ok()
        };
        (&mut self.learned_base, import)
    }
}

/// A locked slot's export baseline, as an exchange round reads it while the
/// workers are idle: the node's learned states, or none for a node not
/// stamped yet (one that joined at this very barrier).
pub struct Baseline<'a, E: Environment + 'static>(MutexGuard<'a, Slot<E>>);

impl<E: Environment + 'static> Baseline<'_, E> {
    pub fn states(&self) -> &[Option<LearnedState>] {
        match &*self.0 {
            Slot::Live(node) => &node.learned_base,
            _ => &[],
        }
    }
}

/// A node's lifetime inside its arena slot: recipe-stampable, stamped, or
/// permanently retired.
///
/// `Live` dwarfs the other variants, but boxing it would put a pointer chase
/// on every event batch: a slot spends essentially its whole lifetime `Live`,
/// and the enum lives in a per-node heap allocation already (the arena's
/// `Arc<NodeSlot>`), so the size difference buys nothing.
#[allow(clippy::large_enum_variant)]
enum Slot<E: Environment + 'static> {
    /// Not yet stamped: holds everything needed to stamp on first claim, so
    /// construction cost lands on whichever worker first advances the node,
    /// not on the coordinator.
    Vacant { seed: NodeSeed, start: Timestamp },
    /// Stamped and running.
    Live(ShardNode<E>),
    /// Retired (crashed or drained); its report already shipped.
    Retired,
}

/// One arena slot, shared between the coordinator and the workers. The
/// protocol keeps their accesses in disjoint phases (workers only between
/// receiving a `CoordMsg` and answering it, the coordinator only outside
/// that), so the mutex is never contended — it exists to make the sharing
/// sound, not to arbitrate races.
pub struct NodeSlot<E: Environment + 'static>(Mutex<Slot<E>>);

impl<E: Environment + 'static> NodeSlot<E> {
    pub fn vacant(seed: NodeSeed, start: Timestamp) -> Arc<Self> {
        Arc::new(NodeSlot(Mutex::new(Slot::Vacant { seed, start })))
    }

    fn lock(&self) -> MutexGuard<'_, Slot<E>> {
        // A worker that panicked never answers, so the coordinator aborts
        // before touching the slots it poisoned; this expect is a backstop,
        // not a code path.
        self.0.lock().expect("fleet node slot poisoned")
    }

    /// Locks the slot, stamping the node first if it is still vacant.
    /// Stamping is a pure function of the recipe and the slot's seed, so
    /// whoever gets here first — the worker advancing the node, or the
    /// coordinator warm-starting or retiring it — stamps the same node.
    fn stamped(&self, recipe: &ScenarioRecipe<E>) -> MutexGuard<'_, Slot<E>> {
        let mut guard = self.lock();
        if let Slot::Vacant { seed, start } = *guard {
            *guard = Slot::Live(ShardNode::stamp(recipe, seed, start));
        }
        guard
    }

    /// Stamps the node if needed, advances it to the epoch boundary, writes
    /// its barrier observation into `changes` when `collect` asks for one,
    /// and on an exchange round (`learn`) refreshes its export baseline and
    /// counts what changed into `changes` (nothing for a retired slot).
    pub fn advance(
        &self,
        recipe: &ScenarioRecipe<E>,
        boundary: Timestamp,
        collect: bool,
        learn: bool,
        changes: &mut ChangeList,
    ) {
        let mut guard = self.stamped(recipe);
        let Slot::Live(node) = &mut *guard else { return };
        node.run_to(boundary);
        if collect {
            node.observe(recipe, changes);
        }
        if learn {
            node.export_learned(changes);
        }
    }

    /// Locks the slot for an exchange round to read its export baseline.
    pub fn baseline(&self) -> Baseline<'_, E> {
        Baseline(self.lock())
    }

    /// Takes the node out for good, leaving the slot `Retired` (`None` if it
    /// already was). A still-vacant slot — a node that joined at the final
    /// boundary, or crashed at its own join boundary — is stamped first so
    /// it reports like any zero-advancement node.
    pub fn take(&self, recipe: &ScenarioRecipe<E>) -> Option<ShardNode<E>> {
        match std::mem::replace(&mut *self.stamped(recipe), Slot::Retired) {
            Slot::Live(node) => Some(node),
            _ => None,
        }
    }

    /// Runs `f` on the live node, if the slot is live. The coordinator's
    /// placement hooks go through this: a command addressed to a node whose
    /// slot is vacant (joined this very barrier) or retired fails.
    pub fn with_live<R>(&self, f: impl FnOnce(&mut ShardNode<E>) -> R) -> Option<R> {
        match &mut *self.lock() {
            Slot::Live(node) => Some(f(node)),
            _ => None,
        }
    }

    /// Like [`with_live`](Self::with_live), but stamps a vacant node first
    /// (`None` only for a retired slot). The learning plane's join
    /// warm-start goes through this: importing the fleet aggregate needs a
    /// live runtime.
    pub fn with_stamped<R>(
        &self,
        recipe: &ScenarioRecipe<E>,
        f: impl FnOnce(&mut ShardNode<E>) -> R,
    ) -> Option<R> {
        match &mut *self.stamped(recipe) {
            Slot::Live(node) => Some(f(node)),
            _ => None,
        }
    }
}

/// Worker body: on each command, claim chunks of the task list until it
/// runs dry — advancing (or, for `Finish`, summarizing) every node claimed —
/// and ship the results home in one message, epoch changes in the very list
/// the command brought. A closed channel either way means the run is over or
/// was aborted (another worker died, or the controller erred): exit quietly.
pub fn worker<E: Environment + Send + 'static>(
    recipe: Arc<ScenarioRecipe<E>>,
    cmd_rx: Receiver<CoordMsg<E>>,
    done_tx: Sender<WorkerMsg>,
) {
    while let Ok(CoordMsg { work, tasks, mut changes }) = cmd_rx.recv() {
        let mut lap = Lap::start();
        let mut claimed = 0;
        let done = match work {
            Work::Epoch { boundary, collect, learn } => {
                while let Some(chunk) = tasks.claim() {
                    claimed += chunk.len();
                    for slot in chunk {
                        slot.advance(&recipe, boundary, collect, learn, &mut changes);
                    }
                }
                Done::Epoch(changes)
            }
            Work::Finish => {
                let mut finished = Vec::new();
                while let Some(chunk) = tasks.claim() {
                    claimed += chunk.len();
                    for slot in chunk {
                        let node = slot.take(&recipe);
                        finished.extend(node.map(|n| summarize(&recipe, n.seed, n.runtime)));
                    }
                }
                Done::Finished(finished)
            }
        };
        let mut busy_ns = 0;
        lap.charge(&mut busy_ns);
        if done_tx.send(WorkerMsg { done, busy_ns, claimed: claimed as u64 }).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::thread;

    use super::*;

    /// The contract the worker pool rests on: however many claimants race
    /// for a list, every task is handed out exactly once — whether the
    /// length divides into chunks, leaves a short last chunk, or is shorter
    /// than the claimant count.
    #[test]
    fn every_task_is_claimed_exactly_once() {
        for len in [1000usize, 1003, 5, 0] {
            let list = Arc::new(TaskList::new((0..len).collect(), 8));
            let start = Arc::new(std::sync::Barrier::new(8));
            let claimants: Vec<thread::JoinHandle<Vec<usize>>> = (0..8)
                .map(|_| {
                    let (list, start) = (Arc::clone(&list), Arc::clone(&start));
                    thread::spawn(move || {
                        // Release all eight at once so the claims do race.
                        start.wait();
                        let mut mine = Vec::new();
                        while let Some(chunk) = list.claim() {
                            mine.extend_from_slice(chunk);
                        }
                        mine
                    })
                })
                .collect();
            let mut all: Vec<usize> =
                claimants.into_iter().flat_map(|claimant| claimant.join().unwrap()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..len).collect::<Vec<usize>>(), "{len} tasks");
            assert!(list.claim().is_none(), "a drained list stays drained");
        }
    }

    /// The list outlives its barrier: after a `reset` — issued, as in the
    /// coordinator, only once every claimant ran dry — the same four
    /// claimants split the same tasks again, exactly once each, reuse after
    /// reuse.
    #[test]
    fn a_reset_list_hands_every_task_out_exactly_once_per_reuse() {
        let list = Arc::new(TaskList::new((0..1003usize).collect(), 4));
        // Two waits per reuse: one releases the claims, one tells the
        // resetter that all four ran dry.
        let gate = Arc::new(std::sync::Barrier::new(5));
        let claimants: Vec<thread::JoinHandle<Vec<Vec<usize>>>> = (0..4)
            .map(|_| {
                let (list, gate) = (Arc::clone(&list), Arc::clone(&gate));
                thread::spawn(move || {
                    (0..4)
                        .map(|_| {
                            gate.wait();
                            let mut mine = Vec::new();
                            while let Some(chunk) = list.claim() {
                                mine.extend_from_slice(chunk);
                            }
                            gate.wait();
                            mine
                        })
                        .collect()
                })
            })
            .collect();
        for reuse in 0..4 {
            if reuse > 0 {
                list.reset();
            }
            gate.wait();
            gate.wait();
            assert!(list.claim().is_none(), "reuse {reuse} drained the list");
        }
        let claims: Vec<Vec<Vec<usize>>> =
            claimants.into_iter().map(|claimant| claimant.join().unwrap()).collect();
        for reuse in 0..4 {
            let mut all: Vec<usize> =
                claims.iter().flat_map(|claimant| claimant[reuse].iter().copied()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..1003).collect::<Vec<usize>>(), "reuse {reuse}");
        }
    }
}
