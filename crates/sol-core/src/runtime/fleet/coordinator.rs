//! The coordinator side of the barrier: one method per phase —
//! *collect*, *lifecycle*, *learn*, *place* — walked at every barrier by
//! [`FleetRuntime::run_profiled`], one [`tally`](Coordinator::tally) of
//! what the phases decided, and one *fold* once the last barrier is
//! through. Each phase returns what it decided as a value; the tally is the
//! one place the run's counters move.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use super::report::{
    aggregate, summarize, FleetNodeReport, FleetReport, Percentiles, PlacementStats,
};
use super::shard::{
    worker, ChangeList, CoordMsg, Done, NodeSlot, NodeTask, TaskList, Work, WorkerMsg,
};
use super::FleetRuntime;
use crate::error::RuntimeError;
use crate::runtime::learning::{LearningExchange, Row};
use crate::runtime::lifecycle::{
    FaultPlan, LifecycleError, LifecycleEvent, NodeRegistry, NodeState,
};
use crate::runtime::placement::{
    FleetCommand, FleetView, NodePlacement, NodeView, WorkloadId, WorkloadUnit,
};
use crate::runtime::profile::{FleetProfile, Lap, WorkerProfile};
use crate::runtime::trust::{TrustAction, TrustPlane};
use crate::runtime::Environment;
use crate::time::Timestamp;

fn died() -> RuntimeError {
    RuntimeError::WorkerPanicked
}

/// The base-view entry of a node nothing is known about yet — before its
/// first barrier — or any more, once it retired.
fn placeholder_view(node: usize, state: NodeState) -> NodeView {
    NodeView {
        node,
        agents: Vec::new(),
        telemetry: Vec::new(),
        placement: NodePlacement::none(),
        state,
    }
}

/// The coordinator's learning state. The trust engine scores the exchange's
/// rounds, so it never exists without one (config validation guarantees it).
struct LearningPhase {
    /// The latest per-role aggregates and the run's counters. The nodes'
    /// learned states stay in their export baselines, on the arena.
    exchange: LearningExchange,
    trust: Option<TrustPlane>,
}

/// `(source node, unit, migration target)`; a departure has no target.
type Detach = (usize, WorkloadId, Option<usize>);
/// `(target node, unit, migration source)`; an admission has no source.
type Attach = (usize, WorkloadUnit, Option<usize>);
/// A plan's accepted commands, split by [`partition`], beside the outcomes
/// of the refused ones.
type Partition = (Vec<Detach>, Vec<Attach>, Vec<Placed>);

/// Who asked for a lifecycle event, which decides what an illegal
/// transition means: a loud error from the controller, a skipped and
/// counted event from the fault plan, a silent no-op from a quarantine.
enum Cause {
    Controller,
    FaultPlan,
    Quarantine,
}

/// What one barrier's lifecycle phase did.
pub struct Lifecycle {
    /// Events the controller and the fault plan issued, skipped ones
    /// included.
    issued: usize,
    /// Nodes stamped at this barrier, in join order.
    joined: Vec<usize>,
    /// Workload units the crashed nodes left in the displaced pool.
    displaced: usize,
    /// Fault-plan events whose node had already left.
    skipped: Vec<LifecycleEvent>,
}

/// What became of one placement command: exactly one per command.
pub enum Placed {
    /// An admission landed; `replaced` when its unit came out of the
    /// displaced pool.
    Admitted { replaced: bool },
    /// A departure detached its unit.
    Departed,
    /// A migration moved its unit.
    Migrated,
    /// Refused by the registry or the environment; nothing moved.
    Rejected,
    /// A migration's attach half failed and the unit went back home.
    RolledBack,
    /// A migration's attach half failed and so did the way home.
    Lost,
}

/// Everything the coordinator thread holds across the barriers of one run.
/// [`FleetRuntime::run_profiled`] calls its phases in order — `collect`,
/// `lifecycle`, `learn`, `place` and `tally` at every barrier, `fold` once
/// at the end.
pub struct Coordinator<'f, E: Environment + 'static> {
    fleet: &'f FleetRuntime<E>,
    /// Whether the controller reads the per-node view, i.e. whether barriers
    /// extract agent stats and telemetry at all. Sampled once per run.
    wants_view: bool,
    /// One command sender and one reply receiver per worker. A closed
    /// channel either way means the worker died; dropping the senders is
    /// what tells the workers to exit.
    links: Vec<(Sender<CoordMsg<E>>, Receiver<WorkerMsg>)>,
    /// The live set's task list, reset and reused barrier after barrier;
    /// `None` until the first barrier and after a lifecycle phase changed
    /// the live set, which makes the next hand-off build a fresh one.
    tasks: Option<Arc<TaskList<NodeTask<E>>>>,
    /// Emptied change lists waiting to go out with the next command: each
    /// worker's answer comes back in the list it was sent, so after the
    /// first barrier this pool holds one per worker between barriers.
    buffers: Vec<ChangeList>,
    /// The slot arena: one persistent, mutex-guarded slot per node index,
    /// shared between the coordinator and whichever worker claims the node
    /// each epoch. Slots are stamped lazily (`Vacant`) and die in place
    /// (`Retired`), so a node's state never moves between allocations for
    /// the lifetime of the run, and the coordinator can apply lifecycle and
    /// placement phases directly — no per-phase message round trips.
    arena: Vec<NodeTask<E>>,
    registry: NodeRegistry,
    /// Nodes that have not reached a barrier yet: every node at the start,
    /// and each joiner. `collect` reads their placement off the arena once
    /// they have, and empties the list.
    unobserved: Vec<usize>,
    /// The base view; the crash-displaced pool lives inside it. Entries
    /// start as placeholders. A collecting barrier moves each node's
    /// observation in whole. Placement is a mirror this coordinator alone
    /// keeps: read off the arena at a node's first barrier, then refreshed
    /// by `place` for the nodes it touched.
    pub base: FleetView,
    learning: Option<LearningPhase>,
    placement: PlacementStats,
    occupancy_sums: Vec<f64>,
    packing_sum: f64,
    /// Reports of nodes retired mid-run, folded in with the survivors'.
    early_reports: Vec<FleetNodeReport>,
    /// Where the wall time goes; never read by anything that feeds the
    /// report.
    pub profile: FleetProfile,
    /// The stopwatch behind `profile.phases`: it runs from here to the end
    /// of the fold, and every lap is charged to exactly one phase.
    pub clock: Lap,
}

impl<'f, E: Environment + Send + 'static> Coordinator<'f, E> {
    /// Spawns the worker pool and sets up an all-`Active`, all-vacant fleet.
    /// The handles come back separately so the caller can join the workers
    /// after the coordinator (and with it the command senders) is gone.
    pub fn start(fleet: &'f FleetRuntime<E>, wants_view: bool) -> (Self, Vec<JoinHandle<()>>) {
        let config = &fleet.config;
        let mut links = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..config.threads.min(config.nodes) {
            let (cmd_tx, cmd_rx) = mpsc::channel::<CoordMsg<E>>();
            let (done_tx, done_rx) = mpsc::channel::<WorkerMsg>();
            links.push((cmd_tx, done_rx));
            let recipe = Arc::clone(&fleet.recipe);
            let handle = thread::Builder::new()
                .name("sol-fleet-worker".into())
                .spawn(move || worker(recipe, cmd_rx, done_tx))
                .expect("spawn fleet worker");
            workers.push(handle);
        }
        let coordinator = Coordinator {
            fleet,
            wants_view,
            profile: FleetProfile {
                workers: vec![WorkerProfile::default(); links.len()],
                ..Default::default()
            },
            links,
            tasks: None,
            buffers: Vec::new(),
            arena: (0..config.nodes)
                .map(|index| NodeSlot::vacant(fleet.node_seed(index), Timestamp::ZERO))
                .collect(),
            registry: NodeRegistry::new(config.nodes),
            unobserved: (0..config.nodes).collect(),
            base: FleetView {
                now: Timestamp::ZERO,
                epoch: 0,
                nodes: (0..config.nodes)
                    .map(|index| placeholder_view(index, NodeState::Active))
                    .collect(),
                displaced: Vec::new(),
            },
            learning: config.learning.map(|plane| LearningPhase {
                exchange: LearningExchange::new(plane),
                trust: config.trust.map(|policy| TrustPlane::new(policy, config.nodes)),
            }),
            placement: PlacementStats::default(),
            occupancy_sums: vec![0.0; config.nodes],
            packing_sum: 0.0,
            early_reports: Vec::new(),
            clock: Lap::start(),
        };
        (coordinator, workers)
    }

    /// Wakes every worker with `work` over the live set's task list — the
    /// previous barrier's list with its cursor reset, or a fresh one if the
    /// live set changed since — and an empty change list each.
    fn hand_off(&mut self, work: Work) -> Result<(), RuntimeError> {
        let tasks = match &self.tasks {
            Some(tasks) => {
                tasks.reset();
                Arc::clone(tasks)
            }
            None => {
                let live = self.registry.records().iter().filter(|record| record.state.is_live());
                let slots = live.map(|record| Arc::clone(&self.arena[record.node])).collect();
                self.profile.task_lists_built += 1;
                Arc::clone(self.tasks.insert(Arc::new(TaskList::new(slots, self.links.len()))))
            }
        };
        for (cmd_tx, _) in &self.links {
            let changes = self.buffers.pop().unwrap_or_else(|| {
                self.profile.change_buffers_allocated += 1;
                ChangeList::default()
            });
            cmd_tx
                .send(CoordMsg { work, tasks: Arc::clone(&tasks), changes })
                .map_err(|_| died())?;
        }
        Ok(())
    }

    /// Waits for worker `link`'s answer to the last hand-off and books the
    /// worker's own account of the barrier.
    fn answer(&mut self, link: usize) -> Result<Done, RuntimeError> {
        let WorkerMsg { done, busy_ns, claimed } = self.links[link].1.recv().map_err(|_| died())?;
        let worker = &mut self.profile.workers[link];
        worker.busy_ns += busy_ns;
        worker.nodes_claimed += claimed;
        Ok(done)
    }

    /// Collect phase: advances every live node to `boundary`, moves what
    /// the workers ship into the base view (and, on exchange rounds, books
    /// their export counters), reads the placement of the nodes that just
    /// reached their first barrier, and brings the registry and the view's
    /// stamps up to date before the controller looks. Returns the draining
    /// nodes observed empty, which retire in this barrier's lifecycle phase.
    pub fn collect(&mut self, epoch: u64, boundary: Timestamp) -> Result<Vec<usize>, RuntimeError> {
        let learn = self
            .learning
            .as_ref()
            .is_some_and(|phase| phase.exchange.plane().is_learn_epoch(epoch));
        self.hand_off(Work::Epoch { boundary, collect: self.wants_view, learn })?;
        self.clock.charge(&mut self.profile.phases.hand_off_ns);
        // One worker's list is moved in while the others still run.
        for link in 0..self.links.len() {
            let Done::Epoch(mut changes) = self.answer(link)? else { return Err(died()) };
            self.clock.charge(&mut self.profile.phases.wait_ns);
            changes.move_into(&mut self.base.nodes);
            let (participants, bytes) = changes.take_learned();
            if let Some(phase) = self.learning.as_mut() {
                phase.exchange.absorb(participants, bytes);
            }
            self.clock.charge(&mut self.profile.phases.apply_ns);
            self.buffers.push(changes);
        }
        // Build-time residents show from a node's first barrier on; after
        // that, placement changes only through `place`. A node that retired
        // before its first barrier keeps its tombstone.
        for node in self.unobserved.drain(..) {
            if let Some(now) = self.arena[node].with_live(|shard| shard.runtime.placement()) {
                self.base.nodes[node].placement = now;
            }
        }

        // Registry bookkeeping from the fresh observations: nodes that
        // joined at an earlier boundary have run a full epoch and become
        // Active; draining nodes observed empty retire as Drained this
        // boundary.
        let mut drained = Vec::new();
        for index in 0..self.registry.len() {
            let record = self.registry.records()[index];
            match record.state {
                NodeState::Joining if record.joined_epoch < epoch => {
                    self.registry
                        .transition(index, NodeState::Active, epoch)
                        .expect("joining -> active is legal");
                }
                NodeState::Draining if self.base.nodes[index].placement.resident.is_empty() => {
                    self.registry
                        .transition(index, NodeState::Drained, epoch)
                        .expect("draining -> drained is legal");
                    drained.push(index);
                }
                _ => {}
            }
        }

        // Stamp the barrier position and every node's registry state onto
        // the base view (retired nodes were tombstoned when they retired),
        // and book occupancy from this pre-plan view.
        self.base.now = boundary;
        self.base.epoch = epoch;
        let mut used_total = 0.0;
        let mut capacity_total = 0.0;
        for (index, view) in self.base.nodes.iter_mut().enumerate() {
            view.state = self.registry.records()[index].state;
            self.occupancy_sums[index] += view.placement.occupancy();
            used_total += view.placement.used();
            capacity_total += view.placement.capacity;
        }
        if capacity_total > 0.0 {
            self.packing_sum += used_total / capacity_total;
        }
        self.profile.barriers += 1;
        self.clock.charge(&mut self.profile.phases.bookkeeping_ns);
        Ok(drained)
    }

    /// Lifecycle phase, applied directly on the arena at the barrier the
    /// base view is stamped with. One loop updates the registry from the
    /// controller's `events`, then the fault plan's due ones, then the
    /// `quarantines` the last exchange round issued (in ascending node
    /// order), each by its [`Cause`]'s rule; then completed drains
    /// (`drained`) and fresh crashes retire together, in node order, so the
    /// displaced pool's layout is independent of issue order.
    pub fn lifecycle(
        &mut self,
        drained: Vec<usize>,
        events: Vec<LifecycleEvent>,
        faults: &mut FaultPlan,
        quarantines: Vec<usize>,
    ) -> Result<Lifecycle, RuntimeError> {
        let (epoch, boundary) = (self.base.epoch, self.base.now);
        let due = faults.due(boundary);
        let issued = events.len() + due.len();
        let (mut retired, mut joined, mut skipped) = (drained, Vec::new(), Vec::new());
        let events = events.into_iter().map(|event| (Cause::Controller, event));
        let due = due.into_iter().map(|event| (Cause::FaultPlan, event));
        let drains = quarantines.into_iter().map(|node| LifecycleEvent::Drain { node });
        for (cause, event) in events.chain(due).chain(drains.map(|e| (Cause::Quarantine, e))) {
            let outcome = match event {
                LifecycleEvent::Crash { node } => {
                    let crashed = self.registry.transition(node, NodeState::Crashed, epoch);
                    crashed.map(|()| retired.push(node))
                }
                LifecycleEvent::Drain { node } => {
                    self.registry.transition(node, NodeState::Draining, epoch)
                }
                LifecycleEvent::Join => {
                    let index = self.registry.join(epoch);
                    self.arena.push(NodeSlot::vacant(self.fleet.node_seed(index), boundary));
                    self.base.nodes.push(placeholder_view(index, NodeState::Joining));
                    self.unobserved.push(index);
                    joined.push(index);
                    Ok(())
                }
            };
            match (cause, outcome) {
                (_, Ok(())) => {}
                // The plan's author cannot know which nodes the controller
                // or the trust plane removed first, and a machine that has
                // left cannot crash: the event's intent is already met.
                (Cause::FaultPlan, Err(LifecycleError::IllegalTransition { .. })) => {
                    skipped.push(event);
                }
                // Only an `Active` node can start draining. A quarantined
                // node that crashed or drained since the round is skipped:
                // the quarantine's intent — get the node out of the fleet —
                // is already met, and its exports stay excluded either way.
                (Cause::Quarantine, Err(LifecycleError::IllegalTransition { .. })) => {}
                // From the controller, an illegal transition is a loud
                // error, never a silent repair.
                (_, Err(e)) => return Err(RuntimeError::InvalidConfig(e.to_string())),
            }
        }
        self.occupancy_sums.resize(self.registry.len(), 0.0);
        if !(retired.is_empty() && joined.is_empty()) {
            // The live set changes at this barrier: the next hand-off builds
            // its task list anew.
            self.tasks = None;
        }

        retired.sort_unstable();
        let pooled = self.base.displaced.len();
        for &node in &retired {
            // A vacant slot (a node crashed at its own join boundary) is
            // stamped first, so it reports like any zero-advancement node.
            let shard = self.arena[node]
                .take(&self.fleet.recipe)
                .expect("a retiring node is live or vacant");
            let report = summarize(&self.fleet.recipe, shard.seed, shard.runtime);
            if self.registry.state(node) == Some(NodeState::Crashed) {
                // Crashed: residents are displaced and must be re-placed by
                // the controller.
                self.base.displaced.extend(&report.workloads);
            } else if !report.workloads.is_empty() {
                // A node only retires as Drained after a barrier observation
                // showed it empty, and nothing may attach in between;
                // resident units here mean the protocol is broken.
                return Err(RuntimeError::InvalidConfig(format!(
                    "drained node {node} still hosts {} workload unit(s)",
                    report.workloads.len()
                )));
            }
            self.early_reports.push(report);
            // Tombstone the base entry; its state stamp comes off the
            // registry at the next barrier, like every node's.
            let view = &mut self.base.nodes[node];
            *view = placeholder_view(node, view.state);
        }
        let displaced = self.base.displaced.len() - pooled;
        Ok(Lifecycle { issued, joined, displaced, skipped })
    }

    /// Learning phase, between lifecycle and placement: on exchange rounds,
    /// fold the live nodes' export baselines into per-role aggregates, score
    /// the round, and import the blended aggregate back into every live
    /// node; nodes that joined warm-start from the latest aggregates either
    /// way. Nodes that retired at this barrier are no longer live, so their
    /// states drop out of the fold with them. Everything runs
    /// coordinator-side, keyed by node index in ascending order, so the
    /// learning plane inherits the thread-count determinism of the rest of
    /// the barrier. Returns the nodes the round quarantined, in ascending
    /// order: scoring runs after this barrier's lifecycle phase, so their
    /// drains go to the next one's.
    pub fn learn(&mut self, epoch: u64, lifecycle: &Lifecycle) -> Vec<usize> {
        let mut quarantines = Vec::new();
        let Some(phase) = self.learning.as_mut() else { return quarantines };
        let (arena, recipe) = (&self.arena, &self.fleet.recipe);
        if let Some(trust) = phase.trust.as_mut() {
            trust.grow(self.registry.len());
        }
        if phase.exchange.plane().is_learn_epoch(epoch) {
            let records = self.registry.records();
            let mut live = Vec::with_capacity(records.len());
            live.extend(records.iter().filter(|record| record.state.is_live()).map(|r| r.node));
            // The baselines are read in place, under the live slots' locks:
            // the workers are idle until the next hand-off, so the locks are
            // uncontended, and they are released before redistribution
            // writes the baselines back.
            let baselines: Vec<_> = live.iter().map(|&node| arena[node].baseline()).collect();
            let rows: Vec<Row<'_>> =
                live.iter().zip(&baselines).map(|(&node, base)| (node, base.states())).collect();
            // Trust gate: suspects' and quarantined nodes' exports are
            // withheld from the fold. Verdicts are the ones standing at the
            // start of the round, so exclusion is a pure function of earlier
            // rounds.
            match phase.trust.as_mut() {
                Some(trust) => phase.exchange.round(&trust.participants(&rows)),
                None => phase.exchange.round(&rows),
            }
            self.clock.charge(&mut self.profile.phases.round_ns);
            // Score the round: every live node's export (withheld ones
            // included — measured against the consensus they no longer vote
            // on) against the fresh aggregates, in node-index order.
            if let Some(trust) = phase.trust.as_mut() {
                for action in trust.evaluate(epoch, &rows, phase.exchange.aggregates()) {
                    if let TrustAction::Quarantine { node, .. } = action {
                        quarantines.push(node);
                    }
                }
            }
            self.clock.charge(&mut self.profile.phases.score_ns);
            drop(rows);
            drop(baselines);
            for &node in &live {
                arena[node].with_live(|shard| phase.exchange.redistribute(shard.learner()));
            }
        }
        if phase.exchange.aggregates().iter().any(Option::is_some) {
            for &node in &lifecycle.joined {
                // Stamping here is byte-identical to the lazy stamp a worker
                // would perform at the node's first epoch — it is a pure
                // function of the recipe and the slot's seed.
                arena[node]
                    .with_stamped(recipe, |shard| phase.exchange.warm_start(shard.learner()));
            }
        }
        self.clock.charge(&mut self.profile.phases.redistribute_ns);
        quarantines
    }

    /// Attaches `unit` to `node`; `false` if the node's environment refuses
    /// it or the slot is not live.
    fn attach(&self, node: usize, unit: WorkloadUnit) -> bool {
        self.arena[node]
            .with_live(|shard| shard.runtime.attach_workload(unit).is_ok())
            .unwrap_or(false)
    }

    /// Placement phase: departures and migration-detaches first, then
    /// admissions and migration-attaches, each stable-sorted by target node
    /// index — so freed capacity is available to the same barrier's
    /// admissions — then the rollback of migrations whose attach half
    /// failed, in plan order. A command's tag is its position in its list.
    /// Returns one outcome per command.
    pub fn place(&mut self, commands: Vec<FleetCommand>) -> Result<Vec<Placed>, RuntimeError> {
        let (detaches, mut attaches, mut placed) = partition(&self.registry, commands)?;
        // Every node whose placement the phases may have changed, for the
        // mirror refresh at the end.
        let mut touched: Vec<usize> = Vec::new();

        let mut order: Vec<usize> = (0..detaches.len()).collect();
        order.sort_by_key(|&tag| (detaches[tag].0, tag));
        let mut moving: Vec<(usize, Attach)> = Vec::new();
        for tag in order {
            let (node, workload, to) = detaches[tag];
            touched.push(node);
            let unit = self.arena[node].with_live(|shard| shard.runtime.detach_workload(workload));
            match (unit.and_then(Result::ok), to) {
                (None, _) => placed.push(Placed::Rejected),
                (Some(_), None) => placed.push(Placed::Departed),
                (Some(unit), Some(to)) => moving.push((tag, (to, unit, Some(node)))),
            }
        }
        // Migration re-attaches queue behind the admissions, in plan order.
        moving.sort_unstable_by_key(|&(tag, _)| tag);
        attaches.extend(moving.into_iter().map(|(_, attach)| attach));

        let mut order: Vec<usize> = (0..attaches.len()).collect();
        order.sort_by_key(|&tag| (attaches[tag].0, tag));
        let mut homeward: Vec<(usize, WorkloadUnit, usize)> = Vec::new();
        for tag in order {
            let (node, unit, source) = attaches[tag];
            touched.push(node);
            match (self.attach(node, unit), source) {
                // A displaced unit whose re-admission landed leaves the pool.
                (true, None) => {
                    let pooled = self.base.displaced.iter().position(|u| u.id == unit.id);
                    let replaced = pooled.map(|pos| self.base.displaced.remove(pos)).is_some();
                    placed.push(Placed::Admitted { replaced });
                }
                (true, Some(_)) => placed.push(Placed::Migrated),
                // The unit never entered the fleet.
                (false, None) => placed.push(Placed::Rejected),
                (false, Some(from)) => homeward.push((tag, unit, from)),
            }
        }

        // Rollback: a migration whose attach half failed must not destroy
        // the unit — it goes back to its source node, which just freed the
        // capacity.
        homeward.sort_unstable_by_key(|&(tag, ..)| tag);
        for (_, unit, home) in homeward {
            touched.push(home);
            placed.push(if self.attach(home, unit) { Placed::RolledBack } else { Placed::Lost });
        }

        // After a node's first barrier its placement changes only through
        // the hooks above, so the mirror refresh re-reads truth for the
        // touched nodes alone; every other node's mirrored placement is
        // already exact.
        touched.sort_unstable();
        touched.dedup();
        for node in touched {
            if let Some(now) = self.arena[node].with_live(|shard| shard.runtime.placement()) {
                self.base.nodes[node].placement = now;
            }
        }
        Ok(placed)
    }

    /// Folds one barrier's decisions into the run's counters: the one place
    /// they move, bar the fold's end-of-run count of displaced units nobody
    /// re-placed.
    pub fn tally(&mut self, lifecycle: &Lifecycle, placed: &[Placed]) {
        let stats = &mut self.placement;
        stats.commands += (lifecycle.issued + placed.len()) as u64;
        stats.displaced += lifecycle.displaced as u64;
        self.profile.fault_events_skipped += lifecycle.skipped.len() as u64;
        for outcome in placed {
            match outcome {
                Placed::Admitted { replaced } => {
                    stats.admitted += 1;
                    stats.replaced += u64::from(*replaced);
                }
                Placed::Departed => stats.departed += 1,
                Placed::Migrated => stats.migrated += 1,
                // A rolled-back migration still failed.
                Placed::Rejected | Placed::RolledBack => stats.failed_placements += 1,
                // The failed migration, and the unit it lost: make that loud.
                Placed::Lost => stats.failed_placements += 2,
            }
        }
    }

    /// Fold phase, once the last barrier is through: the surviving nodes
    /// summarize through the same task list (summaries are independent;
    /// reports re-sort by index), the retired nodes' reports join them, and
    /// everything folds into the fleet dashboard.
    pub fn fold(
        mut self,
        boundaries: &[Timestamp],
    ) -> Result<(FleetReport, FleetProfile), RuntimeError> {
        let mut nodes = std::mem::take(&mut self.early_reports);
        self.hand_off(Work::Finish)?;
        for link in 0..self.links.len() {
            let Done::Finished(reports) = self.answer(link)? else { return Err(died()) };
            nodes.extend(reports);
        }
        nodes.sort_by_key(|report| report.node);
        assert_eq!(nodes.len(), self.registry.len(), "every node reports exactly once");
        for node in &mut nodes {
            node.lifecycle = self.registry.records()[node.node];
            if let Some(trust) = self.learning.as_ref().and_then(|phase| phase.trust.as_ref()) {
                node.trust = trust.record(node.node);
            }
        }

        let epochs = boundaries.len() as f64;
        let mut placement = self.placement;
        placement.occupancy =
            Percentiles::of(&self.occupancy_sums.iter().map(|s| s / epochs).collect::<Vec<f64>>());
        placement.packing_efficiency = self.packing_sum / epochs;
        // Displaced units nobody re-placed did not survive the run; that must
        // be loud in the stats, not silently forgotten with the pool.
        placement.failed_placements += self.base.displaced.len() as u64;

        let ended_at = *boundaries.last().expect("non-empty epoch grid");
        let (learning, trust) = match &self.learning {
            Some(phase) => (
                phase.exchange.stats(),
                phase.trust.as_ref().map(|trust| trust.stats()).unwrap_or_default(),
            ),
            None => Default::default(),
        };
        let report =
            aggregate(nodes, boundaries.len() as u64, placement, learning, trust, ended_at)?;
        self.clock.charge(&mut self.profile.phases.fold_ns);
        Ok((report, self.profile))
    }
}

/// Validates the plan's commands against the registry and splits them into
/// the detach and attach lists, each in plan order, beside one
/// [`Placed::Rejected`] per command refused. An out-of-range index is a loud
/// error, while a command against a node in the wrong lifecycle state
/// (admissions and migration targets need `Active`; sources need a live
/// node) is rejected — this is how draining and joining nodes reject
/// admissions, and how commands racing a same-plan crash fail instead of
/// resurrecting a dead node.
fn partition(
    registry: &NodeRegistry,
    commands: Vec<FleetCommand>,
) -> Result<Partition, RuntimeError> {
    let records = registry.records();
    let state = |node: usize| match records.get(node) {
        Some(record) => Ok(record.state),
        None => Err(RuntimeError::InvalidConfig(format!(
            "controller addressed node {node} of a {}-node fleet",
            records.len()
        ))),
    };
    let (mut detaches, mut attaches, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
    for command in commands {
        match command {
            FleetCommand::Admit { node, unit } if state(node)?.is_active() => {
                attaches.push((node, unit, None));
            }
            FleetCommand::Depart { node, workload } if state(node)?.is_live() => {
                detaches.push((node, workload, None));
            }
            // `&`, not `&&`: both ends are range-checked, the target first.
            FleetCommand::Migrate { from, to, workload }
                if state(to)?.is_active() & state(from)?.is_live() =>
            {
                detaches.push((from, workload, Some(to)));
            }
            _ => rejected.push(Placed::Rejected),
        }
    }
    Ok((detaches, attaches, rejected))
}
