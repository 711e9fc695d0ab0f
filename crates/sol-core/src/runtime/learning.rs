//! The fleet learning plane: exchange, robust aggregation, and
//! redistribution of learned state across node churn.
//!
//! SOL's agents learn on-node, but a fleet of thousands of nodes learns the
//! same task thousands of times over. The learning plane turns the fleet's
//! epoch barrier into a periodic model-exchange point: nodes piggyback
//! [`LearnedState`] snapshots of their learners on the barrier observations
//! they already ship (a node ships only the states that changed since it last
//! exported or imported them, so quiet learners ship nothing), the coordinator
//! folds the per-role states with a robust [`AggregationRule`] —
//! coordinate-wise median and trimmed mean tolerate a bounded number of
//! poisoned or faulty contributions, where a plain mean does not — and
//! redistributes the aggregate under a [`BlendPolicy`]. Nodes
//! that [`Join`](crate::runtime::lifecycle::LifecycleEvent::Join) mid-run
//! warm-start from the latest aggregate instead of learning from scratch.
//!
//! Everything here is keyed by node index and applied coordinator-side in
//! index order, so fleet reports stay byte-identical across worker-thread
//! counts — the determinism contract of
//! [`FleetRuntime`](crate::runtime::fleet::FleetRuntime) extends to the
//! learning plane unchanged.

use std::sync::Arc;

use sol_ml::exchange::{AggregationRule, BlendPolicy, LearnedState};

/// Configuration of the fleet learning plane
/// ([`FleetConfig::learning`](crate::runtime::fleet::FleetConfig::learning)).
///
/// # Examples
///
/// ```
/// use sol_core::prelude::*;
/// use sol_ml::exchange::{AggregationRule, BlendPolicy};
///
/// let plane = LearningPlane {
///     exchange_every: 4,
///     rule: AggregationRule::TrimmedMean { k: 1 },
///     blend: BlendPolicy::Mix { weight: 0.5 },
/// };
/// let config = FleetConfig { learning: Some(plane), ..FleetConfig::default() };
/// assert_eq!(config.learning.unwrap().exchange_every, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningPlane {
    /// Run an exchange round every this-many epoch barriers (1 = every
    /// barrier). Must be at least 1.
    pub exchange_every: u64,
    /// How the coordinator folds per-node states into the fleet aggregate.
    /// The robust rules (`CoordinateWiseMedian`, `TrimmedMean`) tolerate a
    /// bounded number of arbitrarily corrupted contributions.
    pub rule: AggregationRule,
    /// How each node adopts the aggregate: replace its local state outright
    /// or mix convexly.
    pub blend: BlendPolicy,
}

impl Default for LearningPlane {
    /// Exchange at every barrier, aggregate by coordinate-wise median (the
    /// safe default: robust to a minority of corrupted nodes), replace local
    /// state with the aggregate.
    fn default() -> Self {
        LearningPlane {
            exchange_every: 1,
            rule: AggregationRule::CoordinateWiseMedian,
            blend: BlendPolicy::Replace,
        }
    }
}

impl LearningPlane {
    /// Validates the plane, returning a human-readable complaint for the
    /// fleet config error path.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.exchange_every == 0 {
            return Err("learning plane: exchange_every must be at least 1".into());
        }
        if let BlendPolicy::Mix { weight } = self.blend {
            if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
                return Err(format!(
                    "learning plane: blend weight must be a finite value in [0, 1], got {weight}"
                ));
            }
        }
        Ok(())
    }

    /// Whether the barrier at 0-based epoch index `epoch` is an exchange
    /// round (the `exchange_every`-th, counting from the first barrier).
    pub(crate) fn is_learn_epoch(&self, epoch: u64) -> bool {
        (epoch + 1).is_multiple_of(self.exchange_every)
    }
}

/// Counters of one fleet run's learning-plane activity
/// ([`FleetReport::learning`](crate::runtime::fleet::FleetReport::learning)).
/// All-zero when the fleet ran without a [`LearningPlane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LearningStats {
    /// Exchange rounds the coordinator ran.
    pub rounds: u64,
    /// Node exports absorbed across all rounds (a node that shipped at least
    /// one changed state counts once per round).
    pub participants: u64,
    /// Total payload exchanged, in bytes of `f64` values, counting both
    /// directions (node exports absorbed plus aggregates redistributed).
    pub bytes_exchanged: u64,
    /// The redistribution share of [`bytes_exchanged`](Self::bytes_exchanged):
    /// bytes of blended aggregates imported back into nodes (running rounds
    /// and joiner warm-starts alike). `bytes_exchanged − bytes_redistributed`
    /// is therefore the export direction, so the two counters together
    /// answer which way a learning fleet's bandwidth actually flows.
    pub bytes_redistributed: u64,
    /// States excluded from aggregation or redistribution because their kind
    /// or shape disagreed with the role's reference state, plus imports the
    /// receiving model refused.
    pub rejected: u64,
    /// Blended aggregates imported back into running nodes (one per agent
    /// slot per node per round; unchanged blends are skipped and not
    /// counted).
    pub redistributed: u64,
    /// Nodes that joined mid-run and were seeded from the fleet aggregate
    /// instead of learning from scratch.
    pub warm_starts: u64,
}

/// One node's learning-plane payload for a barrier: the learned states that
/// changed since the node's last export, keyed by agent slot (registration
/// order). Piggybacks on the change list the worker answers the barrier with.
#[derive(Debug, Clone)]
pub(crate) struct NodeLearnedExport {
    /// The exporting node's fleet index.
    pub(crate) node: usize,
    /// `(agent slot, state)` pairs, in slot order. Never empty — a node with
    /// nothing new ships no export at all. The node keeps a handle on each
    /// state as its next export's diff baseline, so an export is one
    /// allocation shared by the node and the coordinator's mirror.
    pub(crate) states: Vec<(usize, Arc<LearnedState>)>,
}

/// The coordinator's half of the learning plane: a per-node mirror of the
/// last known learned states (patched from exports, which carry only the
/// states a node changed since its last export or import), the latest per-slot
/// fleet aggregates (kept for warm-starting joiners between rounds), and the
/// run's cumulative [`LearningStats`].
///
/// States are immutable once exported, so every holder — a node's export
/// baseline, its mirror row, the aggregates — shares them by `Arc`: after a
/// [`BlendPolicy::Replace`] round the whole fleet points at *one* aggregate
/// allocation, and a node that learns on simply exports a fresh one.
///
/// All methods are deterministic functions of their inputs; callers must
/// feed them node indices in ascending order where order matters (`round`
/// and `redistribute` do), which the fleet coordinator guarantees by
/// iterating the registry in index order.
pub(crate) struct LearningExchange {
    plane: LearningPlane,
    /// `mirror[node][slot]` is the last state node `node`'s agent `slot`
    /// exported (or had imported), `None` before its first export. Retired
    /// nodes' rows are cleared so they stop contributing to aggregates.
    mirror: Vec<Vec<Option<Arc<LearnedState>>>>,
    /// Latest per-slot aggregates, refreshed by [`round`](Self::round).
    aggregates: Vec<Option<Arc<LearnedState>>>,
    stats: LearningStats,
}

impl LearningExchange {
    pub(crate) fn new(plane: LearningPlane, nodes: usize) -> Self {
        LearningExchange {
            plane,
            mirror: vec![Vec::new(); nodes],
            aggregates: Vec::new(),
            stats: LearningStats::default(),
        }
    }

    pub(crate) fn plane(&self) -> &LearningPlane {
        &self.plane
    }

    /// Grows the mirror to `nodes` rows (joined nodes extend the fleet; the
    /// mirror must extend with it before their first export).
    pub(crate) fn grow(&mut self, nodes: usize) {
        if nodes > self.mirror.len() {
            self.mirror.resize(nodes, Vec::new());
        }
    }

    /// Clears a retired node's mirror row: crashed and drained nodes stop
    /// contributing to aggregates from the barrier they retire at.
    pub(crate) fn forget(&mut self, node: usize) {
        if let Some(row) = self.mirror.get_mut(node) {
            row.clear();
        }
    }

    /// Absorbs a barrier's exports into the mirror. Exports are keyed by
    /// node index and the counters are sums, so arrival order (which depends
    /// on worker scheduling) never affects the result.
    pub(crate) fn absorb(&mut self, exports: impl IntoIterator<Item = NodeLearnedExport>) {
        for export in exports {
            debug_assert!(!export.states.is_empty(), "quiet nodes ship no export");
            self.stats.participants += 1;
            let row = &mut self.mirror[export.node];
            for (slot, state) in export.states {
                if row.len() <= slot {
                    row.resize(slot + 1, None);
                }
                self.stats.bytes_exchanged += state.byte_len() as u64;
                row[slot] = Some(state);
            }
        }
    }

    /// Runs one exchange round: folds the mirrored states of `live` (node
    /// indices in ascending order) into per-slot aggregates under the
    /// plane's rule. The first live node holding a state for a slot is that
    /// slot's reference; states of other nodes that disagree with it in kind
    /// or shape are excluded and counted as rejected. Slots nobody exported
    /// aggregate to `None`.
    pub(crate) fn round(&mut self, live: &[usize]) {
        self.stats.rounds += 1;
        let slots = live.iter().map(|&node| self.mirror[node].len()).max().unwrap_or(0);
        let mut aggregates: Vec<Option<Arc<LearnedState>>> = Vec::with_capacity(slots);
        for slot in 0..slots {
            let mut column: Vec<&LearnedState> = Vec::with_capacity(live.len());
            for &node in live {
                let Some(state) = self.mirror[node].get(slot).and_then(Option::as_deref) else {
                    continue;
                };
                match column.first() {
                    Some(reference) if reference.compatible_with(state).is_err() => {
                        self.stats.rejected += 1;
                    }
                    _ => column.push(state),
                }
            }
            // A fold of finite states can still overflow to infinity (e.g. a
            // mean of huge poisoned values); such a round yields no aggregate
            // for the slot rather than poisoning every node with it.
            aggregates.push(self.plane.rule.aggregate_refs(&column).ok().map(Arc::new));
        }
        self.aggregates = aggregates;
    }

    /// The latest per-slot aggregates (empty before the first round).
    pub(crate) fn aggregates(&self) -> &[Option<Arc<LearnedState>>] {
        &self.aggregates
    }

    /// The mirrored local state of `(node, slot)`, if any.
    pub(crate) fn local(&self, node: usize, slot: usize) -> Option<&Arc<LearnedState>> {
        self.mirror.get(node)?.get(slot)?.as_ref()
    }

    /// Redistributes the latest aggregates to `live` (node indices in
    /// ascending order): every mirrored local state is blended with its
    /// slot's aggregate under the plane's [`BlendPolicy`] and offered to
    /// `import(node, slot, blended)`, which hands it to the node's model and
    /// reports whether the model took it. Under [`BlendPolicy::Replace`] the
    /// blend *is* the aggregate, so every node is offered — and every mirror
    /// row then holds — the same allocation. The exchange never touches a
    /// node itself — the closure is the only way in — so it stays a pure
    /// function of its inputs.
    pub(crate) fn redistribute(
        &mut self,
        live: &[usize],
        mut import: impl FnMut(usize, usize, &Arc<LearnedState>) -> bool,
    ) {
        for &node in live {
            for slot in 0..self.aggregates.len() {
                let Some(aggregate) = &self.aggregates[slot] else { continue };
                // A node whose state was rejected from the round (or that
                // never exported this slot) keeps its local state untouched.
                let Some(local) = self.local(node, slot) else { continue };
                if local.compatible_with(aggregate).is_err() {
                    continue;
                }
                let blended = match self.plane.blend {
                    BlendPolicy::Replace => Arc::clone(aggregate),
                    mix => match mix.blend(local, aggregate) {
                        Ok(mixed) => Arc::new(mixed),
                        Err(_) => {
                            self.stats.rejected += 1;
                            continue;
                        }
                    },
                };
                if Arc::ptr_eq(&blended, local) || *blended == **local {
                    // Nothing to ship — the common case for `Replace` on a
                    // converged (or one-node) fleet, and what keeps a
                    // learning fleet of one byte-identical to `run_node`.
                    continue;
                }
                if import(node, slot, &blended) {
                    self.imported(node, slot, blended);
                } else {
                    // The receiving model refused the state: dropped, loudly.
                    self.stats.rejected += 1;
                }
            }
        }
    }

    /// Warm-starts joiner `node` from the latest aggregates (whether or not
    /// this barrier was an exchange round) instead of leaving it to learn
    /// from scratch: each aggregate is offered to `import(slot, aggregate)`.
    /// Counted once per node, however many of its slots took an aggregate.
    pub(crate) fn warm_start(
        &mut self,
        node: usize,
        mut import: impl FnMut(usize, &Arc<LearnedState>) -> bool,
    ) {
        let mut warmed = false;
        for slot in 0..self.aggregates.len() {
            let Some(aggregate) = &self.aggregates[slot] else { continue };
            if import(slot, aggregate) {
                let state = Arc::clone(aggregate);
                self.imported(node, slot, state);
                warmed = true;
            }
        }
        if warmed {
            self.stats.warm_starts += 1;
        }
    }

    /// Books a successful import into a running node, updating the mirror so
    /// the next diff baselines against what the node now actually holds.
    fn imported(&mut self, node: usize, slot: usize, state: Arc<LearnedState>) {
        self.stats.redistributed += 1;
        self.stats.bytes_exchanged += state.byte_len() as u64;
        self.stats.bytes_redistributed += state.byte_len() as u64;
        let row = &mut self.mirror[node];
        if row.len() <= slot {
            row.resize(slot + 1, None);
        }
        row[slot] = Some(state);
    }

    /// The run's cumulative counters.
    pub(crate) fn stats(&self) -> LearningStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sol_ml::exchange::StateKind;

    fn state(values: &[f64]) -> LearnedState {
        LearnedState::new(StateKind::LinearWeights, vec![values.len()], values.to_vec()).unwrap()
    }

    fn export(node: usize, slot: usize, values: &[f64]) -> NodeLearnedExport {
        NodeLearnedExport { node, states: vec![(slot, Arc::new(state(values)))] }
    }

    #[test]
    fn plane_validation_rejects_degenerate_configs() {
        assert!(LearningPlane::default().validate().is_ok());
        let zero = LearningPlane { exchange_every: 0, ..LearningPlane::default() };
        assert!(zero.validate().unwrap_err().contains("exchange_every"));
        for weight in [f64::NAN, -0.1, 1.5] {
            let mix =
                LearningPlane { blend: BlendPolicy::Mix { weight }, ..LearningPlane::default() };
            assert!(mix.validate().unwrap_err().contains("blend weight"));
        }
        let edge =
            LearningPlane { blend: BlendPolicy::Mix { weight: 1.0 }, ..LearningPlane::default() };
        assert!(edge.validate().is_ok());
    }

    #[test]
    fn learn_epochs_follow_the_exchange_cadence() {
        let every_third = LearningPlane { exchange_every: 3, ..LearningPlane::default() };
        let rounds: Vec<u64> = (0..9).filter(|&k| every_third.is_learn_epoch(k)).collect();
        assert_eq!(rounds, vec![2, 5, 8]);
        let every = LearningPlane::default();
        assert!((0..4).all(|k| every.is_learn_epoch(k)));
    }

    #[test]
    fn absorb_then_round_aggregates_in_node_order() {
        let mut exchange = LearningExchange::new(LearningPlane::default(), 3);
        // Deliver out of order, as a racing worker pool would.
        exchange.absorb(vec![
            export(2, 0, &[3.0, 30.0]),
            export(0, 0, &[1.0, 10.0]),
            export(1, 0, &[2.0, 20.0]),
        ]);
        exchange.round(&[0, 1, 2]);
        let aggregate = exchange.aggregates()[0].as_ref().unwrap();
        assert_eq!(aggregate.values(), &[2.0, 20.0]);
        let stats = exchange.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.participants, 3);
        assert_eq!(stats.bytes_exchanged, 3 * 2 * 8);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn incompatible_states_are_rejected_against_the_first_seen_reference() {
        let mut exchange = LearningExchange::new(LearningPlane::default(), 3);
        exchange.absorb(vec![
            export(0, 0, &[1.0, 10.0]),
            // Wrong shape for the slot: excluded, counted, and harmless.
            export(1, 0, &[5.0, 5.0, 5.0]),
            export(2, 0, &[3.0, 30.0]),
        ]);
        exchange.round(&[0, 1, 2]);
        let aggregate = exchange.aggregates()[0].as_ref().unwrap();
        assert_eq!(aggregate.shape(), &[2]);
        assert_eq!(aggregate.values(), &[2.0, 20.0]);
        assert_eq!(exchange.stats().rejected, 1);
    }

    #[test]
    fn forgotten_nodes_stop_contributing() {
        let mut exchange = LearningExchange::new(LearningPlane::default(), 2);
        exchange.absorb(vec![export(0, 0, &[1.0]), export(1, 0, &[9.0])]);
        exchange.forget(1);
        exchange.round(&[0, 1]);
        assert_eq!(exchange.aggregates()[0].as_ref().unwrap().values(), &[1.0]);
        assert!(exchange.local(1, 0).is_none());
    }

    #[test]
    fn unexported_slots_aggregate_to_none() {
        let mut exchange = LearningExchange::new(LearningPlane::default(), 2);
        exchange.absorb(vec![export(0, 1, &[4.0])]);
        exchange.round(&[0, 1]);
        assert_eq!(exchange.aggregates().len(), 2);
        assert!(exchange.aggregates()[0].is_none());
        assert_eq!(exchange.aggregates()[1].as_ref().unwrap().values(), &[4.0]);
    }

    #[test]
    fn imports_update_the_mirror_and_count_bytes_both_ways() {
        let plane = LearningPlane { rule: AggregationRule::Mean, ..LearningPlane::default() };
        let mut exchange = LearningExchange::new(plane, 2);
        exchange.absorb(vec![export(0, 0, &[1.0, 2.0]), export(1, 0, &[5.0, 6.0])]);
        exchange.round(&[0, 1]);
        let mut offered = Vec::new();
        exchange.redistribute(&[0, 1], |node, slot, state| {
            offered.push((node, slot, state.values().to_vec()));
            // Node 1's model refuses the state.
            node == 0
        });
        assert_eq!(offered, vec![(0, 0, vec![3.0, 4.0]), (1, 0, vec![3.0, 4.0])]);
        assert_eq!(exchange.local(0, 0).unwrap().values(), &[3.0, 4.0]);
        assert_eq!(
            exchange.local(1, 0).unwrap().values(),
            &[5.0, 6.0],
            "a refusal changes nothing"
        );
        let stats = exchange.stats();
        assert_eq!((stats.redistributed, stats.rejected), (1, 1));
        assert_eq!(stats.bytes_exchanged, 3 * 2 * 8);
        // Only the import direction counts as redistribution traffic.
        assert_eq!(stats.bytes_redistributed, 2 * 8);

        // Node 0 now holds the aggregate: a second pass has nothing to ship it.
        exchange.round(&[0]);
        exchange.redistribute(&[0], |_, _, _| panic!("an unchanged blend is never offered"));
    }

    #[test]
    fn joiners_warm_start_from_the_latest_aggregates() {
        let mut exchange = LearningExchange::new(LearningPlane::default(), 1);
        exchange.warm_start(0, |_, _| panic!("no aggregate exists before the first round"));
        exchange.absorb(vec![export(0, 1, &[7.0])]);
        exchange.round(&[0]);
        exchange.grow(3);
        exchange.warm_start(1, |slot, state| slot == 1 && state.values() == [7.0]);
        exchange.warm_start(2, |_, _| false);
        assert_eq!(exchange.local(1, 1).unwrap().values(), &[7.0]);
        assert!(exchange.local(2, 1).is_none());
        let stats = exchange.stats();
        assert_eq!((stats.warm_starts, stats.redistributed, stats.bytes_redistributed), (1, 1, 8));
    }

    #[test]
    fn grow_extends_the_mirror_for_joiners() {
        let mut exchange = LearningExchange::new(LearningPlane::default(), 1);
        exchange.grow(3);
        exchange.absorb(vec![export(2, 0, &[7.0])]);
        assert_eq!(exchange.local(2, 0).unwrap().values(), &[7.0]);
    }
}
