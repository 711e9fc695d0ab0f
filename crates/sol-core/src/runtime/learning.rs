//! The fleet learning plane: exchange, robust aggregation, and
//! redistribution of learned state across node churn.
//!
//! SOL's agents learn on-node, but a fleet of thousands of nodes learns the
//! same task thousands of times over. The learning plane turns the fleet's
//! epoch barrier into a periodic model-exchange point. Each node keeps one
//! [`LearnedState`] per learner, its export baseline, and that baseline is
//! the fleet's view of the node: at an exchange round the node's worker
//! overwrites in place the entries whose snapshot changed since the node
//! last exported or imported them, and answers the barrier with two
//! counters (quiet learners count nothing). The coordinator then reads the
//! baselines while the workers are idle, folds the per-role states with a
//! robust [`AggregationRule`] —
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

/// A node as redistribution takes it: its export baseline (learned states
/// indexed by agent slot) beside `import(slot, state)`, which hands a state
/// to that agent's model and reports whether the model took it.
pub(crate) type Learner<'a, I> = (&'a mut Vec<Option<LearnedState>>, I);

/// One live node's learned states as an exchange round reads them, in
/// place: its fleet index and its export baseline.
pub(crate) type Row<'a> = (usize, &'a [Option<LearnedState>]);

/// The coordinator's half of the learning plane: the latest per-slot fleet
/// aggregates (kept for warm-starting joiners between rounds) and the run's
/// cumulative [`LearningStats`].
///
/// Each node keeps exactly one copy of its learned states, its export
/// baseline, written in place: by the node's worker when an exchange round
/// finds a snapshot that differs from it, and by
/// [`redistribute`](Self::redistribute) when the node imports a blend. A
/// worker ships only two counters per barrier (nodes that changed, bytes
/// they changed), [`round`](Self::round) reads the baselines as [`Row`]s,
/// and redistribution writes them back. Per exchange round a node
/// allocates only its models' snapshots, and the coordinator only the
/// aggregates.
///
/// All methods are deterministic functions of their inputs; callers must
/// feed them nodes in ascending index order where order matters (`round`
/// and `redistribute` do), which the fleet coordinator guarantees by
/// iterating the registry in index order.
pub(crate) struct LearningExchange {
    plane: LearningPlane,
    /// Latest per-slot aggregates, refreshed by [`round`](Self::round).
    aggregates: Vec<Option<LearnedState>>,
    stats: LearningStats,
}

impl LearningExchange {
    pub(crate) fn new(plane: LearningPlane) -> Self {
        LearningExchange { plane, aggregates: Vec::new(), stats: LearningStats::default() }
    }

    pub(crate) fn plane(&self) -> &LearningPlane {
        &self.plane
    }

    /// Books one worker's share of a barrier's exports: `participants`
    /// nodes shipped at least one changed state, `bytes` of them in all.
    /// Both are sums, so arrival order (which depends on worker scheduling)
    /// never affects the result.
    pub(crate) fn absorb(&mut self, participants: u64, bytes: u64) {
        self.stats.participants += participants;
        self.stats.bytes_exchanged += bytes;
    }

    /// Runs one exchange round: folds the baselines of `rows` (in ascending
    /// node order) into per-slot aggregates under the plane's rule. The
    /// first row holding a state for a slot is that slot's reference;
    /// states of other nodes that disagree with it in kind or shape are
    /// excluded and counted as rejected. Slots nobody exported aggregate to
    /// `None`.
    pub(crate) fn round(&mut self, rows: &[Row<'_>]) {
        self.stats.rounds += 1;
        let slots = rows.iter().map(|(_, row)| row.len()).max().unwrap_or(0);
        let mut aggregates = Vec::with_capacity(slots);
        let mut column: Vec<&LearnedState> = Vec::with_capacity(rows.len());
        for slot in 0..slots {
            column.clear();
            for (_, row) in rows {
                let Some(state) = row.get(slot).and_then(Option::as_ref) else { continue };
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
            aggregates.push(self.plane.rule.aggregate_refs(&column).ok());
        }
        self.aggregates = aggregates;
    }

    /// The latest per-slot aggregates (empty before the first round).
    pub(crate) fn aggregates(&self) -> &[Option<LearnedState>] {
        &self.aggregates
    }

    /// Redistributes the latest aggregates to one live node (callers visit
    /// them in ascending index order), given its export baseline `base` and
    /// its models' `import`. Each slot's aggregate is blended with the
    /// baseline under the plane's [`BlendPolicy`]. A slot the node never
    /// exported, or holds in another kind or shape, keeps its state; a blend
    /// equal to the baseline is not offered — the common case for `Replace`
    /// on a converged (or one-node) fleet, and what keeps a learning fleet
    /// of one byte-identical to `run_node`. An imported blend overwrites the
    /// baseline in place; a refused one is dropped, loudly.
    pub(crate) fn redistribute<I>(&mut self, (base, mut import): Learner<'_, I>)
    where
        I: FnMut(usize, &LearnedState) -> bool,
    {
        for (slot, aggregate) in self.aggregates.iter().enumerate() {
            let Some(aggregate) = aggregate else { continue };
            let Some(local) = base.get_mut(slot).and_then(Option::as_mut) else { continue };
            if local.compatible_with(aggregate).is_err() {
                continue;
            }
            let mixed;
            let blended = match self.plane.blend {
                BlendPolicy::Replace => aggregate,
                mix => match mix.blend(local, aggregate) {
                    Ok(state) => {
                        mixed = state;
                        &mixed
                    }
                    Err(_) => {
                        self.stats.rejected += 1;
                        continue;
                    }
                },
            };
            if *blended == *local {
                continue;
            }
            if import(slot, blended) {
                local.assign_from(blended).expect("a blend keeps the baseline's kind and shape");
                self.stats.imported(blended);
            } else {
                self.stats.rejected += 1;
            }
        }
    }

    /// Warm-starts a joiner from the latest aggregates (whether or not this
    /// barrier was an exchange round) instead of leaving it to learn from
    /// scratch: each aggregate is offered to the node's `import` and, once
    /// taken, becomes the slot's baseline. Counted once per node, however
    /// many of its slots took an aggregate.
    pub(crate) fn warm_start<I>(&mut self, (base, mut import): Learner<'_, I>)
    where
        I: FnMut(usize, &LearnedState) -> bool,
    {
        let mut warmed = false;
        for (slot, aggregate) in self.aggregates.iter().enumerate() {
            let Some(aggregate) = aggregate else { continue };
            if import(slot, aggregate) {
                if base.len() <= slot {
                    base.resize(slot + 1, None);
                }
                base[slot] = Some(aggregate.clone());
                self.stats.imported(aggregate);
                warmed = true;
            }
        }
        if warmed {
            self.stats.warm_starts += 1;
        }
    }

    /// The run's cumulative counters.
    pub(crate) fn stats(&self) -> LearningStats {
        self.stats
    }
}

impl LearningStats {
    /// Books a state imported into a running node or a joiner.
    fn imported(&mut self, state: &LearnedState) {
        self.redistributed += 1;
        self.bytes_exchanged += state.byte_len() as u64;
        self.bytes_redistributed += state.byte_len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sol_ml::exchange::StateKind;

    fn state(values: &[f64]) -> LearnedState {
        LearnedState::new(StateKind::LinearWeights, vec![values.len()], values.to_vec()).unwrap()
    }

    /// A baseline holding `values` in agent slot `slot` alone.
    fn row(slot: usize, values: &[f64]) -> Vec<Option<LearnedState>> {
        let mut row = vec![None; slot + 1];
        row[slot] = Some(state(values));
        row
    }

    /// The rows of `baselines`, node `i` holding `baselines[i]`.
    fn rows(baselines: &[Vec<Option<LearnedState>>]) -> Vec<Row<'_>> {
        baselines.iter().enumerate().map(|(node, row)| (node, row.as_slice())).collect()
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
        let mut exchange = LearningExchange::new(LearningPlane::default());
        // Two workers' counters, in whichever order they answered: sums.
        exchange.absorb(2, 2 * 2 * 8);
        exchange.absorb(1, 2 * 8);
        let baselines = [row(0, &[1.0, 10.0]), row(0, &[3.0, 30.0]), row(0, &[2.0, 20.0])];
        exchange.round(&rows(&baselines));
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
        let mut exchange = LearningExchange::new(LearningPlane::default());
        let baselines = [
            row(0, &[1.0, 10.0]),
            // Wrong shape for the slot: excluded, counted, and harmless.
            row(0, &[5.0, 5.0, 5.0]),
            row(0, &[3.0, 30.0]),
        ];
        exchange.round(&rows(&baselines));
        let aggregate = exchange.aggregates()[0].as_ref().unwrap();
        assert_eq!(aggregate.shape(), &[2]);
        assert_eq!(aggregate.values(), &[2.0, 20.0]);
        assert_eq!(exchange.stats().rejected, 1);
    }

    #[test]
    fn unexported_slots_aggregate_to_none() {
        let mut exchange = LearningExchange::new(LearningPlane::default());
        // Node 1 never exported: its baseline is empty.
        exchange.round(&rows(&[row(1, &[4.0]), Vec::new()]));
        assert_eq!(exchange.aggregates().len(), 2);
        assert!(exchange.aggregates()[0].is_none());
        assert_eq!(exchange.aggregates()[1].as_ref().unwrap().values(), &[4.0]);
    }

    /// The baseline is the plane's only mirror of a node: an import writes
    /// it in place, a refusal leaves it alone, and both byte counters move.
    #[test]
    fn imports_update_the_mirror_and_count_bytes_both_ways() {
        let plane = LearningPlane { rule: AggregationRule::Mean, ..LearningPlane::default() };
        let mut exchange = LearningExchange::new(plane);
        exchange.absorb(2, 2 * 2 * 8);
        let mut baselines = [row(0, &[1.0, 2.0]), row(0, &[5.0, 6.0])];
        exchange.round(&rows(&baselines));
        let mut offered = Vec::new();
        for (node, base) in baselines.iter_mut().enumerate() {
            exchange.redistribute((base, |slot, state: &LearnedState| {
                offered.push((node, slot, state.values().to_vec()));
                // Node 1's model refuses the state.
                node == 0
            }));
        }
        assert_eq!(offered, vec![(0, 0, vec![3.0, 4.0]), (1, 0, vec![3.0, 4.0])]);
        assert_eq!(baselines[0][0].as_ref().unwrap().values(), &[3.0, 4.0]);
        assert_eq!(
            baselines[1][0].as_ref().unwrap().values(),
            &[5.0, 6.0],
            "a refusal changes nothing"
        );
        let stats = exchange.stats();
        assert_eq!((stats.redistributed, stats.rejected), (1, 1));
        assert_eq!(stats.bytes_exchanged, 3 * 2 * 8);
        // Only the import direction counts as redistribution traffic.
        assert_eq!(stats.bytes_redistributed, 2 * 8);

        // Node 0 now holds the aggregate: a second pass has nothing to ship it.
        exchange.round(&rows(&baselines[..1]));
        let unchanged = |_, _: &LearnedState| panic!("an unchanged blend is never offered");
        exchange.redistribute((&mut baselines[0], unchanged));
    }

    #[test]
    fn joiners_warm_start_from_the_latest_aggregates() {
        let mut exchange = LearningExchange::new(LearningPlane::default());
        let mut early = Vec::new();
        let early_import =
            |_, _: &LearnedState| panic!("no aggregate exists before the first round");
        exchange.warm_start((&mut early, early_import));
        exchange.round(&rows(&[row(1, &[7.0])]));
        let (mut warm, mut cold) = (Vec::new(), Vec::new());
        exchange.warm_start((&mut warm, |slot, state: &LearnedState| {
            slot == 1 && state.values() == [7.0]
        }));
        exchange.warm_start((&mut cold, |_, _: &LearnedState| false));
        assert!(warm[0].is_none());
        assert_eq!(warm[1].as_ref().unwrap().values(), &[7.0]);
        assert!(cold.is_empty(), "a refused warm start leaves no baseline");
        let stats = exchange.stats();
        assert_eq!((stats.warm_starts, stats.redistributed, stats.bytes_redistributed), (1, 1, 8));
    }
}
