//! The fleet trust plane: per-node divergence scoring, poisoner
//! identification, and automated quarantine feeding the lifecycle layer.
//!
//! The [`learning`](crate::runtime::learning) plane *contains* Byzantine
//! nodes — a robust [`AggregationRule`](sol_ml::exchange::AggregationRule)
//! bounds what any single poisoned export can do to the fleet aggregate —
//! but containment alone lets a persistently poisoned node keep submitting
//! forever. The trust plane closes that loop, after the detect-and-evict
//! pairing of Byzantine-robust distributed learning systems (SABLE; Dong et
//! al.): on every exchange round the coordinator scores each participant's
//! mirrored export against the post-aggregation consensus
//! ([`LearnedState::l2_distance`] per agent slot, turned into a
//! coordinate-wise robust z-score across the round's participants via
//! [`robust_z_scores`], with the scale floored at a small fraction of the
//! consensus magnitude so a collapsed honest spread cannot amplify noise
//! into dissent), folds the evidence into per-node trust state with
//! exponential decay — one noisy round is forgiven, persistent divergence
//! accumulates — and emits typed [`TrustAction`]s once thresholds are
//! crossed:
//!
//! * [`TrustAction::Suspect`] — the node's exports are excluded from
//!   aggregation (it still receives the redistributed consensus, which is
//!   harmless by construction);
//! * [`TrustAction::Quarantine`] — the coordinator additionally issues a
//!   lifecycle [`Drain`](crate::runtime::lifecycle::LifecycleEvent::Drain)
//!   for the node at the next epoch barrier, and the existing
//!   `Draining → Drained` machinery retires it.
//!
//! Everything runs coordinator-side in node-index order inside the barrier's
//! deterministic per-round fold, so trust verdicts — like every other fleet
//! outcome — are byte-identical across worker-thread counts.
//!
//! The plane is opt-in via [`FleetConfig::trust`] and requires a configured
//! [`LearningPlane`](crate::runtime::learning::LearningPlane) (there is
//! nothing to score without an exchange round). Scores and verdicts surface
//! as [`TrustStats`] on [`FleetReport`] and a [`NodeTrustRecord`] per
//! [`FleetNodeReport`].
//!
//! [`FleetConfig::trust`]: crate::runtime::fleet::FleetConfig::trust
//! [`FleetReport`]: crate::runtime::fleet::FleetReport
//! [`FleetNodeReport`]: crate::runtime::fleet::FleetNodeReport
//! [`LearnedState::l2_distance`]: sol_ml::exchange::LearnedState::l2_distance
//! [`robust_z_scores`]: sol_ml::exchange::robust_z_scores

use sol_ml::exchange::robust_z_scores;

use crate::runtime::learning::LearningExchange;

/// Configuration of the fleet trust plane
/// ([`FleetConfig::trust`](crate::runtime::fleet::FleetConfig::trust)).
///
/// The defaults are tuned so an honest, heterogeneous fleet never trips them
/// (divergence is judged *relative to the round's peer spread*, so ordinary
/// learning drift scores near zero) while a persistent sign-flipping poisoner
/// is quarantined in three consecutive divergent rounds: suspicion follows
/// `s ← s·decay + 1` on a divergent round and `s ← s·decay` otherwise, so
/// with `decay = 0.5` one divergent round peaks at `1.0` (forgiven), two
/// consecutive reach `1.5` (suspect), three reach `1.75` (quarantine).
///
/// # Examples
///
/// ```
/// use sol_core::prelude::*;
///
/// let config = FleetConfig {
///     learning: Some(LearningPlane::default()),
///     trust: Some(TrustPolicy::default()),
///     ..FleetConfig::default()
/// };
/// assert_eq!(config.trust.unwrap().decay, 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustPolicy {
    /// Robust z-score of a node's consensus distance (against the round's
    /// participant spread) at or above which the round counts as divergence
    /// evidence for that node. Must be finite and positive.
    pub divergence_z: f64,
    /// Per-round exponential decay of accumulated suspicion, in `[0, 1)`:
    /// `0` remembers nothing but the latest round, values near `1` forgive
    /// slowly.
    pub decay: f64,
    /// Accumulated suspicion at or above which a node is [`Suspect`]: its
    /// exports are excluded from aggregation until the suspicion decays back
    /// below the threshold. Must be finite and positive.
    ///
    /// [`Suspect`]: TrustVerdict::Suspect
    pub suspect_after: f64,
    /// Accumulated suspicion at or above which a node is [`Quarantined`]:
    /// the coordinator emits a lifecycle `Drain` for it. Must be finite and
    /// at least [`suspect_after`](Self::suspect_after). Quarantine is
    /// one-way — a drained poisoner does not decay back into the fleet.
    ///
    /// [`Quarantined`]: TrustVerdict::Quarantined
    pub quarantine_after: f64,
}

impl Default for TrustPolicy {
    /// Divergence at sixteen robust sigmas (honest exploration noise in a
    /// replace-blended fleet peaks well under ten; a sign-flipping poisoner
    /// scores in the forties), half-life decay, suspect after two consecutive
    /// divergent rounds, quarantine after three.
    fn default() -> Self {
        TrustPolicy { divergence_z: 16.0, decay: 0.5, suspect_after: 1.5, quarantine_after: 1.75 }
    }
}

impl TrustPolicy {
    /// Validates the policy, returning a human-readable complaint for the
    /// fleet config error path.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.divergence_z.is_finite() || self.divergence_z <= 0.0 {
            return Err(format!(
                "trust policy: divergence_z must be finite and positive, got {}",
                self.divergence_z
            ));
        }
        if !self.decay.is_finite() || !(0.0..1.0).contains(&self.decay) {
            return Err(format!(
                "trust policy: decay must be a finite value in [0, 1), got {}",
                self.decay
            ));
        }
        if !self.suspect_after.is_finite() || self.suspect_after <= 0.0 {
            return Err(format!(
                "trust policy: suspect_after must be finite and positive, got {}",
                self.suspect_after
            ));
        }
        if !self.quarantine_after.is_finite() || self.quarantine_after < self.suspect_after {
            return Err(format!(
                "trust policy: quarantine_after must be finite and at least suspect_after \
                 ({}), got {}",
                self.suspect_after, self.quarantine_after
            ));
        }
        Ok(())
    }
}

/// A node's standing with the trust plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TrustVerdict {
    /// In good standing: exports participate in aggregation.
    #[default]
    Trusted,
    /// Suspicion at or above [`TrustPolicy::suspect_after`]: exports are
    /// excluded from aggregation. Reversible — suspicion decays back below
    /// the threshold if the node stops diverging.
    Suspect,
    /// Suspicion reached [`TrustPolicy::quarantine_after`]: a lifecycle
    /// `Drain` was issued. One-way; the node stays excluded until it
    /// retires.
    Quarantined,
}

/// A typed verdict transition the trust plane emitted at one exchange round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrustAction {
    /// The node crossed the suspect threshold: its exports are excluded from
    /// aggregation starting with the next round.
    Suspect {
        /// The node's fleet index.
        node: usize,
        /// The 0-based epoch of the exchange round that crossed the line.
        epoch: u64,
        /// The accumulated suspicion at emission.
        score: f64,
    },
    /// The node crossed the quarantine threshold: a lifecycle `Drain` is
    /// issued at the next epoch barrier.
    Quarantine {
        /// The node's fleet index.
        node: usize,
        /// The 0-based epoch of the exchange round that crossed the line.
        epoch: u64,
        /// The accumulated suspicion at emission.
        score: f64,
    },
}

/// One node's final trust record
/// ([`FleetNodeReport::trust`](crate::runtime::fleet::FleetNodeReport::trust)).
/// [`NodeTrustRecord::initial`] for a fleet run without a trust plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTrustRecord {
    /// The node's index in the fleet.
    pub node: usize,
    /// Final accumulated suspicion (decayed evidence of divergence).
    pub score: f64,
    /// The node's divergence z-score at the last round that scored it
    /// (`0.0` if it was never scored). The scale is floored at a small
    /// fraction of the consensus magnitude, so the score stays finite (and
    /// meaningful) even when the honest spread collapses to zero.
    pub last_divergence: f64,
    /// Exchange rounds that scored this node (it was live and had a
    /// mirrored export compatible with the round's consensus).
    pub rounds_scored: u64,
    /// Scored rounds whose divergence reached
    /// [`TrustPolicy::divergence_z`].
    pub divergent_rounds: u64,
    /// The node's final standing.
    pub verdict: TrustVerdict,
}

impl NodeTrustRecord {
    /// The pristine record of node `node`: zero suspicion, never scored,
    /// trusted.
    pub fn initial(node: usize) -> Self {
        NodeTrustRecord {
            node,
            score: 0.0,
            last_divergence: 0.0,
            rounds_scored: 0,
            divergent_rounds: 0,
            verdict: TrustVerdict::Trusted,
        }
    }
}

/// Counters of one fleet run's trust-plane activity
/// ([`FleetReport::trust`](crate::runtime::fleet::FleetReport::trust)).
/// All-zero when the fleet ran without a [`TrustPolicy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrustStats {
    /// Exchange rounds the trust plane evaluated.
    pub rounds_scored: u64,
    /// Node-rounds scored (one per live node with a scorable export, per
    /// round).
    pub nodes_scored: u64,
    /// Node-rounds whose divergence reached the policy's `divergence_z`.
    pub divergent: u64,
    /// [`TrustAction::Suspect`] transitions emitted (entries into the
    /// suspect state, not suspect-rounds).
    pub suspects: u64,
    /// [`TrustAction::Quarantine`] actions emitted (at most one per node).
    pub quarantines: u64,
    /// Node-rounds whose exports were withheld from aggregation because the
    /// node was suspect or quarantined at the start of the round.
    pub excluded: u64,
}

/// The z-score scale floor, as a fraction of `1 + ‖consensus‖₂`.
///
/// In a live fleet the honest distance spread routinely *collapses*: under
/// `Replace` blending every node imports the same aggregate each round, so
/// most distances to the next consensus are identical (often exactly zero)
/// and the MAD vanishes. Without a floor, one honest node's ordinary
/// exploration noise would then score `±∞`. Tying the floor to the consensus
/// magnitude keeps the unit meaningful in both regimes: deviations below a
/// few percent of the aggregate's own norm are never divergence, while a
/// sign-flipping poisoner sits at `(1 + gain) · ‖consensus‖₂` — dozens of
/// floors out even when the honest spread is zero. The `1 +` keeps the floor
/// nonzero for an all-zero (freshly initialized) consensus.
const SCALE_FLOOR_FRAC: f64 = 0.05;

/// The coordinator's trust engine: per-node records, cumulative stats, and
/// the scoring fold itself. All methods are deterministic functions of their
/// inputs; the fleet coordinator calls them in its per-round fold with node
/// indices in ascending order.
pub(crate) struct TrustPlane {
    policy: TrustPolicy,
    records: Vec<NodeTrustRecord>,
    stats: TrustStats,
}

impl TrustPlane {
    pub(crate) fn new(policy: TrustPolicy, nodes: usize) -> Self {
        TrustPlane {
            policy,
            records: (0..nodes).map(NodeTrustRecord::initial).collect(),
            stats: TrustStats::default(),
        }
    }

    /// Grows the record table to `nodes` rows (joined nodes extend the
    /// fleet; they start trusted and unscored).
    pub(crate) fn grow(&mut self, nodes: usize) {
        while self.records.len() < nodes {
            self.records.push(NodeTrustRecord::initial(self.records.len()));
        }
    }

    /// Filters `live` (node indices in ascending order) down to the nodes
    /// whose exports may participate in this round's aggregation, counting
    /// the withheld ones. Exclusion is based on verdicts standing at the
    /// start of the round, so a node's own round-`k` export can never vote
    /// on its round-`k` verdict.
    pub(crate) fn participants(&mut self, live: &[usize]) -> Vec<usize> {
        let mut kept = Vec::with_capacity(live.len());
        for &node in live {
            if self.records[node].verdict == TrustVerdict::Trusted {
                kept.push(node);
            } else {
                self.stats.excluded += 1;
            }
        }
        kept
    }

    /// Scores one exchange round and folds the evidence into the trust
    /// state, returning the verdict transitions in node-index order.
    ///
    /// Per agent slot, every live non-quarantined node with a mirrored
    /// export compatible with the slot's aggregate gets an L2 distance to
    /// the consensus; the distances are normalized into robust z-scores
    /// across the slot's column (so the honest spread sets the scale), and a
    /// node's round divergence is its worst slot. Suspect nodes are still
    /// scored — their exports are withheld from the consensus but measured
    /// against it, which is what escalates a persistent poisoner to
    /// quarantine and rehabilitates a node that stopped diverging.
    pub(crate) fn evaluate(
        &mut self,
        epoch: u64,
        live: &[usize],
        exchange: &LearningExchange,
    ) -> Vec<TrustAction> {
        self.stats.rounds_scored += 1;
        // Worst-slot divergence per node this round; `None` = not scorable.
        let mut divergence: Vec<Option<f64>> = vec![None; self.records.len()];
        for (slot, aggregate) in exchange.aggregates().iter().enumerate() {
            let Some(aggregate) = aggregate else { continue };
            let mut column_nodes: Vec<usize> = Vec::with_capacity(live.len());
            let mut distances: Vec<f64> = Vec::with_capacity(live.len());
            for &node in live {
                if self.records[node].verdict == TrustVerdict::Quarantined {
                    continue;
                }
                let Some(local) = exchange.local(node, slot) else { continue };
                // Kind/shape dissent was already counted as rejected by the
                // round fold; it is not divergence evidence.
                let Ok(distance) = local.l2_distance(aggregate) else { continue };
                column_nodes.push(node);
                distances.push(distance);
            }
            let norm = aggregate.values().iter().map(|v| v * v).sum::<f64>().sqrt();
            let floor = SCALE_FLOOR_FRAC * (1.0 + norm);
            for (&node, &z) in column_nodes.iter().zip(&robust_z_scores(&distances, floor)) {
                let worst = &mut divergence[node];
                *worst = Some(worst.map_or(z, |w| w.max(z)));
            }
        }

        let mut actions = Vec::new();
        for &node in live {
            let record = &mut self.records[node];
            if record.verdict == TrustVerdict::Quarantined {
                continue;
            }
            // Decay applies every evaluated round, scored or not: evidence
            // ages even while a node ships nothing.
            record.score *= self.policy.decay;
            if let Some(z) = divergence[node] {
                record.rounds_scored += 1;
                record.last_divergence = z;
                self.stats.nodes_scored += 1;
                if z >= self.policy.divergence_z {
                    record.divergent_rounds += 1;
                    record.score += 1.0;
                    self.stats.divergent += 1;
                }
            }
            let was_suspect = record.verdict == TrustVerdict::Suspect;
            if record.score >= self.policy.quarantine_after {
                record.verdict = TrustVerdict::Quarantined;
                self.stats.quarantines += 1;
                actions.push(TrustAction::Quarantine { node, epoch, score: record.score });
            } else if record.score >= self.policy.suspect_after {
                record.verdict = TrustVerdict::Suspect;
                if !was_suspect {
                    self.stats.suspects += 1;
                    actions.push(TrustAction::Suspect { node, epoch, score: record.score });
                }
            } else {
                record.verdict = TrustVerdict::Trusted;
            }
        }
        actions
    }

    /// The final record of node `node`.
    pub(crate) fn record(&self, node: usize) -> NodeTrustRecord {
        self.records[node]
    }

    /// The run's cumulative counters.
    pub(crate) fn stats(&self) -> TrustStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::learning::{LearningExchange, LearningPlane, NodeLearnedExport};
    use sol_ml::exchange::{LearnedState, StateKind};
    use std::sync::Arc;

    fn state(values: &[f64]) -> LearnedState {
        LearnedState::new(StateKind::QTable, vec![values.len()], values.to_vec()).unwrap()
    }

    /// An exchange whose round already folded: `honest.len() + flipped.len()`
    /// nodes exporting one slot, the tail `flipped` of them sign-flipped with
    /// the given gain.
    fn folded_exchange(honest: usize, flipped: usize, gain: f64) -> (LearningExchange, Vec<usize>) {
        let nodes = honest + flipped;
        let mut exchange = LearningExchange::new(LearningPlane::default(), nodes);
        exchange.absorb((0..nodes).map(|node| {
            let base = [1.0 + 0.01 * node as f64, 2.0 - 0.01 * node as f64];
            let values = if node >= honest { [-gain * base[0], -gain * base[1]] } else { base };
            NodeLearnedExport { node, states: vec![(0, Arc::new(state(&values)))] }
        }));
        let live: Vec<usize> = (0..nodes).collect();
        exchange.round(&live);
        (exchange, live)
    }

    #[test]
    fn default_policy_validates_and_rejections_are_loud() {
        assert!(TrustPolicy::default().validate().is_ok());
        let bad_z = TrustPolicy { divergence_z: 0.0, ..TrustPolicy::default() };
        assert!(bad_z.validate().unwrap_err().contains("divergence_z"));
        for decay in [f64::NAN, -0.1, 1.0] {
            let bad = TrustPolicy { decay, ..TrustPolicy::default() };
            assert!(bad.validate().unwrap_err().contains("decay"));
        }
        let bad_suspect = TrustPolicy { suspect_after: -1.0, ..TrustPolicy::default() };
        assert!(bad_suspect.validate().unwrap_err().contains("suspect_after"));
        let inverted = TrustPolicy { quarantine_after: 1.0, ..TrustPolicy::default() };
        assert!(inverted.validate().unwrap_err().contains("quarantine_after"));
    }

    #[test]
    fn persistent_divergence_escalates_suspect_then_quarantine() {
        let (exchange, live) = folded_exchange(6, 2, 4.0);
        let mut trust = TrustPlane::new(TrustPolicy::default(), live.len());

        // Round 1: evidence accumulates, nobody crosses a threshold.
        assert!(trust.evaluate(0, &live, &exchange).is_empty());
        assert_eq!(trust.record(6).verdict, TrustVerdict::Trusted);
        assert_eq!(trust.record(6).divergent_rounds, 1);

        // Round 2: both poisoners cross into Suspect, in index order.
        let actions = trust.evaluate(1, &live, &exchange);
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], TrustAction::Suspect { node: 6, .. }));
        assert!(matches!(actions[1], TrustAction::Suspect { node: 7, .. }));

        // Their exports are now withheld from aggregation.
        let participants = trust.participants(&live);
        assert_eq!(participants, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(trust.stats().excluded, 2);

        // Round 3: still diverging against the honest consensus → Quarantine.
        let actions = trust.evaluate(2, &live, &exchange);
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], TrustAction::Quarantine { node: 6, .. }));
        assert!(matches!(actions[1], TrustAction::Quarantine { node: 7, .. }));
        assert_eq!(trust.record(7).verdict, TrustVerdict::Quarantined);

        // Quarantined nodes are no longer scored, and never re-emit.
        let before = trust.record(6).rounds_scored;
        assert!(trust.evaluate(3, &live, &exchange).is_empty());
        assert_eq!(trust.record(6).rounds_scored, before);

        let stats = trust.stats();
        assert_eq!(stats.suspects, 2);
        assert_eq!(stats.quarantines, 2);
        assert_eq!(stats.rounds_scored, 4);

        // Honest nodes never accumulated anything.
        for node in 0..6 {
            assert_eq!(trust.record(node).verdict, TrustVerdict::Trusted);
            assert_eq!(trust.record(node).divergent_rounds, 0);
        }
    }

    #[test]
    fn one_noisy_round_is_forgiven_by_decay() {
        let policy = TrustPolicy::default();
        let mut trust = TrustPlane::new(policy, 8);

        let (noisy, live) = folded_exchange(7, 1, 4.0);
        assert!(trust.evaluate(0, &live, &noisy).is_empty());
        assert_eq!(trust.record(7).score, 1.0);
        assert_eq!(trust.record(7).verdict, TrustVerdict::Trusted);

        // The node behaves from round 2 on: suspicion halves every round and
        // the verdict never leaves Trusted.
        let (clean, _) = folded_exchange(8, 0, 0.0);
        trust.evaluate(1, &live, &clean);
        assert_eq!(trust.record(7).score, 0.5);
        trust.evaluate(2, &live, &clean);
        assert_eq!(trust.record(7).score, 0.25);
        assert_eq!(trust.record(7).verdict, TrustVerdict::Trusted);
        assert_eq!(trust.stats().suspects, 0);
        assert_eq!(trust.stats().quarantines, 0);
    }

    #[test]
    fn a_clean_fleet_accumulates_nothing() {
        let (exchange, live) = folded_exchange(8, 0, 0.0);
        let mut trust = TrustPlane::new(TrustPolicy::default(), live.len());
        for epoch in 0..10 {
            assert!(trust.evaluate(epoch, &live, &exchange).is_empty());
        }
        let stats = trust.stats();
        assert_eq!(stats.divergent, 0);
        assert_eq!(stats.suspects, 0);
        assert_eq!(stats.quarantines, 0);
        assert_eq!(stats.excluded, 0);
        assert_eq!(stats.nodes_scored, 8 * 10);
        assert_eq!(trust.participants(&live), live);
    }

    #[test]
    fn grow_extends_records_for_joiners() {
        let mut trust = TrustPlane::new(TrustPolicy::default(), 2);
        trust.grow(4);
        assert_eq!(trust.record(3), NodeTrustRecord::initial(3));
        // Shrinking never happens; a smaller `nodes` is a no-op.
        trust.grow(1);
        assert_eq!(trust.record(3).node, 3);
    }
}
