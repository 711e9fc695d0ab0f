//! Learned-state exchange: a uniform export/import surface over every learner
//! plus the robust aggregation rules a fleet needs to combine them.
//!
//! SOL's agents learn strictly per node; once nodes are mortal (crash, join,
//! drain) that isolation throws experience away. This module is the sol-ml
//! half of the fleet learning plane: each learner can export its mutable
//! parameters as a [`LearnedState`] — a tagged, flat `f64` vector with shape
//! metadata — and import one back. Peers' states are combined with an
//! [`AggregationRule`]; the Byzantine-robust rules (coordinate-wise median,
//! trimmed mean, after SABLE and Dong et al.) bound the influence any single
//! poisoned node can exert on the fleet aggregate. A [`BlendPolicy`] decides
//! how much of the aggregate a node adopts.
//!
//! Exports capture *values only* — never RNG state, update counters, or
//! configuration — so importing a state cannot perturb a learner's exploration
//! stream and determinism is preserved.

use std::fmt;

/// Which learner family a [`LearnedState`] came from. Aggregation refuses to
/// mix kinds: averaging a Q-table into a Beta posterior is never meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// A tabular Q-function, shape `[states, actions]`, row-major.
    QTable,
    /// Linear model parameters: one or more rows of `weights ++ [bias]`.
    LinearWeights,
    /// Beta-Bernoulli posteriors, shape `[arms, 2]` as `(α, β)` pairs.
    BetaPosteriors,
}

impl fmt::Display for StateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StateKind::QTable => "q-table",
            StateKind::LinearWeights => "linear-weights",
            StateKind::BetaPosteriors => "beta-posteriors",
        };
        f.write_str(name)
    }
}

/// Why an export, import, aggregation, or blend was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The state's kind does not match the learner or the other states.
    KindMismatch {
        /// Kind the receiver requires.
        expected: StateKind,
        /// Kind that was offered.
        found: StateKind,
    },
    /// The state's shape does not match the learner or the other states.
    ShapeMismatch {
        /// Shape the receiver requires.
        expected: Vec<usize>,
        /// Shape that was offered.
        found: Vec<usize>,
    },
    /// A value is NaN or infinite.
    NonFinite {
        /// Flat index of the offending value.
        index: usize,
    },
    /// A value is finite but semantically invalid for the target learner
    /// (e.g. a non-positive Beta parameter, a negative sample count).
    InvalidValue {
        /// Flat index of the offending value.
        index: usize,
        /// Human-readable constraint that was violated.
        reason: &'static str,
    },
    /// [`AggregationRule::aggregate`] was called with zero states.
    EmptyAggregation,
    /// The receiver has no learned state to exchange (e.g. a model without
    /// an exchangeable learner asked to import).
    Unsupported,
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::KindMismatch { expected, found } => {
                write!(f, "state kind mismatch: expected {expected}, found {found}")
            }
            ExchangeError::ShapeMismatch { expected, found } => {
                write!(f, "state shape mismatch: expected {expected:?}, found {found:?}")
            }
            ExchangeError::NonFinite { index } => {
                write!(f, "non-finite value at flat index {index}")
            }
            ExchangeError::InvalidValue { index, reason } => {
                write!(f, "invalid value at flat index {index}: {reason}")
            }
            ExchangeError::EmptyAggregation => f.write_str("cannot aggregate zero states"),
            ExchangeError::Unsupported => f.write_str("receiver has no learned state"),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// A learner's exported parameters: a kind tag, a shape, and the flat values.
///
/// Construction validates that the shape describes the value count and that
/// every value is finite, so downstream aggregation code never has to handle
/// NaN (the sort-based rules rely on this).
///
/// # Examples
///
/// ```
/// use sol_ml::exchange::{LearnedState, StateKind};
///
/// let s = LearnedState::new(StateKind::QTable, vec![2, 3], vec![0.0; 6]).unwrap();
/// assert_eq!(s.len(), 6);
/// assert_eq!(s.byte_len(), 48);
/// assert!(LearnedState::new(StateKind::QTable, vec![2, 3], vec![f64::NAN; 6]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedState {
    kind: StateKind,
    shape: Vec<usize>,
    values: Vec<f64>,
}

impl LearnedState {
    /// Builds a state, validating that `shape`'s element product equals
    /// `values.len()` and that every value is finite.
    pub fn new(
        kind: StateKind,
        shape: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, ExchangeError> {
        let expected: usize = shape.iter().product();
        if expected != values.len() {
            return Err(ExchangeError::ShapeMismatch {
                expected: shape,
                found: vec![values.len()],
            });
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(ExchangeError::NonFinite { index });
        }
        Ok(LearnedState { kind, shape, values })
    }

    /// The learner family this state belongs to.
    pub fn kind(&self) -> StateKind {
        self.kind
    }

    /// Logical shape of the flat value vector.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The flat values, row-major over [`shape`](Self::shape).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the state holds zero values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Wire size of the values in bytes (8 per `f64`), used for the learning
    /// plane's `bytes_exchanged` accounting.
    pub fn byte_len(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }

    /// Checks that `other` has the same kind and shape as `self`.
    pub fn compatible_with(&self, other: &LearnedState) -> Result<(), ExchangeError> {
        if self.kind != other.kind {
            return Err(ExchangeError::KindMismatch { expected: self.kind, found: other.kind });
        }
        if self.shape != other.shape {
            return Err(ExchangeError::ShapeMismatch {
                expected: self.shape.clone(),
                found: other.shape.clone(),
            });
        }
        Ok(())
    }

    /// Euclidean (L2) distance between `self` and `other`, the trust plane's
    /// raw per-node divergence measure: how far one node's export sits from
    /// the post-aggregation consensus, summed over every coordinate. Finite
    /// inputs are guaranteed by construction, but a distance over huge
    /// poisoned values can still overflow to `+∞` — callers treating the
    /// distance as evidence should handle that as "maximally divergent"
    /// rather than an error.
    ///
    /// # Errors
    ///
    /// Returns the [`compatible_with`](Self::compatible_with) error when the
    /// two states disagree in kind or shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use sol_ml::exchange::{LearnedState, StateKind};
    ///
    /// let a = LearnedState::new(StateKind::QTable, vec![2], vec![0.0, 0.0]).unwrap();
    /// let b = LearnedState::new(StateKind::QTable, vec![2], vec![3.0, 4.0]).unwrap();
    /// assert_eq!(a.l2_distance(&b).unwrap(), 5.0);
    /// ```
    pub fn l2_distance(&self, other: &LearnedState) -> Result<f64, ExchangeError> {
        self.compatible_with(other)?;
        let sum: f64 = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum();
        Ok(sum.sqrt())
    }
}

/// Consistency factor relating the median absolute deviation to a standard
/// deviation under normality (`1 / Φ⁻¹(3/4)`): scaling the MAD by this makes
/// [`robust_z_scores`] read in "sigma" units, so thresholds carry familiar
/// meaning while the estimate itself keeps the median's 50% breakdown point.
pub const MAD_CONSISTENCY: f64 = 1.4826;

/// Robust z-score of every value in `sample`, coordinate-wise against the
/// sample itself: `(x − median) / max(MAD_CONSISTENCY · MAD, scale_floor)`,
/// where the median and the MAD (median absolute deviation) are taken over
/// the whole sample. Both medians reuse
/// [`AggregationRule::CoordinateWiseMedian`] — including its even-count
/// middle-pair averaging — so the trust plane's consensus math is exactly the
/// aggregation math the robustness tests already pin down.
///
/// Unlike a classical z-score, a minority of arbitrarily corrupted values
/// cannot mask itself: median and MAD ignore up to half the sample, so the
/// honest majority sets the scale and outliers score high.
///
/// `scale_floor` guards against a *collapsed* honest spread. When at least
/// half the sample is identical the MAD is zero, and without a floor any
/// other value would score `±∞` — the right reading for hand-picked samples,
/// but in a live fleet the spread routinely collapses for honest reasons
/// (every node just imported the same redistributed aggregate), and callers
/// should pass a floor in the caller's own units (e.g. a small fraction of
/// the consensus magnitude) below which deviations are not worth
/// normalizing. With `scale_floor = 0.0` the degenerate behaviour is
/// deterministic: a value equal to the median scores `0.0` and any other
/// value scores `±∞`. An empty sample yields an empty vector.
///
/// # Panics
///
/// Panics if `sample` contains NaN (the medians sort). `+∞`/`−∞` are
/// tolerated and score themselves `±∞`.
///
/// # Examples
///
/// ```
/// use sol_ml::exchange::robust_z_scores;
///
/// let z = robust_z_scores(&[1.0, 1.1, 0.9, 1.0, 100.0], 0.0);
/// assert!(z[4] > 100.0); // the outlier is hundreds of MADs out
/// assert!(z[0].abs() < 1.0); // the cluster scores near zero
///
/// // A collapsed spread with a floor: the dissenter scores in units of the
/// // floor instead of ±∞.
/// let z = robust_z_scores(&[2.0, 2.0, 2.0, 2.5], 0.1);
/// assert_eq!(z, vec![0.0, 0.0, 0.0, 5.0]);
/// ```
pub fn robust_z_scores(sample: &[f64], scale_floor: f64) -> Vec<f64> {
    if sample.is_empty() {
        return Vec::new();
    }
    let median = AggregationRule::CoordinateWiseMedian.combine(&mut sample.to_vec());
    let mut deviations: Vec<f64> = sample.iter().map(|x| (x - median).abs()).collect();
    let mad = AggregationRule::CoordinateWiseMedian.combine(&mut deviations);
    let scale = (MAD_CONSISTENCY * mad).max(scale_floor);
    sample
        .iter()
        .map(|x| {
            let deviation = x - median;
            if deviation == 0.0 {
                0.0
            } else {
                // scale == 0 divides to ±∞: maximal divergence from an
                // otherwise perfectly agreed sample.
                deviation / scale
            }
        })
        .collect()
}

/// How a fleet combines one coordinate across peer states.
///
/// `Mean` is the textbook federated-averaging rule and is what a single
/// poisoned peer corrupts: one arbitrarily large coordinate drags the average
/// anywhere. The robust rules bound that influence: with `n` participants,
/// `CoordinateWiseMedian` tolerates up to `⌈n/2⌉ - 1` arbitrary vectors and
/// `TrimmedMean { k }` tolerates up to `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationRule {
    /// Arithmetic mean of each coordinate. Fast, fragile.
    Mean,
    /// Median of each coordinate (even counts average the two middle values).
    CoordinateWiseMedian,
    /// Drop the `k` smallest and `k` largest values of each coordinate, then
    /// average the rest. `k` is clamped so at least one value survives.
    TrimmedMean {
        /// Values trimmed from *each* end per coordinate.
        k: usize,
    },
}

impl AggregationRule {
    /// Combines one coordinate's values across peers. The slice is reordered
    /// in place (the robust rules sort it). Inputs must be NaN-free —
    /// guaranteed for values out of [`LearnedState`]s, whose construction
    /// rejects non-finite values.
    ///
    /// # Panics
    ///
    /// Panics if `column` is empty or contains NaN.
    pub fn combine(&self, column: &mut [f64]) -> f64 {
        assert!(!column.is_empty(), "cannot combine zero values");
        match *self {
            AggregationRule::Mean => column.iter().sum::<f64>() / column.len() as f64,
            AggregationRule::CoordinateWiseMedian => {
                column.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
                let n = column.len();
                if n % 2 == 1 {
                    column[n / 2]
                } else {
                    (column[n / 2 - 1] + column[n / 2]) / 2.0
                }
            }
            AggregationRule::TrimmedMean { k } => {
                column.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
                let n = column.len();
                let k = k.min((n - 1) / 2);
                let kept = &column[k..n - k];
                kept.iter().sum::<f64>() / kept.len() as f64
            }
        }
    }

    /// Aggregates peer states coordinate-by-coordinate into one state of the
    /// same kind and shape. All inputs must agree on kind and shape; the
    /// first state is the reference.
    ///
    /// # Examples
    ///
    /// ```
    /// use sol_ml::exchange::{AggregationRule, LearnedState, StateKind};
    ///
    /// let honest = LearnedState::new(StateKind::QTable, vec![2], vec![1.0, 2.0]).unwrap();
    /// let poisoned = LearnedState::new(StateKind::QTable, vec![2], vec![-1e9, 1e9]).unwrap();
    /// let states = [honest.clone(), honest.clone(), poisoned];
    ///
    /// let median = AggregationRule::CoordinateWiseMedian.aggregate(&states).unwrap();
    /// assert_eq!(median.values(), honest.values()); // outvoted
    ///
    /// let mean = AggregationRule::Mean.aggregate(&states).unwrap();
    /// assert!(mean.values()[1] > 1e8); // dragged away
    /// ```
    pub fn aggregate(&self, states: &[LearnedState]) -> Result<LearnedState, ExchangeError> {
        self.aggregate_refs(&states.iter().collect::<Vec<_>>())
    }

    /// [`aggregate`](Self::aggregate) over borrowed states: what a caller
    /// holding its states behind `Arc`s or in rows of a larger table passes,
    /// instead of cloning every state into one slice first.
    ///
    /// The values are gathered column-major into one scratch buffer, a block
    /// of coordinates at a time — every state is read in contiguous runs
    /// rather than once per coordinate — and each coordinate is then one
    /// [`combine`](Self::combine) over its contiguous column, in the order
    /// the states were given.
    ///
    /// # Errors
    ///
    /// See [`aggregate`](Self::aggregate).
    pub fn aggregate_refs(&self, states: &[&LearnedState]) -> Result<LearnedState, ExchangeError> {
        self.aggregate_gathered(states, GATHER_COORDS)
    }

    /// [`aggregate_refs`](Self::aggregate_refs) with the coordinates gathered
    /// per pass as a parameter, so tests can force ragged passes.
    fn aggregate_gathered(
        &self,
        states: &[&LearnedState],
        block: usize,
    ) -> Result<LearnedState, ExchangeError> {
        let (first, rest) = states.split_first().ok_or(ExchangeError::EmptyAggregation)?;
        for state in rest {
            first.compatible_with(state)?;
        }
        let (n, len) = (states.len(), first.len());
        let block = block.clamp(1, len.max(1));
        let mut columns = vec![0.0; block * n];
        let mut values = Vec::with_capacity(len);
        for from in (0..len).step_by(block) {
            let width = block.min(len - from);
            for (s, state) in states.iter().enumerate() {
                for (c, &value) in state.values[from..from + width].iter().enumerate() {
                    columns[c * n + s] = value;
                }
            }
            values.extend(columns.chunks_exact_mut(n).take(width).map(|col| self.combine(col)));
        }
        LearnedState::new(first.kind, first.shape.clone(), values)
    }

    /// The per-coordinate gather [`aggregate_refs`](Self::aggregate_refs)
    /// replaced, kept as the reference the property test compares against.
    #[cfg(test)]
    fn aggregate_reference(&self, states: &[LearnedState]) -> Result<LearnedState, ExchangeError> {
        let first = states.first().ok_or(ExchangeError::EmptyAggregation)?;
        for state in &states[1..] {
            first.compatible_with(state)?;
        }
        let mut column = vec![0.0; states.len()];
        let values = (0..first.len())
            .map(|i| {
                for (slot, state) in column.iter_mut().zip(states) {
                    *slot = state.values[i];
                }
                self.combine(&mut column)
            })
            .collect();
        LearnedState::new(first.kind, first.shape.clone(), values)
    }
}

/// Coordinates [`AggregationRule::aggregate_refs`] gathers per pass: one
/// cache line of every state. Measured at 64, 256 and 2048 states of 64
/// values, eight is never slower than the per-coordinate gather; at sixteen
/// and up the column-major writes — a power-of-two stride apart at those
/// fleet sizes — evict each other and the mean takes two to three times
/// longer.
const GATHER_COORDS: usize = 8;

/// How much of the fleet aggregate a node adopts at a learning round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlendPolicy {
    /// Adopt the aggregate wholesale.
    Replace,
    /// Convex mix: `(1 - weight) * local + weight * aggregate`, with `weight`
    /// clamped to `[0, 1]` (the aggregate's share).
    Mix {
        /// Share of the aggregate in the mix.
        weight: f64,
    },
}

impl BlendPolicy {
    /// Blends the fleet `aggregate` into `local` according to the policy.
    /// The two states must agree on kind and shape.
    pub fn blend(
        &self,
        local: &LearnedState,
        aggregate: &LearnedState,
    ) -> Result<LearnedState, ExchangeError> {
        local.compatible_with(aggregate)?;
        match *self {
            BlendPolicy::Replace => Ok(aggregate.clone()),
            BlendPolicy::Mix { weight } => {
                let w = weight.clamp(0.0, 1.0);
                let values = local
                    .values
                    .iter()
                    .zip(&aggregate.values)
                    .map(|(l, a)| (1.0 - w) * l + w * a)
                    .collect();
                // A convex mix of finite values is finite, so this cannot fail.
                LearnedState::new(local.kind, local.shape.clone(), values)
            }
        }
    }
}

/// The export/import surface every exchangeable learner implements.
///
/// Implementations exchange *parameter values only*: importing a state must
/// not touch RNG streams, update counters, or configuration, so a node's
/// decision sequence stays deterministic modulo the imported values.
pub trait LearnedExchange {
    /// Snapshots the learner's parameters.
    fn export_learned(&self) -> LearnedState;

    /// Overwrites the learner's parameters from `state`, validating kind,
    /// shape, and value constraints first. On error the learner is unchanged.
    fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(values: Vec<f64>) -> LearnedState {
        let n = values.len();
        LearnedState::new(StateKind::QTable, vec![n], values).unwrap()
    }

    #[test]
    fn new_validates_shape_product() {
        let err = LearnedState::new(StateKind::QTable, vec![2, 3], vec![0.0; 5]).unwrap_err();
        assert!(matches!(err, ExchangeError::ShapeMismatch { .. }));
    }

    #[test]
    fn new_rejects_non_finite_values() {
        let err = LearnedState::new(StateKind::QTable, vec![3], vec![0.0, f64::INFINITY, 1.0])
            .unwrap_err();
        assert_eq!(err, ExchangeError::NonFinite { index: 1 });
    }

    #[test]
    fn mean_is_arithmetic_mean() {
        let agg = AggregationRule::Mean
            .aggregate(&[state(vec![1.0, 10.0]), state(vec![3.0, 20.0])])
            .unwrap();
        assert_eq!(agg.values(), &[2.0, 15.0]);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        let mut odd = [3.0, 1.0, 2.0];
        assert_eq!(AggregationRule::CoordinateWiseMedian.combine(&mut odd), 2.0);
        let mut even = [4.0, 1.0, 2.0, 3.0];
        assert_eq!(AggregationRule::CoordinateWiseMedian.combine(&mut even), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let mut col = [100.0, 1.0, 2.0, 3.0, -100.0];
        assert_eq!(AggregationRule::TrimmedMean { k: 1 }.combine(&mut col), 2.0);
    }

    #[test]
    fn trimmed_mean_clamps_k_to_leave_a_value() {
        // k = 10 over 3 values clamps to k = 1, keeping the middle one.
        let mut col = [5.0, 1.0, 9.0];
        assert_eq!(AggregationRule::TrimmedMean { k: 10 }.combine(&mut col), 5.0);
        let mut single = [7.0];
        assert_eq!(AggregationRule::TrimmedMean { k: 10 }.combine(&mut single), 7.0);
    }

    #[test]
    fn aggregate_rejects_empty_and_mismatched_inputs() {
        assert_eq!(
            AggregationRule::Mean.aggregate(&[]).unwrap_err(),
            ExchangeError::EmptyAggregation
        );
        let err = AggregationRule::Mean
            .aggregate(&[state(vec![1.0]), state(vec![1.0, 2.0])])
            .unwrap_err();
        assert!(matches!(err, ExchangeError::ShapeMismatch { .. }));
        let beta = LearnedState::new(StateKind::BetaPosteriors, vec![1], vec![1.0]).unwrap();
        let err = AggregationRule::Mean.aggregate(&[state(vec![1.0]), beta]).unwrap_err();
        assert!(matches!(err, ExchangeError::KindMismatch { .. }));
    }

    /// The gather must also hold when one pass takes a single coordinate.
    #[test]
    fn aggregate_refs_survives_one_coordinate_per_pass() {
        let states = [state(vec![1.0, 9.0, 5.0]), state(vec![3.0, 7.0, 5.0])];
        let refs: Vec<&LearnedState> = states.iter().collect();
        let tiny = AggregationRule::Mean.aggregate_gathered(&refs, 1).unwrap();
        assert_eq!(tiny.values(), &[2.0, 8.0, 5.0]);
        assert_eq!(tiny, AggregationRule::Mean.aggregate(&states).unwrap());
    }

    mod gather_equivalence {
        use proptest::prelude::*;

        use super::*;

        /// Values that tie, and zeros of both signs: `partial_cmp` calls
        /// `-0.0` and `0.0` equal, so which of them an unstable sort leaves
        /// on the median rank depends on the order the column was gathered
        /// in — exactly what must not change.
        fn value() -> impl Strategy<Value = f64> {
            prop_oneof![
                4 => -1e3f64..1e3,
                2 => (0u8..4).prop_map(|v| f64::from(v) - 1.5),
                1 => Just(0.0),
                1 => Just(-0.0),
            ]
        }

        const RULES: [AggregationRule; 4] = [
            AggregationRule::Mean,
            AggregationRule::CoordinateWiseMedian,
            AggregationRule::TrimmedMean { k: 1 },
            AggregationRule::TrimmedMean { k: 3 },
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The blocked column-major gather equals the per-coordinate
            /// gather it replaced, to the bit, for every rule — one state,
            /// empty states, and blocks that cut the coordinates into one
            /// pass, many ragged passes, or one coordinate per pass.
            #[test]
            fn gathered_aggregate_matches_reference(
                rule in 0usize..RULES.len(),
                n in 1usize..24,
                rows in 0usize..6,
                cols in 1usize..9,
                block in 1usize..50,
                pool in proptest::collection::vec(value(), 24 * 5 * 8..24 * 5 * 8 + 1),
            ) {
                let len = rows * cols;
                let states: Vec<LearnedState> = pool
                    .chunks(len.max(1))
                    .take(n)
                    .map(|values| {
                        LearnedState::new(StateKind::QTable, vec![rows, cols], values[..len].to_vec())
                            .unwrap()
                    })
                    .collect();
                let refs: Vec<&LearnedState> = states.iter().collect();
                let reference = RULES[rule].aggregate_reference(&states).unwrap();
                for gathered in [
                    RULES[rule].aggregate_gathered(&refs, block).unwrap(),
                    RULES[rule].aggregate(&states).unwrap(),
                ] {
                    prop_assert_eq!(gathered.kind(), reference.kind());
                    prop_assert_eq!(gathered.shape(), reference.shape());
                    let bits = |s: &LearnedState| -> Vec<u64> {
                        s.values().iter().map(|v| v.to_bits()).collect()
                    };
                    prop_assert_eq!(bits(&gathered), bits(&reference));
                }
            }
        }
    }

    #[test]
    fn blend_replace_adopts_the_aggregate() {
        let local = state(vec![1.0, 1.0]);
        let agg = state(vec![5.0, 9.0]);
        assert_eq!(BlendPolicy::Replace.blend(&local, &agg).unwrap(), agg);
    }

    #[test]
    fn blend_mix_is_convex_and_clamped() {
        let local = state(vec![0.0]);
        let agg = state(vec![10.0]);
        let mixed = BlendPolicy::Mix { weight: 0.25 }.blend(&local, &agg).unwrap();
        assert_eq!(mixed.values(), &[2.5]);
        let clamped = BlendPolicy::Mix { weight: 7.0 }.blend(&local, &agg).unwrap();
        assert_eq!(clamped.values(), &[10.0]);
    }

    #[test]
    fn blend_rejects_incompatible_states() {
        let local = state(vec![0.0]);
        let agg = state(vec![1.0, 2.0]);
        assert!(BlendPolicy::Replace.blend(&local, &agg).is_err());
    }

    #[test]
    fn byte_len_counts_f64_wire_size() {
        assert_eq!(state(vec![0.0; 7]).byte_len(), 56);
        assert!(state(vec![]).is_empty());
    }

    #[test]
    fn l2_distance_is_euclidean_and_shape_checked() {
        let origin = state(vec![0.0, 0.0, 0.0]);
        let point = state(vec![2.0, 3.0, 6.0]);
        assert_eq!(origin.l2_distance(&point).unwrap(), 7.0);
        assert_eq!(point.l2_distance(&origin).unwrap(), 7.0);
        assert_eq!(point.l2_distance(&point).unwrap(), 0.0);
        let short = state(vec![1.0]);
        assert!(matches!(
            point.l2_distance(&short).unwrap_err(),
            ExchangeError::ShapeMismatch { .. }
        ));
        let beta = LearnedState::new(StateKind::BetaPosteriors, vec![3], vec![1.0; 3]).unwrap();
        assert!(matches!(
            point.l2_distance(&beta).unwrap_err(),
            ExchangeError::KindMismatch { .. }
        ));
    }

    #[test]
    fn robust_z_scores_flag_outliers_not_the_cluster() {
        let z = robust_z_scores(&[1.0, 1.2, 0.8, 1.1, 0.9, 1000.0], 0.0);
        assert!(z[5] > 100.0, "outlier must score far out, got {}", z[5]);
        for &score in &z[..5] {
            assert!(score.abs() <= 2.0, "cluster must stay near zero, got {score}");
        }
        // Signed: values below the median score negative.
        assert!(z[2] < 0.0);
    }

    #[test]
    fn robust_z_scores_survive_a_corrupted_minority() {
        // Two of six values are absurd; a classical z-score's mean/stddev
        // would be dragged along, the median/MAD pair is not.
        let z = robust_z_scores(&[1.0, 1.1, 0.9, 1.0, 1e12, -1e12], 0.0);
        assert!(z[4] > 1e9 && z[5] < -1e9);
        assert!(z[0].abs() < 2.0 && z[1].abs() < 2.0);
    }

    #[test]
    fn robust_z_scores_handle_degenerate_samples() {
        assert!(robust_z_scores(&[], 0.0).is_empty());
        assert_eq!(robust_z_scores(&[5.0], 0.0), vec![0.0]);
        assert_eq!(robust_z_scores(&[3.0, 3.0, 3.0], 0.0), vec![0.0, 0.0, 0.0]);
        // Zero MAD with a dissenter: the dissent is maximal divergence.
        let z = robust_z_scores(&[2.0, 2.0, 2.0, 7.0], 0.0);
        assert_eq!(z[..3], [0.0, 0.0, 0.0]);
        assert_eq!(z[3], f64::INFINITY);
        // The same dissent with a floor scores finitely, in floor units.
        assert_eq!(robust_z_scores(&[2.0, 2.0, 2.0, 7.0], 0.5), vec![0.0, 0.0, 0.0, 10.0]);
        // A healthy spread ignores a smaller floor entirely.
        assert_eq!(robust_z_scores(&[1.0, 2.0, 3.0], 1e-6), robust_z_scores(&[1.0, 2.0, 3.0], 0.0));
    }

    #[test]
    fn errors_display_their_context() {
        let text = ExchangeError::KindMismatch {
            expected: StateKind::QTable,
            found: StateKind::BetaPosteriors,
        }
        .to_string();
        assert!(text.contains("q-table") && text.contains("beta-posteriors"));
        let text = ExchangeError::InvalidValue { index: 3, reason: "must be positive" }.to_string();
        assert!(text.contains('3') && text.contains("must be positive"));
    }
}
