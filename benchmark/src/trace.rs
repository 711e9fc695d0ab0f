//! Spans recorded from outside the product.
//!
//! Every layer is reached through a public trait, so a transparent wrapper
//! over that trait is a span at the layer boundary with no probe inside the
//! product: [`TracedEnv`] over `Environment`, [`Traced`] over `Model` and
//! `Actuator`, [`TracedController`] over `FleetController`. Each forwards
//! every method, defaulted ones included, so a traced run simulates exactly
//! what an untraced one does (`trace.mirror_match` checks it).
//!
//! Two kinds of record, because a tick is ~140 ns and an `Instant` pair
//! costs ~70 ns:
//!
//! * **Coarse spans** (repetition → epoch → `plan`) are recorded one by one
//!   with name, start, end and parent, kept in memory, and written out when
//!   the benchmark ends.
//! * **Spans inside a tick** are accumulated per (sampled node, agent, span
//!   name) as count + total nanoseconds, on a few sampled nodes only; every
//!   other node carries the wrapper with no probe and never reads the clock.
//!   What an empty span records and costs is tared on no-op nodes
//!   ([`Calibration`], `tare.rs`) and subtracted per recorded call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sol_core::error::DataError;
use sol_core::prelude::*;
use sol_ml::exchange::{ExchangeError, LearnedState};

use crate::json::Json;

/// The span names accumulated inside a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Environment::begin_batch` → `end_batch`: one `run_until` segment, the
    /// sampled node's own wall time, against which tick shares are taken.
    Batch,
    /// `Environment::advance_to` (called exactly once per tick).
    EnvAdvance,
    /// `Model::collect_data`.
    ModelCollect,
    /// `Model::update_model`.
    ModelUpdate,
    /// `Model::predict`.
    ModelPredict,
    /// Every other `Model` method the loop calls inside a tick.
    ModelOther,
    /// Every `Actuator` method.
    Actuator,
}

impl Kind {
    const ALL: [Kind; 7] = [
        Kind::Batch,
        Kind::EnvAdvance,
        Kind::ModelCollect,
        Kind::ModelUpdate,
        Kind::ModelPredict,
        Kind::ModelOther,
        Kind::Actuator,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Batch => "batch",
            Kind::EnvAdvance => "env_advance",
            Kind::ModelCollect => "model_collect",
            Kind::ModelUpdate => "model_update",
            Kind::ModelPredict => "model_predict",
            Kind::ModelOther => "model_other",
            Kind::Actuator => "actuator",
        }
    }
}

/// Count and total recorded nanoseconds of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their recorded durations.
    pub ns: u64,
}

/// The `agent` key of an environment probe's accumulators.
const ENVIRONMENT: usize = usize::MAX;

/// One coarse span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct SinkState {
    next_id: u64,
    spans: Vec<Span>,
    ticks: BTreeMap<(usize, usize, Kind), Acc>,
}

/// Where every wrapper of one traced workload records: held in memory,
/// written out at exit.
pub struct TraceSink {
    origin: Instant,
    sampled: Vec<usize>,
    state: Mutex<SinkState>,
}

impl TraceSink {
    /// A sink whose in-tick probes attach to the `sampled` node indices only.
    pub fn new(sampled: Vec<usize>) -> Arc<TraceSink> {
        Arc::new(TraceSink { origin: Instant::now(), sampled, state: Mutex::default() })
    }

    /// The node indices carrying in-tick probes.
    pub fn sampled(&self) -> &[usize] {
        &self.sampled
    }

    fn state(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().expect("a wrapper panicked while recording")
    }

    /// The in-tick probe for `(node, agent)`: `None` off the sampled nodes.
    fn probe(self: &Arc<Self>, node: usize, agent: usize) -> Option<Box<Probe>> {
        self.sampled.contains(&node).then(|| {
            Box::new(Probe {
                sink: Arc::clone(self),
                node,
                agent,
                acc: Default::default(),
                batch_start: Cell::new(None),
            })
        })
    }

    fn next_id(&self) -> u64 {
        let mut state = self.state();
        state.next_id += 1;
        state.next_id
    }

    fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span { id, parent, name, start_ns: ns(start), end_ns: ns(end) };
        self.state().spans.push(span);
    }

    /// Durations, in milliseconds, of every coarse span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.state()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The in-tick accumulators so far, summed over the sampled nodes.
    pub fn tick_totals(&self) -> TickTotals {
        let mut totals = TickTotals::new();
        for (&(_, agent, kind), acc) in &self.state().ticks {
            let total = totals.entry(((agent != ENVIRONMENT).then_some(agent), kind)).or_default();
            total.count += acc.count;
            total.ns += acc.ns;
        }
        totals
    }

    /// The span file: coarse spans one by one, in-tick accumulators per
    /// sampled node, and the calibration needed to read the latter.
    pub fn to_json(&self, workload: &str, calibration: Calibration) -> Json {
        let state = self.state();
        let spans = state
            .spans
            .iter()
            .map(|s| {
                Json::object([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let ticks = state
            .ticks
            .iter()
            .map(|(&(node, agent, kind), acc)| {
                Json::object([
                    ("node", Json::Num(node as f64)),
                    (
                        "agent",
                        if agent == ENVIRONMENT { Json::Null } else { Json::Num(agent as f64) },
                    ),
                    ("span", Json::Str(kind.name().to_string())),
                    ("count", Json::Num(acc.count as f64)),
                    ("total_ns", Json::Num(acc.ns as f64)),
                ])
            })
            .collect();
        Json::object([
            ("workload", Json::Str(workload.to_string())),
            (
                "span_recorded_ns",
                Json::object(calibration.recorded().map(|(name, ns)| (name, Json::Num(ns)))),
            ),
            ("span_cost_ns", Json::Num(calibration.cost_ns)),
            ("spans", Json::Arr(spans)),
            ("ticks", Json::Arr(ticks)),
        ])
    }
}

/// In-tick accumulators summed over the sampled nodes, per agent (`None` for
/// the environment's own spans) and span name.
pub type TickTotals = BTreeMap<(Option<usize>, Kind), Acc>;

/// The accumulators of one wrapper on a sampled node. Plain cells, not
/// atomics: a node is driven by one thread at a time (the arena's slot mutex
/// orders the hand-off), and the totals reach the shared sink once, on drop.
struct Probe {
    sink: Arc<TraceSink>,
    node: usize,
    agent: usize,
    acc: [Cell<Acc>; Kind::ALL.len()],
    batch_start: Cell<Option<Instant>>,
}

impl Probe {
    fn add(&self, kind: Kind, ns: u64) {
        let cell = &self.acc[kind as usize];
        let acc = cell.get();
        cell.set(Acc { count: acc.count + 1, ns: acc.ns + ns });
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // `Drop` must not panic: a poisoned sink just loses this probe.
        let Ok(mut state) = self.sink.state.lock() else { return };
        for kind in Kind::ALL {
            let acc = self.acc[kind as usize].get();
            if acc.count > 0 {
                let total = state.ticks.entry((self.node, self.agent, kind)).or_default();
                total.count += acc.count;
                total.ns += acc.ns;
            }
        }
    }
}

/// Runs `f`, as one span of `kind` when a probe is attached.
#[inline(always)]
fn span<R>(probe: &Option<Box<Probe>>, kind: Kind, f: impl FnOnce() -> R) -> R {
    match probe {
        None => f(),
        Some(probe) => {
            let start = Instant::now();
            let result = f();
            probe.add(kind, start.elapsed().as_nanos() as u64);
            result
        }
    }
}

/// What a span costs when there is nothing inside it — the instrument's
/// tare, taken where every wrapped call is a no-op, through the real call
/// path (`tare::tare`). Per span name, because the loops call the wrapped
/// methods in a fixed pattern and a span's reading depends a few nanoseconds
/// on what ran just before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Nanoseconds an empty span of each name *records* (the part of its
    /// cost that lands between its two clock reads), indexed by `Kind`:
    /// subtracted from that name's own total.
    pub recorded_ns: [f64; Kind::ALL.len()],
    /// Nanoseconds an empty span *costs* its enclosing batch, clock reads
    /// and bookkeeping included: subtracted from the batch.
    pub cost_ns: f64,
}

impl Calibration {
    /// What the spans of a traced run recorded, per span name and call. On
    /// a run whose wrapped calls are all no-ops, every nanosecond of it is
    /// the spans' own.
    pub fn recorded_per_call(traced: &TickTotals) -> [f64; Kind::ALL.len()] {
        let mut sums = [Acc::default(); Kind::ALL.len()];
        for (&(_, kind), acc) in traced.iter().filter(|((_, kind), _)| *kind != Kind::Batch) {
            sums[kind as usize].count += acc.count;
            sums[kind as usize].ns += acc.ns;
        }
        sums.map(|acc| acc.ns as f64 / acc.count.max(1) as f64)
    }

    /// What a span cost its batch: what the traced batches of a run took
    /// beyond the same batches run without probes, per span inside them.
    pub fn cost_per_span(traced: &TickTotals, untraced_batch_ns: f64) -> f64 {
        let (mut batch_ns, mut inner_spans) = (0, 0);
        for (&(_, kind), acc) in traced {
            if kind == Kind::Batch {
                batch_ns += acc.ns;
            } else {
                inner_spans += acc.count;
            }
        }
        (batch_ns as f64 - untraced_batch_ns) / inner_spans.max(1) as f64
    }

    /// The span names with what an empty span of each records.
    pub fn recorded(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        Kind::ALL.into_iter().skip(1).map(|kind| (kind.name(), self.recorded_ns[kind as usize]))
    }
}

/// Where a sampled node's tick wall time went, with the spans' own cost
/// taken out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickBreakdown {
    /// Calibrated wall nanoseconds inside `run_until` on the sampled nodes.
    pub batch_ns: f64,
    /// Calibrated nanoseconds and call count per span name (no `Batch`).
    pub kinds: BTreeMap<Kind, (f64, u64)>,
    /// Calibrated nanoseconds inside each agent's Model and Actuator calls,
    /// by registration index.
    pub agents: BTreeMap<usize, f64>,
}

impl TickBreakdown {
    /// What the sink accumulated between two readings of its totals, read
    /// with the tare taken alongside: a clock read costs 60 ns in one stretch
    /// of the box's weather and 80 ns in another, so a repetition's spans
    /// are corrected with the tare taken right ahead of it.
    ///
    /// Sums stay signed here — a no-op's remainder is noise around zero and
    /// must be free to cancel across agents; shares are floored at zero only
    /// when they are read.
    pub fn between(before: &TickTotals, after: &TickTotals, tare: Calibration) -> TickBreakdown {
        let mut breakdown = TickBreakdown::default();
        let mut inner_spans = 0u64;
        for (&(agent, kind), acc) in after {
            let earlier = before.get(&(agent, kind)).copied().unwrap_or_default();
            let (count, ns) = (acc.count - earlier.count, acc.ns - earlier.ns);
            let own = ns as f64 - count as f64 * tare.recorded_ns[kind as usize];
            if kind == Kind::Batch {
                breakdown.batch_ns += own;
                continue;
            }
            inner_spans += count;
            let entry = breakdown.kinds.entry(kind).or_default();
            entry.0 += own;
            entry.1 += count;
            if let Some(agent) = agent {
                *breakdown.agents.entry(agent).or_default() += own;
            }
        }
        // Every inner span ran inside a batch and cost it a full span.
        breakdown.batch_ns -= inner_spans as f64 * tare.cost_ns;
        breakdown
    }

    /// Calibrated nanoseconds of one span name, floored at zero: below it
    /// is tare noise around a no-op.
    pub fn ns(&self, kind: Kind) -> f64 {
        self.kinds.get(&kind).map_or(0.0, |&(ns, _)| ns.max(0.0))
    }

    /// Calls recorded under one span name.
    pub fn count(&self, kind: Kind) -> u64 {
        self.kinds.get(&kind).map_or(0, |&(_, count)| count)
    }

    /// One span name's share of the sampled nodes' tick wall time.
    pub fn frac(&self, kind: Kind) -> f64 {
        self.share(self.ns(kind))
    }

    /// Tick wall time in no wrapped call: the wheel, event dispatch and the
    /// loops' own bookkeeping.
    pub fn runtime_self_frac(&self) -> f64 {
        let wrapped: f64 = self.kinds.keys().map(|&kind| self.ns(kind)).sum();
        self.share((self.batch_ns - wrapped).max(0.0))
    }

    /// The share of tick wall time inside agent `index`'s Model and Actuator.
    pub fn agent_frac(&self, index: usize) -> f64 {
        self.share(self.agents.get(&index).copied().unwrap_or(0.0).max(0.0))
    }

    fn share(&self, ns: f64) -> f64 {
        if self.batch_ns > 0.0 {
            ns / self.batch_ns
        } else {
            0.0
        }
    }
}

/// A `Model` or `Actuator` with a span around every call the loops make.
pub struct Traced<T> {
    inner: T,
    probe: Option<Box<Probe>>,
}

impl<T> Traced<T> {
    /// Wraps `inner` as agent `agent` of node `node`. With no sink, or off
    /// the sampled nodes, the wrapper only forwards.
    pub fn new(inner: T, sink: Option<&Arc<TraceSink>>, node: usize, agent: usize) -> Self {
        Traced { inner, probe: sink.and_then(|sink| sink.probe(node, agent)) }
    }
}

impl<M: Model> Model for Traced<M> {
    type Data = M::Data;
    type Pred = M::Pred;

    fn collect_data(&mut self, now: Timestamp) -> Result<Self::Data, DataError> {
        span(&self.probe, Kind::ModelCollect, || self.inner.collect_data(now))
    }

    fn validate_data(&self, data: &Self::Data) -> bool {
        span(&self.probe, Kind::ModelOther, || self.inner.validate_data(data))
    }

    fn commit_data(&mut self, now: Timestamp, data: Self::Data) {
        span(&self.probe, Kind::ModelOther, || self.inner.commit_data(now, data))
    }

    fn update_model(&mut self, now: Timestamp) {
        span(&self.probe, Kind::ModelUpdate, || self.inner.update_model(now))
    }

    fn predict(&mut self, now: Timestamp) -> Option<Prediction<Self::Pred>> {
        span(&self.probe, Kind::ModelPredict, || self.inner.predict(now))
    }

    fn default_predict(&self, now: Timestamp) -> Prediction<Self::Pred> {
        span(&self.probe, Kind::ModelOther, || self.inner.default_predict(now))
    }

    fn assess_model(&mut self, now: Timestamp) -> ModelAssessment {
        span(&self.probe, Kind::ModelOther, || self.inner.assess_model(now))
    }

    fn request_default(&self) -> bool {
        span(&self.probe, Kind::ModelOther, || self.inner.request_default())
    }

    // The learning plane calls these at the barrier, outside any tick.
    fn export_learned(&self) -> Option<LearnedState> {
        self.inner.export_learned()
    }

    fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError> {
        self.inner.import_learned(state)
    }
}

impl<A: Actuator> Actuator for Traced<A> {
    type Pred = A::Pred;

    fn take_action(&mut self, now: Timestamp, pred: Option<&Prediction<Self::Pred>>) {
        span(&self.probe, Kind::Actuator, || self.inner.take_action(now, pred))
    }

    fn assess_performance(&mut self, now: Timestamp) -> ActuatorAssessment {
        span(&self.probe, Kind::Actuator, || self.inner.assess_performance(now))
    }

    fn mitigate(&mut self, now: Timestamp) {
        span(&self.probe, Kind::Actuator, || self.inner.mitigate(now))
    }

    fn clean_up(&mut self, now: Timestamp) {
        span(&self.probe, Kind::Actuator, || self.inner.clean_up(now))
    }
}

/// An `Environment` with a span around `advance_to` and one bracketing each
/// `run_until` segment.
pub struct TracedEnv<E> {
    inner: E,
    probe: Option<Box<Probe>>,
}

impl<E> TracedEnv<E> {
    /// Wraps node `node`'s environment (see [`Traced::new`]).
    pub fn new(inner: E, sink: Option<&Arc<TraceSink>>, node: usize) -> Self {
        TracedEnv { inner, probe: sink.and_then(|sink| sink.probe(node, ENVIRONMENT)) }
    }

    /// The wrapped environment, for recipe telemetry and metric extractors.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Environment> Environment for TracedEnv<E> {
    fn advance_to(&mut self, now: Timestamp) {
        span(&self.probe, Kind::EnvAdvance, || self.inner.advance_to(now))
    }

    fn begin_batch(&mut self) {
        self.inner.begin_batch();
        if let Some(probe) = &self.probe {
            // Idempotent like the hook itself: a second call keeps the
            // first start.
            if probe.batch_start.get().is_none() {
                probe.batch_start.set(Some(Instant::now()));
            }
        }
    }

    fn end_batch(&mut self) {
        if let Some(probe) = &self.probe {
            if let Some(start) = probe.batch_start.take() {
                probe.add(Kind::Batch, start.elapsed().as_nanos() as u64);
            }
        }
        self.inner.end_batch();
    }

    fn mem_bytes(&self) -> usize {
        self.inner.mem_bytes()
    }

    fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        self.inner.attach_workload(unit)
    }

    fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        self.inner.detach_workload(id)
    }

    fn placement(&self) -> NodePlacement {
        self.inner.placement()
    }
}

/// A `FleetController` that records one repetition's coarse spans: the
/// repetition, one `epoch` per gap between consecutive `plan` entries (the
/// barrier's own work after `plan` returns belongs to the next gap), the
/// `plan` calls inside them, and a closing `finish` for the final fold.
pub struct TracedController<'c> {
    inner: &'c mut dyn FleetController,
    sink: Arc<TraceSink>,
    repetition: u64,
    started: Instant,
    interval: u64,
    interval_started: Instant,
}

impl<'c> TracedController<'c> {
    /// Opens the repetition span; call right before `run*`.
    pub fn begin(inner: &'c mut dyn FleetController, sink: &Arc<TraceSink>) -> Self {
        let now = Instant::now();
        TracedController {
            inner,
            sink: Arc::clone(sink),
            repetition: sink.next_id(),
            started: now,
            interval: sink.next_id(),
            interval_started: now,
        }
    }

    /// Closes the repetition span; call right after `run*` returns.
    pub fn finish(self) {
        let now = Instant::now();
        self.sink.record(
            self.interval,
            Some(self.repetition),
            "finish",
            self.interval_started,
            now,
        );
        self.sink.record(self.repetition, None, "repetition", self.started, now);
    }
}

impl FleetController for TracedController<'_> {
    fn plan(&mut self, view: &FleetView) -> PlacementPlan {
        let entry = Instant::now();
        self.sink.record(
            self.interval,
            Some(self.repetition),
            "epoch",
            self.interval_started,
            entry,
        );
        self.interval = self.sink.next_id();
        self.interval_started = entry;
        let plan = self.inner.plan(view);
        self.sink.record(self.sink.next_id(), Some(self.interval), "plan", entry, Instant::now());
        plan
    }

    fn wants_view(&self) -> bool {
        self.inner.wants_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tare_is_what_empty_spans_recorded_and_cost() {
        let mut traced = TickTotals::new();
        traced.insert((None, Kind::Batch), Acc { count: 1, ns: 10_000 });
        traced.insert((None, Kind::EnvAdvance), Acc { count: 10, ns: 300 });
        traced.insert((Some(0), Kind::ModelOther), Acc { count: 20, ns: 640 });
        traced.insert((Some(1), Kind::ModelOther), Acc { count: 20, ns: 560 });
        let recorded_ns = Calibration::recorded_per_call(&traced);
        assert_eq!(recorded_ns[Kind::EnvAdvance as usize], 30.0);
        assert_eq!(recorded_ns[Kind::ModelOther as usize], 30.0);
        assert_eq!(recorded_ns[Kind::Batch as usize], 0.0);
        assert_eq!(recorded_ns[Kind::Actuator as usize], 0.0, "absent from the tare");
        let cost_ns = Calibration::cost_per_span(&traced, 7_000.0);
        assert_eq!(cost_ns, 60.0, "(10_000 - 7_000) / 50 spans");
    }

    #[test]
    fn probes_attach_to_sampled_nodes_only_and_flush_on_drop() {
        let sink = TraceSink::new(vec![3]);
        assert!(sink.probe(2, 0).is_none());
        let probe = sink.probe(3, 1);
        span(&probe, Kind::ModelCollect, || ());
        span(&probe, Kind::ModelCollect, || ());
        assert!(sink.tick_totals().is_empty(), "accumulators reach the sink on drop");
        drop(probe);
        assert_eq!(sink.tick_totals()[&(Some(1), Kind::ModelCollect)].count, 2);
    }

    #[test]
    fn breakdown_takes_span_costs_out_of_the_batch() {
        let sink = TraceSink::new(vec![0]);
        {
            let mut state = sink.state();
            state.ticks.insert((0, ENVIRONMENT, Kind::Batch), Acc { count: 1, ns: 10_000 });
            state.ticks.insert((0, ENVIRONMENT, Kind::EnvAdvance), Acc { count: 10, ns: 4_300 });
            state.ticks.insert((0, 0, Kind::ModelCollect), Acc { count: 10, ns: 1_300 });
            state.ticks.insert((0, 1, Kind::Actuator), Acc { count: 10, ns: 200 });
        }
        let calibration = Calibration { recorded_ns: [30.0; Kind::ALL.len()], cost_ns: 60.0 };
        let breakdown =
            TickBreakdown::between(&TickTotals::new(), &sink.tick_totals(), calibration);
        // batch: 10_000 - 30 (own) - 30 spans * 60 = 8_170.
        assert_eq!(breakdown.batch_ns, 8_170.0);
        assert_eq!(breakdown.ns(Kind::EnvAdvance), 4_000.0);
        assert_eq!(breakdown.ns(Kind::ModelCollect), 1_000.0);
        assert_eq!(breakdown.kinds[&Kind::Actuator].0, -100.0, "sums stay signed");
        assert_eq!(breakdown.ns(Kind::Actuator), 0.0, "and read as zero");
        assert_eq!(breakdown.count(Kind::Actuator), 10);
        assert_eq!(breakdown.agent_frac(0), 1_000.0 / 8_170.0);
        assert_eq!(breakdown.runtime_self_frac(), 3_170.0 / 8_170.0);

        // A second reading sees only what was added since the first.
        let first = sink.tick_totals();
        sink.state().ticks.insert((0, 0, Kind::ModelCollect), Acc { count: 20, ns: 2_600 });
        sink.state().ticks.insert((0, ENVIRONMENT, Kind::Batch), Acc { count: 2, ns: 12_000 });
        let second = TickBreakdown::between(&first, &sink.tick_totals(), calibration);
        assert_eq!(second.ns(Kind::ModelCollect), 1_000.0);
        assert_eq!(second.count(Kind::ModelCollect), 10);
        assert_eq!(second.ns(Kind::EnvAdvance), 0.0);
        assert_eq!(second.batch_ns, 2_000.0 - 30.0 - 10.0 * 60.0);
    }
}
