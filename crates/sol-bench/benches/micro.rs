//! Criterion micro-benchmarks of the framework and ML kernels: the per-epoch
//! cost an agent adds to a node (paper §6.1 notes the runtime requires very
//! few resources), plus the event-queue hot path of the node runtime.

use std::collections::BinaryHeap;

use criterion::{criterion_group, criterion_main, Criterion};
use sol_core::error::DataError;
use sol_core::prelude::*;
use sol_core::runtime::wheel::TimeWheel;
use sol_ml::cost_sensitive::{CostSensitiveClassifier, CostSensitiveExample};
use sol_ml::features::DistributionalFeatures;
use sol_ml::qlearning::{QConfig, QLearner};
use sol_ml::thompson::ThompsonSampler;
use sol_node_sim::memory_node::{MemoryNode, MemoryWorkloadKind};
use sol_node_sim::shared::Shared;

fn ml_kernels(c: &mut Criterion) {
    c.bench_function("qlearning_choose_and_update", |b| {
        let mut q = QLearner::with_seed(QConfig::new(12, 3), 1);
        b.iter(|| {
            let a = q.choose_action(5).action;
            q.update(5, a, 1.0, 6);
        });
    });

    c.bench_function("cost_sensitive_update_and_predict", |b| {
        let mut clf = CostSensitiveClassifier::new(9, 9, 0.05);
        let example = CostSensitiveExample::from_ordinal_truth(vec![0.5; 9], 4, 9, 8.0, 1.0);
        b.iter(|| {
            clf.update(&example);
            clf.predict(&example.features)
        });
    });

    c.bench_function("thompson_select_and_record", |b| {
        let mut bandit = ThompsonSampler::with_seed(6, 1);
        b.iter(|| {
            let arm = bandit.select();
            bandit.record(arm, arm == 2);
        });
    });

    c.bench_function("distributional_features_25_samples", |b| {
        let samples: Vec<f64> = (0..25).map(|i| (i as f64 * 0.37).sin().abs() * 8.0).collect();
        b.iter(|| DistributionalFeatures::extract(&samples));
    });
}

/// A trivial model/actuator pair: the bench measures the runtime's event
/// dispatch, not agent work.
struct NoopModel;

impl Model for NoopModel {
    type Data = f64;
    type Pred = f64;
    fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
        Ok(1.0)
    }
    fn validate_data(&self, _d: &f64) -> bool {
        true
    }
    fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
    fn update_model(&mut self, _now: Timestamp) {}
    fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
        Some(Prediction::model(1.0, now, now + SimDuration::from_secs(1)))
    }
    fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
        Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
    }
    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        ModelAssessment::Healthy
    }
}

struct NoopActuator;

impl Actuator for NoopActuator {
    type Pred = f64;
    fn take_action(&mut self, _now: Timestamp, _pred: Option<&Prediction<f64>>) {}
    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        ActuatorAssessment::Acceptable
    }
    fn mitigate(&mut self, _now: Timestamp) {}
    fn clean_up(&mut self, _now: Timestamp) {}
}

fn bench_schedule() -> Schedule {
    Schedule::builder()
        .data_per_epoch(5)
        .data_collect_interval(SimDuration::from_millis(10))
        .max_epoch_time(SimDuration::from_secs(1))
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_millis(100))
        .assess_actuator_interval(SimDuration::from_millis(50))
        .build()
        .expect("static schedule is valid")
}

/// The event-queue hot path: one virtual minute of ticks (6 000 collects per
/// agent plus actuator deadlines and environment-step boundaries), with no
/// agent work to drown out the scheduler itself.
fn runtime_event_queue(c: &mut Criterion) {
    c.bench_function("node_runtime_1_agent_60s_virtual", |b| {
        b.iter(|| {
            let mut rt = NodeRuntime::new(NullEnvironment);
            rt.register_agent("solo", NoopModel, NoopActuator, bench_schedule());
            rt.run_for(SimDuration::from_secs(60)).expect("non-empty horizon")
        });
    });

    c.bench_function("node_runtime_8_agents_60s_virtual", |b| {
        b.iter(|| {
            let mut rt = NodeRuntime::new(NullEnvironment);
            for i in 0..8 {
                rt.register_agent(format!("agent-{i}"), NoopModel, NoopActuator, bench_schedule());
            }
            rt.run_for(SimDuration::from_secs(60)).expect("non-empty horizon")
        });
    });

    c.bench_function("node_runtime_delay_interventions_60s_virtual", |b| {
        b.iter(|| {
            let mut rt = NodeRuntime::new(NullEnvironment);
            let id = rt.register_agent("solo", NoopModel, NoopActuator, bench_schedule());
            for s in 0..30 {
                rt.delay_model_at(id, Timestamp::from_secs(2 * s), SimDuration::from_millis(500));
            }
            rt.run_for(SimDuration::from_secs(60)).expect("non-empty horizon")
        });
    });
}

/// The binary-heap scheduling discipline the node runtime used before the
/// time wheel: one globally sequenced entry per event, one `O(log n)`
/// rebalance per push and per pop. Kept here (the runtime no longer has it)
/// so the wheel's win stays measurable instead of anecdotal.
struct OldHeap {
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
}

struct HeapEntry {
    at: u64,
    seq: u64,
    kind: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, the scheduler pops earliest.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl OldHeap {
    fn new() -> Self {
        OldHeap { heap: BinaryHeap::new(), seq: 0 }
    }

    fn schedule(&mut self, at: Timestamp, kind: u32) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { at: at.as_nanos(), seq, kind });
    }

    fn pop_due(&mut self, out: &mut Vec<u32>) -> Option<Timestamp> {
        let next = Timestamp::from_nanos(self.heap.peek()?.at);
        while self.heap.peek().is_some_and(|e| e.at <= next.as_nanos()) {
            out.push(self.heap.pop().expect("peeked").kind);
        }
        Some(next)
    }
}

/// The scheduler traffic both queue benches replay: `streams`
/// self-rescheduling wakes on a 10 ms cadence (the shape of agent collect
/// loops — almost every event fires within one wheel granule of now), until
/// `events` pops have been served.
const QUEUE_STREAMS: u64 = 8;
const QUEUE_EVENTS: usize = 48_000; // 8 streams × 6 000 wakes = 60 virtual s.

/// Raw event-queue cost, old discipline vs new: the same 48 000-event
/// cadence workload through the pre-refactor global-sequence binary heap and
/// through the two-level time wheel that replaced it. Divide by 48 000 for
/// ns/event.
fn scheduler_queue(c: &mut Criterion) {
    let cadence = SimDuration::from_millis(10);

    c.bench_function("event_queue_heap_48k_events", |b| {
        b.iter(|| {
            let mut q = OldHeap::new();
            for s in 0..QUEUE_STREAMS {
                q.schedule(Timestamp::from_micros(s), s as u32);
            }
            let mut popped = 0usize;
            let mut due = Vec::new();
            while popped < QUEUE_EVENTS {
                let next = q.pop_due(&mut due).expect("streams self-reschedule");
                popped += due.len();
                for &k in &due {
                    q.schedule(next + cadence, k);
                }
                due.clear();
            }
            std::hint::black_box(popped)
        });
    });

    c.bench_function("event_queue_wheel_48k_events", |b| {
        b.iter(|| {
            let mut q: TimeWheel<u32> = TimeWheel::new();
            for s in 0..QUEUE_STREAMS {
                q.schedule(Timestamp::from_micros(s), s as u32);
            }
            let mut popped = 0usize;
            let mut due = Vec::new();
            while popped < QUEUE_EVENTS {
                let next = q.peek(|_| true).expect("streams self-reschedule");
                q.drain_due(next, &mut due);
                popped += due.len();
                for &k in &due {
                    q.schedule(next + cadence, k);
                }
                due.clear();
            }
            std::hint::black_box(popped)
        });
    });
}

/// Lock traffic on a shared node, per-call vs scoped: 1 000 accesses each
/// paying a full acquire/release round-trip, against the same 1 000 under
/// one open `Shared::scope` guard (the owner fast path the runtime takes
/// for a whole event batch). Divide by 1 000 for ns/access.
fn shared_lock_traffic(c: &mut Criterion) {
    c.bench_function("shared_lock_per_call_1k_accesses", |b| {
        let shared = Shared::new(0u64);
        b.iter(|| {
            let mut last = 0;
            for _ in 0..1_000 {
                last = shared.with(|v| {
                    *v += 1;
                    *v
                });
            }
            std::hint::black_box(last)
        });
    });

    c.bench_function("shared_guard_scope_1k_accesses", |b| {
        let shared = Shared::new(0u64);
        b.iter(|| {
            let scope = shared.scope();
            let mut last = 0;
            for _ in 0..1_000 {
                last = shared.with(|v| {
                    *v += 1;
                    *v
                });
            }
            drop(scope);
            std::hint::black_box(last)
        });
    });
}

/// The three-agent node's memory substrate (`ThreeAgentConfig::default()`:
/// 128 batches, 40k accesses/s) at the fleet's 1 ms tick, with its 30 s recent
/// window already full: one `advance_to` per tick, and the O(1) read three
/// callers make of the window (actuator safeguard, barrier telemetry, the
/// per-tick memory-pressure coupling).
fn memory_substrate(c: &mut Criterion) {
    let tick = SimDuration::from_millis(1);
    let config = sol_agents::colocation::ThreeAgentConfig::default().memory_node;
    let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, config);
    // Tick by tick: one `advance_to` over the whole span would take the
    // config's 100 ms steps and leave the window 100x shorter.
    let mut now = Timestamp::ZERO;
    while now < Timestamp::from_secs(31) {
        now += tick;
        node.advance_to(now);
    }

    c.bench_function("memory_node_advance_1ms_128_batches", |b| {
        b.iter(|| {
            now += tick;
            node.advance_to(now);
        });
    });

    c.bench_function("memory_node_recent_remote_fraction_30s_window", |b| {
        b.iter(|| std::hint::black_box(&node).recent_remote_fraction());
    });
}

/// A minimal hosting environment: a bin of placeable cores and nothing else,
/// so the packer-churn bench measures barrier machinery rather than
/// substrate simulation.
struct BinEnvironment {
    capacity: f64,
    resident: Vec<WorkloadUnit>,
}

impl Environment for BinEnvironment {
    fn advance_to(&mut self, _now: Timestamp) {}

    fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        let used: f64 = self.resident.iter().map(|u| u.cores).sum();
        if used + unit.cores > self.capacity {
            return Err(PlacementError::CapacityExceeded {
                requested: unit.cores,
                free: self.capacity - used,
            });
        }
        if self.resident.iter().any(|u| u.id == unit.id) {
            return Err(PlacementError::DuplicateWorkload(unit.id));
        }
        self.resident.push(unit);
        Ok(())
    }

    fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        match self.resident.iter().position(|u| u.id == id) {
            Some(pos) => Ok(self.resident.remove(pos)),
            None => Err(PlacementError::UnknownWorkload(id)),
        }
    }

    fn placement(&self) -> NodePlacement {
        NodePlacement { capacity: self.capacity, resident: self.resident.clone() }
    }
}

/// One synthetic `NodeView` with a realistic width: three agents and four
/// telemetry readings.
fn synthetic_view(node: usize) -> NodeView {
    NodeView {
        node,
        agents: (0..3)
            .map(|role| AgentTelemetry {
                name: format!("agent-{role}"),
                stats: AgentStats::default(),
            })
            .collect(),
        telemetry: (0..4).map(|slot| (format!("reading-{slot}"), slot as f64)).collect(),
        placement: NodePlacement::none(),
        state: NodeState::Active,
    }
}

/// The per-barrier view cost, old way vs new way: cloning a full 64-node
/// snapshot vector (what every epoch boundary used to pay) against
/// diff-and-patch of a single changed node (what a barrier pays now when one
/// node's counters moved and 63 stayed quiet).
fn view_construction(c: &mut Criterion) {
    let base: Vec<NodeView> = (0..64).map(synthetic_view).collect();

    c.bench_function("view_construction_full_clone_64_nodes", |b| {
        b.iter(|| std::hint::black_box(base.clone()));
    });

    c.bench_function("view_construction_delta_patch_64_nodes", |b| {
        let mut next = base[17].clone();
        next.agents[1].stats.model.samples_committed += 1;
        next.telemetry[2].1 += 0.5;
        let mut mirror = base.clone();
        b.iter(|| {
            let delta = NodeDelta::diff(&base[17], &next);
            delta.apply(&mut mirror[17]);
            std::hint::black_box(&mirror);
        });
    });
}

/// The recipe behind the barrier-overhead benches: eight no-op agents per
/// node on a plain core bin, so virtually all wall time is epoch-barrier
/// machinery (task fan-out, delta collection, controller invocation).
fn barrier_recipe() -> ScenarioRecipe<BinEnvironment> {
    ScenarioRecipe::new(|_seed: &NodeSeed| {
        let mut builder =
            NodeRuntime::builder(BinEnvironment { capacity: 8.0, resident: Vec::new() });
        for i in 0..8 {
            builder.agent(format!("agent-{i}"), NoopModel, NoopActuator, bench_schedule());
        }
        builder.build()
    })
}

/// Barrier overhead with 0 commands vs under packer churn: the
/// `NullController` row is the floor every `run()` pays per epoch (its
/// declined view makes delta extraction skippable), the `GreedyPacker` row
/// adds view collection plus admit/depart command traffic at every boundary.
fn barrier_overhead(c: &mut Criterion) {
    let horizon = SimDuration::from_secs(10);
    let config = || FleetConfig {
        nodes: 8,
        threads: 2,
        epoch: SimDuration::from_millis(500),
        seed: 7,
        ..FleetConfig::default()
    };

    c.bench_function("barrier_overhead_null_controller_8_nodes_20_epochs", |b| {
        b.iter(|| {
            let fleet = FleetRuntime::new(barrier_recipe(), config()).unwrap();
            fleet.run(horizon).unwrap()
        });
    });

    c.bench_function("barrier_overhead_packer_churn_8_nodes_20_epochs", |b| {
        b.iter(|| {
            let fleet = FleetRuntime::new(barrier_recipe(), config()).unwrap();
            let trace = ArrivalTrace::generate(
                11,
                &ArrivalTraceConfig {
                    workloads: 24,
                    span: horizon,
                    min_cores: 0.5,
                    max_cores: 2.0,
                    min_lifetime: SimDuration::from_secs(2),
                    max_lifetime: SimDuration::from_secs(6),
                },
            );
            let mut packer = GreedyPacker::new(trace);
            fleet.run_with(&mut packer, horizon).unwrap()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = ml_kernels, runtime_event_queue, scheduler_queue, shared_lock_traffic,
        memory_substrate, view_construction, barrier_overhead
}
criterion_main!(benches);
