//! Determinism regression tests: the discrete-event runtimes must be exactly
//! reproducible. Two runs with identical config and seed have to produce
//! byte-identical stats (compared via their full `Debug` rendering, so any
//! new non-deterministic field shows up as a diff) and identical environment
//! metrics. A second suite asserts that multi-agent co-located runs are
//! deterministic too.

use sol_agents::prelude::*;
use sol_core::prelude::*;
use sol_node_sim::prelude::*;
use sol_tests::debug_bytes;

#[test]
fn smart_overclock_runs_are_byte_identical() {
    let run = || {
        let node = Shared::new(CpuNode::new(
            OverclockWorkloadKind::Synthetic.build(8),
            CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
        ));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(overclock_blueprint(&node, OverclockConfig::default()));
        let report = builder.build().run_for(SimDuration::from_secs(120)).unwrap();
        let stats = debug_bytes(report.agent(agent).stats());
        let metrics =
            node.with(|n| (debug_bytes(&n.energy_joules()), debug_bytes(&n.performance().score)));
        (stats, metrics, report.ended_at)
    };
    assert_eq!(run(), run());
}

#[test]
fn smart_harvest_runs_are_byte_identical() {
    let run = || {
        let node =
            Shared::new(HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default()));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(harvest_blueprint(&node, HarvestConfig::default()));
        let report = builder.build().run_for(SimDuration::from_secs(60)).unwrap();
        let stats = debug_bytes(report.agent(agent).stats());
        let metrics = node.with(|n| {
            (debug_bytes(&n.harvested_core_seconds()), debug_bytes(&n.mean_latency_ms()))
        });
        (stats, metrics, report.ended_at)
    };
    assert_eq!(run(), run());
}

#[test]
fn smart_memory_runs_are_byte_identical() {
    let run = || {
        let node = Shared::new(MemoryNode::new(
            MemoryWorkloadKind::Sql,
            MemoryNodeConfig { batches: 64, accesses_per_sec: 10_000.0, ..Default::default() },
        ));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(memory_blueprint(&node, MemoryConfig::default()));
        let report = builder.build().run_for(SimDuration::from_secs(120)).unwrap();
        let stats = debug_bytes(report.agent(agent).stats());
        let metrics = node.with(|n| {
            (debug_bytes(&n.local_batch_count()), debug_bytes(&n.recent_remote_fraction()))
        });
        (stats, metrics, report.ended_at)
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------------
// Multi-agent determinism: same seed ⇒ byte-identical per-agent stats and
// environment metrics, including with a targeted intervention in flight.
// ---------------------------------------------------------------------------

#[test]
fn three_agent_runs_are_byte_identical_per_agent() {
    let run = || {
        let agents = three_agents(ThreeAgentConfig::default());
        let (oc, hv, mem) = (agents.overclock, agents.harvest, agents.memory);
        let report = agents.runtime.run_for(SimDuration::from_secs(45)).unwrap();
        (
            debug_bytes(report.agent(oc).stats()),
            debug_bytes(report.agent(hv).stats()),
            debug_bytes(report.agent(mem).stats()),
            agents.cpu.with(|n| debug_bytes(&n.energy_joules())),
            agents.memory_node.with(|n| debug_bytes(&n.recent_remote_fraction())),
            report.ended_at,
        )
    };
    assert_eq!(run(), run());
}

/// 64-bit FNV-1a over a value's `Debug` rendering.
fn debug_digest<T: std::fmt::Debug>(value: &T) -> u64 {
    debug_bytes(value).iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every other test here compares a run with itself, which a substrate that
/// is fast and slightly wrong passes. This one compares the default
/// three-agent node against a pinned constant: the whole report (its `Debug`
/// rendering) plus the memory substrate's counters, its hot-set ranking, its
/// tier split and its recent and per-second remote fractions (floats by their
/// bits). A change that moves it changed what is simulated or how the report
/// renders, and has to say which.
#[test]
fn three_agent_run_matches_the_pinned_digest() {
    let agents = three_agents(ThreeAgentConfig::default());
    let report = agents.runtime.run_for(SimDuration::from_secs(10)).unwrap();
    let memory = agents.memory_node.with(|n| {
        (
            n.scans(),
            n.migrations(),
            n.access_bit_resets(),
            n.local_accesses(),
            n.remote_accesses(),
            n.slo_attainment(0.8),
            n.hottest_batches(),
            n.remote_batch_count(),
            n.recent_remote_fraction().to_bits(),
            n.remote_fraction_series()
                .iter()
                .map(|s| (s.at, s.remote_fraction.to_bits(), s.active))
                .collect::<Vec<_>>(),
        )
    });
    assert_eq!(debug_digest(&(&report, &memory)), 0x95c4_b697_9816_26a0, "memory = {memory:?}");
}

// ---------------------------------------------------------------------------
// Fleet determinism: a FleetReport is a pure function of (recipe, config,
// horizon) — the worker-thread count must never leak into the results.
// ---------------------------------------------------------------------------

/// The acceptance bar for the fleet runtime: the same recipe + seed produces
/// a byte-identical `FleetReport` (full `Debug` rendering, so every stat,
/// percentile, and metric is covered) for 1, 2, and 8 worker threads.
#[test]
fn fleet_report_is_byte_identical_across_worker_thread_counts() {
    let run = |threads: usize| {
        let preset = three_agents_recipe(ThreeAgentConfig::default());
        let config = FleetConfig { nodes: 5, threads, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
        debug_bytes(&fleet.run(SimDuration::from_secs(20)).unwrap())
    };
    let single = run(1);
    assert_eq!(single, run(2), "2-thread fleet diverged from single-threaded");
    assert_eq!(single, run(8), "8-thread fleet diverged from single-threaded");
}

/// Re-running the same fleet twice (same thread count) is also byte-stable:
/// nothing about scheduling, channel timing, or map ordering may leak in.
#[test]
fn identical_fleet_runs_are_byte_identical() {
    let run = || {
        let preset = colocated_recipe(ColocationConfig::default());
        let config = FleetConfig { nodes: 6, threads: 3, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
        debug_bytes(&fleet.run(SimDuration::from_secs(20)).unwrap())
    };
    assert_eq!(run(), run());
}

/// `run(horizon)` is sugar for `run_with(&mut NullController, horizon)`:
/// the two paths must produce byte-identical `FleetReport`s on a real
/// three-agent fleet (this is the PR 4 behaviour-preservation bar for the
/// programmable-barrier redesign).
#[test]
fn run_is_byte_identical_to_run_with_null_controller() {
    let preset = three_agents_recipe(ThreeAgentConfig::default());
    let config = FleetConfig { nodes: 4, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
    let horizon = SimDuration::from_secs(15);
    let plain = debug_bytes(&fleet.run(horizon).unwrap());
    let null = debug_bytes(&fleet.run_with(&mut NullController, horizon).unwrap());
    assert_eq!(plain, null);
}

/// The placement acceptance bar: a `GreedyPacker` run with non-trivial
/// migration churn is byte-identical across 1, 2, and 8 worker threads and
/// across repeat runs — the controller runs on the coordinator against an
/// index-sorted view, so the thread layout can never leak into placement
/// decisions or node trajectories.
#[test]
fn greedy_packer_fleet_reports_are_byte_identical_across_worker_thread_counts() {
    let horizon = SimDuration::from_secs(20);
    let trace = || {
        ArrivalTrace::generate(
            0xBEEF,
            &ArrivalTraceConfig {
                workloads: 20,
                span: horizon,
                min_cores: 0.5,
                max_cores: 2.5,
                min_lifetime: SimDuration::from_secs(4),
                max_lifetime: SimDuration::from_secs(9),
            },
        )
    };
    let run = |threads: usize| {
        let preset = colocated_recipe(ColocationConfig {
            placeable_cores: 6.0,
            ..ColocationConfig::default()
        });
        let config = FleetConfig { nodes: 5, threads, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
        let mut packer = GreedyPacker::new(trace());
        let report = fleet.run_with(&mut packer, horizon).unwrap();
        assert!(report.placement.migrated > 0, "the pinned run must migrate: {:?}", {
            &report.placement
        });
        assert!(report.placement.admitted > 0);
        debug_bytes(&report)
    };
    let single = run(1);
    assert_eq!(single, run(2), "2-thread placement run diverged from single-threaded");
    assert_eq!(single, run(8), "8-thread placement run diverged from single-threaded");
    assert_eq!(single, run(1), "repeat placement runs must be byte-stable");
}

/// The lifecycle acceptance bar: a fault-injected run with at least one
/// crash, one join, one drain, and one displaced re-placement is
/// byte-identical across 1, 2, and 8 worker threads and across repeat runs.
/// Lifecycle events are applied on the coordinator at epoch boundaries, so
/// neither the thread layout nor scheduling may leak into which node
/// crashes, where its evicted units land, or what the joined node learns.
#[test]
fn fault_injected_fleet_reports_are_byte_identical_across_worker_thread_counts() {
    let horizon = SimDuration::from_secs(20);
    let faults = || {
        FaultPlan::generate(
            0x0,
            5,
            &FaultPlanConfig { crashes: 1, joins: 1, drains: 1, span: horizon },
        )
    };
    let trace = || {
        ArrivalTrace::generate(
            0xBEEF,
            &ArrivalTraceConfig {
                workloads: 24,
                span: horizon,
                min_cores: 0.5,
                max_cores: 2.5,
                min_lifetime: SimDuration::from_secs(6),
                max_lifetime: SimDuration::from_secs(14),
            },
        )
    };
    let run = |threads: usize| {
        let preset = colocated_recipe(ColocationConfig {
            placeable_cores: 6.0,
            ..ColocationConfig::default()
        });
        let config = FleetConfig { nodes: 5, threads, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
        let mut packer = GreedyPacker::new(trace());
        let report = fleet.run_with_faults(&mut packer, faults(), horizon).unwrap();
        // The pinned scenario must actually exercise every lifecycle path.
        let p = &report.placement;
        assert!(p.displaced > 0, "the crash must displace work: {p:?}");
        assert!(p.replaced > 0, "displaced work must be re-placed: {p:?}");
        assert_eq!(report.nodes.len(), 6, "the join must add a node");
        use sol_core::prelude::NodeState;
        let state_of =
            |s: NodeState| report.nodes.iter().filter(|n| n.lifecycle.state == s).count();
        assert_eq!(state_of(NodeState::Crashed), 1);
        assert_eq!(state_of(NodeState::Drained), 1);
        debug_bytes(&report)
    };
    let single = run(1);
    assert_eq!(single, run(2), "2-thread chaos run diverged from single-threaded");
    assert_eq!(single, run(8), "8-thread chaos run diverged from single-threaded");
    assert_eq!(single, run(1), "repeat chaos runs must be byte-stable");
}

/// A zero-event `FaultPlan` must be invisible: `run_with_faults` with
/// `FaultPlan::empty()` is byte-identical to `run_with` on the same
/// controller.
#[test]
fn empty_fault_plan_is_byte_identical_to_run_with() {
    let preset = three_agents_recipe(ThreeAgentConfig::default());
    let config = FleetConfig { nodes: 4, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
    let horizon = SimDuration::from_secs(15);
    let plain = debug_bytes(&fleet.run_with(&mut NullController, horizon).unwrap());
    let faultless = debug_bytes(
        &fleet.run_with_faults(&mut NullController, FaultPlan::empty(), horizon).unwrap(),
    );
    assert_eq!(plain, faultless);
}

#[test]
fn colocated_runs_are_byte_identical_per_agent() {
    let run = || {
        let agents = colocated_agents(ColocationConfig::default());
        let (oc, hv) = (agents.overclock, agents.harvest);
        let mut runtime = agents.runtime;
        runtime.delay_model_at(oc, Timestamp::from_secs(20), SimDuration::from_secs(10));
        let report = runtime.run_for(SimDuration::from_secs(60)).unwrap();
        let oc_stats = debug_bytes(&report.agent(oc).stats());
        let hv_stats = debug_bytes(&report.agent(hv).stats());
        let cpu_metrics = agents.cpu.with(|n| debug_bytes(&n.energy_joules()));
        let hv_metrics = agents.harvest_node.with(|n| {
            (debug_bytes(&n.harvested_core_seconds()), debug_bytes(&n.mean_latency_ms()))
        });
        (oc_stats, hv_stats, cpu_metrics, hv_metrics, report.ended_at)
    };
    assert_eq!(run(), run());
}

/// Every fleet test above compares a run with itself, so a barrier phase
/// moved relative to another would pass them all. This one runs every plane
/// the barrier has on one small fleet — `GreedyPacker` over an arrival
/// trace, a legal fault plan (crash, drain and joins, honest targets only),
/// median learning exchange, default trust policy against sign-flip
/// poisoners — and compares the whole report (`mem_bytes` zeroed, as
/// `benchmark/src/fingerprint.rs` does: host memory is a cost, not a
/// simulated outcome) against a constant recorded before the coordinator was
/// restructured into phases (PR 13), at 1, 2 and 8 worker threads.
#[test]
fn all_planes_fleet_run_matches_the_pinned_digest() {
    const NODES: usize = 8;
    let horizon = SimDuration::from_secs(120);
    let poison = PoisonPlan::generate(0xB105, NODES, 2);
    let honest: Vec<usize> = (0..NODES).filter(|&n| !poison.is_poisoned(n)).collect();
    let at = |secs: u64, event| FaultEvent { at: Timestamp::from_secs(secs), event };
    let faults = FaultPlan::from_events(vec![
        at(8, LifecycleEvent::Join),
        at(14, LifecycleEvent::Crash { node: honest[1] }),
        at(27, LifecycleEvent::Join),
        at(33, LifecycleEvent::Drain { node: honest[4] }),
    ]);
    let arrivals = ArrivalTrace::generate(
        0xBEEF,
        &ArrivalTraceConfig {
            workloads: 40,
            span: horizon,
            min_cores: 0.5,
            max_cores: 2.5,
            min_lifetime: SimDuration::from_secs(6),
            max_lifetime: SimDuration::from_secs(20),
        },
    );
    let run = |threads: usize| {
        let plan = poison.clone();
        let recipe = ScenarioRecipe::new(move |seed: &NodeSeed| {
            let node = Shared::new(CpuNode::new(
                OverclockWorkloadKind::DiskSpeed.build(8),
                CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() }
                    .with_seed(seed.stream(1))
                    .with_placeable_cores(6.0),
            ));
            let config = OverclockConfig { seed: seed.stream(0), ..OverclockConfig::default() };
            let (model, actuator) = smart_overclock(&node, config);
            let attack =
                plan.attack_for(seed.index() as usize, PoisonAttack::SignFlip { gain: 8.0 });
            let model = PoisonedLearner::new(model, attack, seed.stream(16));
            let mut builder = NodeRuntime::builder(node.clone());
            builder.agent("smart-overclock", model, actuator, overclock_schedule());
            builder.build()
        })
        .with_metrics(|report| {
            vec![("avg_power_watts".into(), report.environment.with(|n| n.average_power_watts()))]
        });
        let config = FleetConfig {
            nodes: NODES,
            threads,
            seed: 0x1EA2,
            learning: Some(LearningPlane { exchange_every: 5, ..LearningPlane::default() }),
            trust: Some(TrustPolicy::default()),
            ..FleetConfig::default()
        };
        let fleet = FleetRuntime::new(recipe, config).unwrap();
        let mut packer = GreedyPacker::new(arrivals.clone());
        let mut report = fleet.run_with_faults(&mut packer, faults.clone(), horizon).unwrap();
        // The pinned run must actually exercise every plane.
        let p = &report.placement;
        assert!(p.admitted > 0 && p.migrated > 0 && p.displaced > 0, "placement: {p:?}");
        assert_eq!(report.nodes.len(), NODES + 2, "both joins land");
        assert_eq!(report.learning.rounds, 24);
        assert!(report.learning.redistributed > 0, "learning: {:?}", report.learning);
        assert_eq!(report.learning.warm_starts, 2, "joiners warm-start from the aggregate");
        assert_eq!(report.trust.quarantines, 2, "trust: {:?}", report.trust);
        report.mem_bytes_per_node = 0;
        for node in &mut report.nodes {
            node.mem_bytes = 0;
        }
        debug_digest(&report)
    };
    for threads in [1, 2, 8] {
        assert_eq!(run(threads), 0xf411_0128_ab6d_dbfb, "{threads} worker thread(s)");
    }
}
