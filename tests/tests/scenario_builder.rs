//! Cross-crate properties of the `ScenarioBuilder` node-assembly API.
//!
//! * Registration order must not leak into per-agent outcomes when agents are
//!   physically uncoupled (a proptest over toy agent populations, plus a
//!   real-agent check on an uncoupled `MultiNode`).
//! * Typed handles must survive the full assemble → intervene → report
//!   round-trip across crates.

use proptest::prelude::*;

use sol_agents::prelude::*;
use sol_core::prelude::*;
use sol_node_sim::prelude::*;
use sol_tests::{ToyActuator, ToyModel};

fn toy_schedule(collect_ms: u64, data_per_epoch: u32) -> Schedule {
    Schedule::builder()
        .data_per_epoch(data_per_epoch)
        .data_collect_interval(SimDuration::from_millis(collect_ms))
        .max_epoch_time(SimDuration::from_millis(collect_ms * u64::from(data_per_epoch) * 4))
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_millis(collect_ms * 8))
        .assess_actuator_interval(SimDuration::from_millis(collect_ms * 2))
        .build()
        .unwrap()
}

/// Runs one toy population registered in the given order and returns each
/// agent's stats keyed by name.
fn run_population(specs: &[(u64, u32)], order: &[usize]) -> Vec<(String, String)> {
    let mut builder = NodeRuntime::builder(NullEnvironment);
    let mut handles = Vec::new();
    for &idx in order {
        let (collect_ms, per_epoch) = specs[idx];
        let name = format!("agent-{idx}");
        let handle = builder.agent(
            &name,
            ToyModel { value: idx as f64 },
            ToyActuator::default(),
            toy_schedule(collect_ms, per_epoch),
        );
        handles.push((name, handle));
    }
    let report = builder.build().run_for(SimDuration::from_secs(20)).unwrap();
    let mut out: Vec<(String, String)> = handles
        .into_iter()
        .map(|(name, handle)| {
            let view = report.agent(handle);
            (name, format!("{:#?}|actions={}", view.stats(), view.actuator().actions))
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On an uncoupled environment, an agent's outcome depends only on its
    /// own configuration — never on where in the registration order it sits.
    #[test]
    fn registration_order_never_changes_uncoupled_agent_stats(
        specs in prop::collection::vec((20u64..400, 1u32..6), 2..5),
        rotation in 0usize..4,
    ) {
        let order: Vec<usize> = (0..specs.len()).collect();
        let mut rotated = order.clone();
        rotated.rotate_left(rotation % specs.len());
        let mut reversed = order.clone();
        reversed.reverse();

        let baseline = run_population(&specs, &order);
        prop_assert_eq!(&baseline, &run_population(&specs, &rotated));
        prop_assert_eq!(&baseline, &run_population(&specs, &reversed));
    }
}

/// The same invariant with the real paper agents: with every coupling
/// disabled, swapping SmartOverclock and SmartHarvest's registration order
/// must leave both agents' stats byte-identical.
#[test]
fn uncoupled_real_agents_are_order_independent() {
    let horizon = SimDuration::from_secs(20);
    let run = |overclock_first: bool| {
        let cpu = Shared::new(CpuNode::new(
            OverclockWorkloadKind::ObjectStore.build(8),
            CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
        ));
        let harvest_node =
            Shared::new(HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default()));
        // No couplings: the substrates only share the clock.
        let node =
            MultiNode::builder().cpu(cpu.clone()).harvest(harvest_node.clone()).build().unwrap();
        let mut builder = NodeRuntime::builder(node);
        let (oc, hv) = if overclock_first {
            let oc = builder.register(overclock_blueprint(&cpu, OverclockConfig::default()));
            let hv = builder.register(harvest_blueprint(&harvest_node, HarvestConfig::default()));
            (oc, hv)
        } else {
            let hv = builder.register(harvest_blueprint(&harvest_node, HarvestConfig::default()));
            let oc = builder.register(overclock_blueprint(&cpu, OverclockConfig::default()));
            (oc, hv)
        };
        let report = builder.build().run_for(horizon).unwrap();
        (format!("{:#?}", report.agent(oc).stats()), format!("{:#?}", report.agent(hv).stats()))
    };
    assert_eq!(run(true), run(false));
}

/// Handles survive the full cross-crate round trip: preset assembly, targeted
/// intervention, typed report access, and typed recovery by value.
#[test]
fn handles_round_trip_across_crates() {
    let agents = three_agents(ThreeAgentConfig::default());
    let (oc, hv, mem) = (agents.overclock, agents.harvest, agents.memory);
    let mut runtime = agents.runtime;
    runtime.delay_model_at(oc, Timestamp::from_secs(5), SimDuration::from_secs(5));
    let mut report = runtime.run_for(SimDuration::from_secs(15)).unwrap();

    assert_eq!(report.agent(oc).name(), "smart-overclock");
    assert_eq!(report.agent(hv).name(), "smart-harvest");
    assert_eq!(report.agent(mem).name(), "smart-memory");

    // Typed recovery by value: the concrete model type comes back without a
    // downcast at the call site.
    let taken = report.take(oc);
    assert!(taken.model.epochs() > 0);
    assert!(report.agents.iter().all(|agent| agent.id != oc.id()));
    // The other agents are still addressable after the removal.
    assert!(report.agent(hv).stats().model.epochs_completed > 0);
    assert!(report.agent(mem).stats().model.samples_committed > 0);
}
