//! End-to-end integration tests: each paper agent running on the full stack
//! (framework + simulator + ML), exercising the cross-crate seams.

use sol_agents::prelude::*;
use sol_core::prelude::*;
use sol_node_sim::prelude::*;

#[test]
fn smart_overclock_full_stack_improves_perf_per_watt() {
    let node = Shared::new(CpuNode::new(
        OverclockWorkloadKind::Synthetic.build(8),
        CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
    ));
    let mut builder = NodeRuntime::builder(node.clone());
    let agent = builder.register(overclock_blueprint(&node, OverclockConfig::default()));
    let report = builder.build().run_for(SimDuration::from_secs(300)).unwrap();
    let agent_score = node.with(|n| n.performance().score);
    let agent_power = node.with(|n| n.average_power_watts());

    // Static overclocking baseline.
    let turbo = Shared::new(CpuNode::new(
        OverclockWorkloadKind::Synthetic.build(8),
        CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
    ));
    turbo.with(|n| {
        n.set_frequency_ghz(2.3);
        n.advance_to(Timestamp::from_secs(300));
    });
    let turbo_score = turbo.with(|n| n.performance().score);
    let turbo_power = turbo.with(|n| n.average_power_watts());

    assert!(report.agent(agent).stats().model.epochs_completed > 200);
    assert!(agent_score > 0.8 * turbo_score, "close to static-overclock performance");
    assert!(agent_power < turbo_power, "at lower power than static overclocking");
    assert!(
        agent_score / agent_power > turbo_score / turbo_power,
        "better performance per watt than static overclocking"
    );
}

#[test]
fn smart_harvest_full_stack_harvests_and_respects_wait_safeguard() {
    let node =
        Shared::new(HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default()));
    let mut builder = NodeRuntime::builder(node.clone());
    let agent = builder.register(harvest_blueprint(&node, HarvestConfig::default()));
    let report = builder.build().run_for(SimDuration::from_secs(60)).unwrap();
    assert!(node.with(|n| n.harvested_core_seconds()) > 20.0);
    assert!(node.with(|n| n.mean_latency_ms()) < 1.3 * BurstyService::image_dnn().base_latency_ms);
    assert!(report.agent(agent).stats().actions_taken() > 1000);
}

#[test]
fn smart_memory_full_stack_offloads_and_meets_slo() {
    let node = Shared::new(MemoryNode::new(
        MemoryWorkloadKind::ObjectStore,
        MemoryNodeConfig { batches: 128, accesses_per_sec: 20_000.0, ..Default::default() },
    ));
    let mut builder = NodeRuntime::builder(node.clone());
    let agent = builder.register(memory_blueprint(&node, MemoryConfig::default()));
    let report = builder.build().run_for(SimDuration::from_secs(400)).unwrap();
    assert!(report.agent(agent).stats().model.epochs_completed >= 8);
    assert!(node.with(|n| n.remote_batch_count()) > 20);
    assert!(node.with(|n| n.slo_attainment(0.8)) > 0.8);
}

#[test]
fn all_agents_clean_up_to_a_safe_node_state() {
    // SmartOverclock: frequency back to nominal.
    let cpu = Shared::new(CpuNode::new(
        OverclockWorkloadKind::ObjectStore.build(8),
        CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
    ));
    let (_, mut actuator) = smart_overclock(&cpu, OverclockConfig::default());
    cpu.with(|n| n.set_frequency_ghz(2.3));
    actuator.clean_up(Timestamp::from_secs(1));
    actuator.clean_up(Timestamp::from_secs(2));
    assert_eq!(cpu.with(|n| n.frequency_ghz()), 1.5);

    // SmartHarvest: all cores back to the primary VM.
    let harvest =
        Shared::new(HarvestNode::new(BurstyService::moses(), HarvestNodeConfig::default()));
    let (_, mut actuator) = smart_harvest(&harvest, HarvestConfig::default());
    harvest.with(|n| n.set_primary_cores(2));
    actuator.clean_up(Timestamp::from_secs(1));
    actuator.clean_up(Timestamp::from_secs(2));
    assert_eq!(harvest.with(|n| n.primary_cores()), 8);

    // SmartMemory: every batch back in the first tier.
    let memory = Shared::new(MemoryNode::new(
        MemoryWorkloadKind::Sql,
        MemoryNodeConfig { batches: 64, ..Default::default() },
    ));
    let (_, mut actuator) = smart_memory(&memory, MemoryConfig::default());
    memory.with(|n| {
        n.migrate_to_remote(1);
        n.migrate_to_remote(2);
    });
    actuator.clean_up(Timestamp::from_secs(1));
    actuator.clean_up(Timestamp::from_secs(2));
    assert_eq!(memory.with(|n| n.remote_batch_count()), 0);
}

#[test]
fn deterministic_experiments_reproduce_exactly() {
    let run = || {
        let node = Shared::new(CpuNode::new(
            OverclockWorkloadKind::ObjectStore.build(8),
            CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
        ));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(overclock_blueprint(&node, OverclockConfig::default()));
        let mut report = builder.build().run_for(SimDuration::from_secs(60)).unwrap();
        (report.take(agent).stats, node.with(|n| n.energy_joules()))
    };
    let (stats_a, energy_a) = run();
    let (stats_b, energy_b) = run();
    assert_eq!(stats_a, stats_b);
    assert_eq!(energy_a, energy_b);
}
