//! SOL at fleet scale: eight simulated servers, each hosting all three paper
//! agents, stamped out from one `ScenarioRecipe` and driven by the
//! `FleetRuntime` under a single virtual clock.
//!
//! Every node gets its own derived seed (heterogeneous but deterministic),
//! the nodes are sharded across worker threads and synchronized on epoch
//! boundaries, and the per-node results are folded into fleet-level safety
//! dashboards: per-role totals and percentiles, safeguard-activation rates,
//! and SLO-violation counts. The dashboard is byte-identical regardless of
//! the worker-thread count — verified at the end of this example. Beside it
//! the run returns a `FleetProfile`, where the coordinator's wall time went
//! barrier phase by barrier phase; being wall-clock, it differs run to run.
//!
//! Run with: `cargo run --release --example fleet`

use sol::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = SimDuration::from_secs(60);
    let preset = three_agents_recipe(ThreeAgentConfig::default());
    let handles = [
        ("smart-overclock", AgentId::from(preset.overclock)),
        ("smart-harvest", AgentId::from(preset.harvest)),
        ("smart-memory", AgentId::from(preset.memory)),
    ];

    let config = FleetConfig { nodes: 8, threads: 4, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe.clone(), config.clone())?;
    let (report, profile) = fleet.run_profiled(&mut NullController, FaultPlan::empty(), horizon)?;

    println!(
        "fleet: {} nodes x 3 agents, horizon {horizon}, {} sync epochs",
        report.nodes.len(),
        report.epochs
    );
    println!("\nper-role dashboard (aggregated over {} nodes):", report.nodes.len());
    for (label, id) in handles {
        let role = report.role(id);
        println!(
            "  {label:<16} epochs p50/p90/max={:.0}/{:.0}/{:.0}  actions={:<6} \
             safeguard-rate={:.2}  trips(total)={}",
            role.epochs_completed.p50,
            role.epochs_completed.p90,
            role.epochs_completed.max,
            role.totals.actions_taken(),
            role.safeguard_activation_rate,
            role.totals.actuator.safeguard_triggers,
        );
    }

    println!("\nfleet environment metrics:");
    for metric in &report.metrics {
        println!(
            "  {:<24} total={:<10.3} mean={:<8.3} min={:<8.3} max={:.3}",
            metric.name, metric.total, metric.mean, metric.min, metric.max
        );
    }

    let violations = report.metric("memory_slo_violations").expect("recipe reports violations");
    println!(
        "\n{} of {} nodes violated the memory SLO attainment floor",
        violations.total as u64,
        report.nodes.len()
    );

    println!("\nwhere the coordinator's wall time went:\n{profile}");

    // Seeded heterogeneity: the overclock learners explored differently, so
    // the fleet shows a spread of per-node outcomes.
    let oc = report.role(preset.overclock);
    assert!(report.nodes.len() == 8);
    assert_eq!(profile.barriers, report.epochs);
    assert!(oc.totals.model.epochs_completed > 0);
    assert!(
        report.nodes.iter().map(|n| n.seed).collect::<std::collections::HashSet<_>>().len() == 8,
        "every node must have a distinct derived seed"
    );

    // The dashboard must not depend on how the fleet was sharded: re-run the
    // same recipe single-threaded and compare byte for byte.
    let single = FleetRuntime::new(preset.recipe.clone(), FleetConfig { threads: 1, ..config })?
        .run(horizon)?;
    assert_eq!(
        format!("{report:#?}"),
        format!("{single:#?}"),
        "FleetReport must be byte-identical across worker-thread counts"
    );
    println!("4-thread and 1-thread fleet runs produced byte-identical reports");
    Ok(())
}
