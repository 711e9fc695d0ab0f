//! SmartHarvest end to end: harvest idle cores from a latency-sensitive
//! primary VM and show the latency impact compared with not harvesting.
//!
//! Run with: `cargo run --release --example harvesting`

use sol::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = SimDuration::from_secs(90);
    for service in [BurstyService::image_dnn(), BurstyService::moses()] {
        // Baseline: the primary VM keeps all cores.
        let baseline = Shared::new(HarvestNode::new(service.clone(), HarvestNodeConfig::default()));
        baseline.with(|n| n.advance_to(Timestamp::ZERO + horizon));
        let baseline_p99 = baseline.with(|n| n.p99_latency_ms());

        // SmartHarvest.
        let node = Shared::new(HarvestNode::new(service.clone(), HarvestNodeConfig::default()));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(harvest_blueprint(&node, HarvestConfig::default()));
        let report = builder.build().run_for(horizon)?.take(agent);

        let (p99, mean, harvested, starved) = node.with(|n| {
            (
                n.p99_latency_ms(),
                n.mean_latency_ms(),
                n.harvested_core_seconds(),
                n.starvation_fraction(),
            )
        });
        println!("primary VM: {}", service.name());
        println!("  baseline P99 latency           : {baseline_p99:.1} ms");
        println!("  SmartHarvest P99 / mean latency: {p99:.1} ms / {mean:.1} ms");
        println!(
            "  harvested capacity             : {harvested:.0} core-seconds over {} s",
            horizon.as_millis() / 1000
        );
        println!("  starved fraction of time       : {:.2}%", starved * 100.0);
        println!(
            "  agent: {} epochs, {} model predictions, {} safeguard triggers",
            report.stats.model.epochs_completed,
            report.stats.model.model_predictions,
            report.stats.actuator.safeguard_triggers
        );
        println!();
    }
    Ok(())
}
