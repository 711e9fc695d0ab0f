//! SmartMemory end to end: learn per-region scan frequencies for a two-tier
//! memory system and offload warm memory while meeting an 80% local-access
//! SLO.
//!
//! Run with: `cargo run --release --example tiered_memory`

use sol::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = SimDuration::from_secs(300);
    for kind in MemoryWorkloadKind::FIG7 {
        let node = Shared::new(MemoryNode::new(
            kind,
            MemoryNodeConfig { batches: 256, accesses_per_sec: 40_000.0, ..Default::default() },
        ));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(memory_blueprint(&node, MemoryConfig::default()));
        let report = builder.build().run_for(horizon)?.take(agent);

        let (remote, total, resets, slo, recent_remote) = node.with(|n| {
            (
                n.remote_batch_count(),
                n.batch_count(),
                n.access_bit_resets(),
                n.slo_attainment(0.8),
                n.recent_remote_fraction(),
            )
        });
        println!("workload: {}", kind.name());
        println!(
            "  memory offloaded to second tier: {remote}/{total} batches ({:.0} MB of {:.0} MB)",
            remote as f64 * 2.0,
            total as f64 * 2.0
        );
        println!("  access-bit resets (TLB flushes): {resets}");
        println!("  80% local-access SLO attainment: {:.1}%", slo * 100.0);
        println!("  recent remote-access fraction  : {:.1}%", recent_remote * 100.0);
        println!(
            "  agent: {} epochs, {} intercepted predictions, {} mitigations",
            report.stats.model.epochs_completed,
            report.stats.model.intercepted_predictions,
            report.stats.actuator.mitigations
        );
        println!();
    }
    Ok(())
}
