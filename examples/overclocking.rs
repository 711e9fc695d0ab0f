//! SmartOverclock end to end: run the Q-learning overclocking agent on the
//! three paper workloads and compare it against static frequency policies.
//!
//! Run with: `cargo run --release --example overclocking`

use sol::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = SimDuration::from_secs(200);
    println!("workload     policy            perf-score   avg-power-W");
    for kind in OverclockWorkloadKind::ALL {
        // Static baselines.
        for freq in FREQUENCY_LEVELS_GHZ {
            let node = Shared::new(CpuNode::new(
                kind.build(8),
                CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
            ));
            node.with(|n| {
                n.set_frequency_ghz(freq);
                n.advance_to(Timestamp::ZERO + horizon);
            });
            let (score, power) = node.with(|n| (n.performance().score, n.average_power_watts()));
            println!(
                "{:<12} static {:>3.1} GHz    {:>10.4}   {:>10.1}",
                kind.name(),
                freq,
                score,
                power
            );
        }
        // SmartOverclock.
        let node = Shared::new(CpuNode::new(
            kind.build(8),
            CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
        ));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(overclock_blueprint(&node, OverclockConfig::default()));
        let report = builder.build().run_for(horizon)?.take(agent);
        let (score, power) = node.with(|n| (n.performance().score, n.average_power_watts()));
        println!(
            "{:<12} SmartOverclock    {:>10.4}   {:>10.1}   ({} epochs, {} default predictions)",
            kind.name(),
            score,
            power,
            report.stats.model.epochs_completed,
            report.stats.model.default_predictions
        );
    }
    Ok(())
}
