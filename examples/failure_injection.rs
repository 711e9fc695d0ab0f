//! Failure injection: show how SOL's safeguards contain the damage when
//! everything goes wrong at once — corrupted counters, a broken model, and a
//! 30-second scheduling delay — compared with the same agent run unchecked.
//!
//! Run with: `cargo run --release --example failure_injection`

use sol::prelude::*;

fn run(config: OverclockConfig, label: &str) -> Result<(), Box<dyn std::error::Error>> {
    let horizon = SimDuration::from_secs(200);
    let node = Shared::new(CpuNode::new(
        OverclockWorkloadKind::DiskSpeed.build(8),
        CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
    ));
    // Corrupted IPS counter 10% of the time.
    node.with(|n| n.set_bad_ips_probability(0.10));
    let mut builder = NodeRuntime::builder(node.clone());
    let agent = builder.register(overclock_blueprint(&node, config));
    let mut runtime = builder.build();
    // The model thread is starved for 30 seconds in the middle of the run.
    runtime.delay_model_at(agent, Timestamp::from_secs(60), SimDuration::from_secs(30));
    let report = runtime.run_for(horizon)?.take(agent);

    let power = node.with(|n| n.average_power_watts());
    println!("{label}");
    println!("  average power                  : {power:.1} W");
    println!("  samples discarded by validation: {}", report.stats.model.samples_discarded);
    println!("  predictions intercepted        : {}", report.stats.model.intercepted_predictions);
    println!(
        "  actions without a fresh prediction: {}",
        report.stats.actuator.actions_without_prediction
    );
    println!("  actuator safeguard triggers    : {}", report.stats.actuator.safeguard_triggers);
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("DiskSpeed workload (never benefits from overclocking), broken model that always");
    println!("overclocks, 10% corrupted IPS readings, 30 s model scheduling delay:\n");
    run(
        OverclockConfig { broken_model: true, ..OverclockConfig::without_safeguards() },
        "without SOL safeguards",
    )?;
    run(
        OverclockConfig { broken_model: true, ..OverclockConfig::default() },
        "with SOL safeguards",
    )?;
    println!("The nominal-frequency power for this workload is roughly what the safeguarded");
    println!("agent draws; the unchecked agent pins the cores at 2.3 GHz and wastes power.");
    Ok(())
}
