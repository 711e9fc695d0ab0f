//! The fleet learning plane: exchange, robust aggregation, and warm starts.
//!
//! Two experiments on a fleet of SmartOverclock agents pinned to disk-bound
//! workloads (where the *correct* learned policy is "do not overclock"):
//!
//! 1. **Robustness.** Two of eight nodes are Byzantine: they sign-flip and
//!    amplify the Q-tables they export, telling the fleet that overclocking
//!    is great. Under `AggregationRule::Mean` the poison survives averaging
//!    and honest nodes start overclocking — visible as model-safeguard
//!    interceptions climbing fleet-wide. Under the robust rules
//!    (`CoordinateWiseMedian`, `TrimmedMean`) the minority is voted down and
//!    the fleet behaves like an unpoisoned one.
//! 2. **Warm starts.** A fresh server joins an honest learning fleet mid-run
//!    and imports the fleet aggregate before its first epoch. Its safeguard
//!    fires strictly less often than the same server joining a fleet with the
//!    learning plane disabled, because it skips the exploration phase the
//!    incumbents already paid for.
//!
//! Run with: `cargo run --release --example fleet_learning`

use sol::prelude::*;
use sol_agents::poison::{poisoned_overclock_recipe, PoisonAttack, PoisonedOverclockConfig};
use sol_ml::exchange::{AggregationRule, BlendPolicy};

const NODES: usize = 8;
const VICTIMS: usize = 2;
const HORIZON_SECS: u64 = 240;
const FLEET_SEED: u64 = 0x1EA2;

fn fleet_config(learning: Option<LearningPlane>) -> FleetConfig {
    FleetConfig { nodes: NODES, threads: 4, seed: FLEET_SEED, learning, ..FleetConfig::default() }
}

fn plane(rule: AggregationRule) -> LearningPlane {
    LearningPlane { exchange_every: 5, rule, blend: BlendPolicy::Replace }
}

/// Runs the poisoned-overclock fleet and returns the report.
fn run(
    victims: usize,
    learning: Option<LearningPlane>,
) -> Result<FleetReport, Box<dyn std::error::Error>> {
    let preset = poisoned_overclock_recipe(PoisonedOverclockConfig {
        victims,
        attack: PoisonAttack::SignFlip { gain: 4.0 },
        nodes: NODES,
    });
    let fleet = FleetRuntime::new(preset.recipe, fleet_config(learning))?;
    Ok(fleet.run(SimDuration::from_secs(HORIZON_SECS))?)
}

/// Fleet-wide model-safeguard interceptions: how often a node's own Δ-reward
/// safeguard had to veto the (possibly poisoned) model.
fn interceptions(report: &FleetReport) -> u64 {
    report.roles[0].totals.model.intercepted_predictions
}

fn mean_power(report: &FleetReport) -> f64 {
    report.metric("avg_power_watts").map(|m| m.total / m.nodes as f64).unwrap_or(0.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------------------------------------------------------- part 1
    println!("== robust aggregation under poisoning ==");
    println!(
        "{NODES} smart-overclock nodes on disk-bound workloads, {VICTIMS} Byzantine \
         (sign-flip x4 exports), exchange every 5 epochs, blend = replace\n"
    );

    let clean = run(0, Some(plane(AggregationRule::Mean)))?;
    let mean = run(VICTIMS, Some(plane(AggregationRule::Mean)))?;
    let median = run(VICTIMS, Some(plane(AggregationRule::CoordinateWiseMedian)))?;
    let trimmed = run(VICTIMS, Some(plane(AggregationRule::TrimmedMean { k: VICTIMS })))?;

    println!("{:<26} {:>14} {:>16}", "aggregation", "interceptions", "avg power (W)");
    for (label, report) in [
        ("mean, no poison", &clean),
        ("mean, poisoned", &mean),
        ("median, poisoned", &median),
        ("trimmed(k=2), poisoned", &trimmed),
    ] {
        println!("{:<26} {:>14} {:>16.2}", label, interceptions(report), mean_power(report),);
    }
    let stats = mean.learning;
    println!(
        "\nlearning plane (poisoned mean run): {} rounds, {} exports, {} redistributed, \
         {} rejected, {} KiB exchanged",
        stats.rounds,
        stats.participants,
        stats.redistributed,
        stats.rejected,
        stats.bytes_exchanged / 1024,
    );

    // ---------------------------------------------------------------- part 2
    println!("\n== warm starts across churn ==");
    let faults = || {
        FaultPlan::from_events(
            [120u64, 150, 180]
                .iter()
                .map(|&secs| FaultEvent {
                    at: Timestamp::ZERO + SimDuration::from_secs(secs),
                    event: LifecycleEvent::Join,
                })
                .collect(),
        )
    };
    let joined_interceptions =
        |learning: Option<LearningPlane>| -> Result<u64, Box<dyn std::error::Error>> {
            let preset = poisoned_overclock_recipe(PoisonedOverclockConfig {
                victims: 0,
                nodes: NODES,
                ..PoisonedOverclockConfig::default()
            });
            let fleet = FleetRuntime::new(preset.recipe, fleet_config(learning))?;
            let report = fleet.run_with_faults(
                &mut NullController,
                faults(),
                SimDuration::from_secs(HORIZON_SECS),
            )?;
            let mut total = 0;
            for joined in report.nodes.iter().filter(|n| n.lifecycle.joined_epoch > 0) {
                let model = &joined.agents[0].stats.model;
                println!(
                    "  joined node {}: joined@epoch{}, {} epochs completed, {} interceptions",
                    joined.node,
                    joined.lifecycle.joined_epoch,
                    model.epochs_completed,
                    model.intercepted_predictions,
                );
                total += model.intercepted_predictions;
            }
            println!("  (warm starts recorded: {})", report.learning.warm_starts);
            Ok(total)
        };

    // Exchanging every epoch maximizes what a joiner inherits: its table is
    // re-synced to the fleet consensus after every local exploration detour.
    let warm_plane = LearningPlane {
        exchange_every: 1,
        rule: AggregationRule::CoordinateWiseMedian,
        blend: BlendPolicy::Replace,
    };
    println!("cold start (learning plane disabled):");
    let cold = joined_interceptions(None)?;
    println!("warm start (median aggregate imported at join, exchange every epoch):");
    let warm = joined_interceptions(Some(warm_plane))?;

    println!(
        "\njoined-node safeguard interceptions (3 joiners): cold {cold} vs warm {warm} \
         ({}% reduction)",
        ((cold - cold.min(warm)) * 100).checked_div(cold).unwrap_or(0),
    );

    // The acceptance bar.
    assert!(
        interceptions(&mean) > interceptions(&clean),
        "sign-flip poisoning must degrade a mean-aggregating fleet"
    );
    assert!(
        interceptions(&median) < interceptions(&mean),
        "the coordinate-wise median must shrug the poison off"
    );
    assert!(
        interceptions(&trimmed) < interceptions(&mean),
        "the trimmed mean must shrug the poison off"
    );
    assert!(warm < cold, "a warm-started joiner must trip its safeguard less than a cold one");
    println!("\nrobust rules held; warm start beat cold start");
    Ok(())
}
