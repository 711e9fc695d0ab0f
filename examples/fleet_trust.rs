//! The fleet trust plane: divergence scoring, poisoner identification, and
//! automated quarantine.
//!
//! The learning-plane example shows robust aggregation *containing* Byzantine
//! exports; this one shows the trust plane *evicting* the nodes that keep
//! sending them. Two of eight smart-overclock nodes sign-flip and amplify the
//! Q-tables they export. On every exchange round the coordinator measures
//! each node's export against the post-aggregation consensus (L2 distance per
//! agent slot, normalized into a robust z-score across the round's
//! participants), decays accumulated suspicion, and walks persistent
//! offenders through `Trusted → Suspect → Quarantined`:
//!
//! * a **Suspect**'s exports are excluded from aggregation (it still receives
//!   the consensus, which is harmless by construction);
//! * a **Quarantined** node is handed to the lifecycle layer as a `Drain` and
//!   retires through the ordinary `Draining → Drained` machinery.
//!
//! A clean fleet of identical shape runs the same policy and records zero
//! trust actions — the detector's false-positive floor.
//!
//! Run with: `cargo run --release --example fleet_trust`

use sol::prelude::*;
use sol_agents::poison::{
    poisoned_overclock_recipe, PoisonAttack, PoisonPlan, PoisonedOverclockConfig,
};
use sol_ml::exchange::{AggregationRule, BlendPolicy};

const NODES: usize = 8;
const VICTIMS: usize = 2;
const HORIZON_SECS: u64 = 120;
const FLEET_SEED: u64 = 0x1EA2;

fn run(victims: usize) -> Result<(FleetReport, PoisonPlan), Box<dyn std::error::Error>> {
    let preset = poisoned_overclock_recipe(PoisonedOverclockConfig {
        victims,
        attack: PoisonAttack::SignFlip { gain: 4.0 },
        nodes: NODES,
    });
    let config = FleetConfig {
        nodes: NODES,
        threads: 4,
        seed: FLEET_SEED,
        learning: Some(LearningPlane {
            exchange_every: 5,
            rule: AggregationRule::CoordinateWiseMedian,
            blend: BlendPolicy::Replace,
        }),
        trust: Some(TrustPolicy::default()),
        ..FleetConfig::default()
    };
    let report =
        FleetRuntime::new(preset.recipe, config)?.run(SimDuration::from_secs(HORIZON_SECS))?;
    Ok((report, preset.plan))
}

fn verdict_label(verdict: TrustVerdict) -> &'static str {
    match verdict {
        TrustVerdict::Trusted => "trusted",
        TrustVerdict::Suspect => "suspect",
        TrustVerdict::Quarantined => "QUARANTINED",
    }
}

fn print_table(report: &FleetReport, plan: &PoisonPlan) {
    println!(
        "{:<6} {:<9} {:>7} {:>10} {:>8} {:>8}  {:<12} {:<10}",
        "node", "role", "scored", "divergent", "score", "last z", "verdict", "lifecycle"
    );
    for node in &report.nodes {
        let trust = &node.trust;
        println!(
            "{:<6} {:<9} {:>7} {:>10} {:>8.3} {:>8.2}  {:<12} {:<10?}",
            node.node,
            if plan.is_poisoned(node.node) { "poisoner" } else { "honest" },
            trust.rounds_scored,
            trust.divergent_rounds,
            trust.score,
            trust.last_divergence,
            verdict_label(trust.verdict),
            node.lifecycle.state,
        );
    }
    let stats = report.trust;
    println!(
        "\ntrust plane: {} rounds scored, {} node-rounds, {} divergent, {} suspects, \
         {} quarantines, {} exports withheld",
        stats.rounds_scored,
        stats.nodes_scored,
        stats.divergent,
        stats.suspects,
        stats.quarantines,
        stats.excluded,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== poisoned fleet under the trust plane ==");
    println!(
        "{NODES} smart-overclock nodes, {VICTIMS} Byzantine (sign-flip x4 exports), median \
         aggregation, exchange every 5 epochs, default trust policy\n"
    );
    let (poisoned, plan) = run(VICTIMS)?;
    print_table(&poisoned, &plan);

    println!("\n== clean fleet, same shape and policy ==\n");
    let (clean, clean_plan) = run(0)?;
    print_table(&clean, &clean_plan);

    // The acceptance bar.
    assert_eq!(
        poisoned.trust.quarantines, VICTIMS as u64,
        "every persistent poisoner must be quarantined"
    );
    for node in &poisoned.nodes {
        if plan.is_poisoned(node.node) {
            assert_eq!(node.trust.verdict, TrustVerdict::Quarantined);
            assert_eq!(node.lifecycle.state, NodeState::Drained, "quarantine must drain");
        } else {
            assert_eq!(node.trust.verdict, TrustVerdict::Trusted);
        }
    }
    assert_eq!(clean.trust.suspects, 0, "a clean fleet must record zero suspects");
    assert_eq!(clean.trust.quarantines, 0, "a clean fleet must record zero quarantines");

    println!("\nall poisoners quarantined and drained; clean fleet untouched");
    Ok(())
}
