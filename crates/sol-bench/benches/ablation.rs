//! Ablation of SmartOverclock design choices called out in DESIGN.md:
//! exploration rate and Actuator-safeguard threshold.

use sol_agents::overclock::OverclockConfig;
use sol_bench::overclock_experiments::run_smart_overclock;
use sol_bench::report::{fmt, horizon_secs, print_table};
use sol_core::time::SimDuration;
use sol_node_sim::workload::OverclockWorkloadKind;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(200));
    let mut rows = Vec::new();
    for exploration in [0.0, 0.05, 0.1, 0.25] {
        let config = OverclockConfig { exploration, ..Default::default() };
        let (outcome, _) = run_smart_overclock(OverclockWorkloadKind::ObjectStore, config, horizon);
        rows.push(vec![
            format!("exploration = {exploration}"),
            fmt(outcome.performance),
            fmt(outcome.power_watts),
        ]);
    }
    for threshold in [0.01, 0.05, 0.2] {
        let config = OverclockConfig { alpha_threshold: threshold, ..Default::default() };
        let (outcome, _) = run_smart_overclock(OverclockWorkloadKind::Synthetic, config, horizon);
        rows.push(vec![
            format!("alpha threshold = {threshold}"),
            fmt(outcome.performance),
            fmt(outcome.power_watts),
        ]);
    }
    print_table(
        "Ablation: SmartOverclock design parameters",
        &["Configuration", "Performance score", "Average power (W)"],
        &rows,
    );
}
