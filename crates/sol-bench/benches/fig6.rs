//! Regenerates Figure 6: the SmartHarvest safeguards (invalid data, broken
//! model, delayed predictions) on image-dnn and moses.

use sol_bench::harvest_experiments::fig6;
use sol_bench::report::{fmt, horizon_secs, pct, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(120));
    let rows: Vec<Vec<String>> = fig6(horizon)
        .into_iter()
        .map(|r| {
            vec![
                r.scenario,
                r.workload,
                r.variant,
                fmt(r.normalized_mean_latency),
                fmt(r.normalized_p99_latency),
                pct(r.starvation_fraction),
                format!("{:.0}", r.harvested_core_seconds),
            ]
        })
        .collect();
    print_table(
        "Figure 6: SmartHarvest safeguards (latency relative to a no-harvesting baseline)",
        &[
            "Scenario",
            "Workload",
            "Variant",
            "Norm. mean latency",
            "Norm. P99 latency",
            "Starved time",
            "Harvested core-s",
        ],
        &rows,
    );
}
