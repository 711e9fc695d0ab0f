//! Beyond the paper: the co-location interference table. SmartOverclock and
//! SmartHarvest solo, co-located on separate frequency domains, co-located on
//! a shared frequency domain, with a targeted Model-thread delay, and the
//! full three-agent population (SmartMemory joins via the
//! frequency→memory-bandwidth coupling).
//!
//! `SOL_HORIZON_SECS` shortens the horizon (CI runs this in quick mode).

use sol_bench::colocation_experiments::interference_table;
use sol_bench::report::{fmt, horizon_secs, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(120));
    let opt = |v: Option<f64>| v.map(fmt).unwrap_or_else(|| "-".into());
    let rows: Vec<Vec<String>> = interference_table(horizon)
        .into_iter()
        .map(|r| {
            let oc = r.overclock_stats;
            let hv = r.harvest_stats;
            let mem = r.memory_stats;
            vec![
                r.scenario,
                opt(r.perf_score),
                opt(r.avg_power_watts),
                opt(r.p99_latency_ms),
                opt(r.harvested_core_seconds),
                opt(r.slo_attainment),
                oc.map(|s| s.model.epochs_completed.to_string()).unwrap_or_else(|| "-".into()),
                hv.map(|s| {
                    format!("{} / {}", s.model.default_predictions, s.actuator.safeguard_triggers)
                })
                .unwrap_or_else(|| "-".into()),
                mem.zip(r.remote_batches)
                    .map(|(s, remote)| format!("{} / {remote}", s.model.epochs_completed))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    print_table(
        "Co-location: per-agent outcomes on one shared node",
        &[
            "Scenario",
            "Perf score",
            "Avg power W",
            "P99 latency ms",
            "Harvested core-s",
            "Mem SLO",
            "OC epochs",
            "HV defaults/trips",
            "Mem epochs/remote",
        ],
        &rows,
    );
}
