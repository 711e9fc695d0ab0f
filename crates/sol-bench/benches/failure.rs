//! Churn-under-failure sweep: the placeable co-location fleet under the
//! `GreedyPacker` while a seeded `FaultPlan` crashes, joins, and drains
//! servers mid-run. One row per crash count (each crash matched by a join,
//! plus one drain), reporting the displaced/re-placed accounting and the
//! surviving fleet's safety dashboard — learning must survive the churn.
//!
//! Quick-mode knobs (used by CI so the table cannot silently rot):
//! * `SOL_HORIZON_SECS` — virtual horizon per fleet run (default 60).
//! * `SOL_FAILURE_NODES` — initial fleet size (default 8).

use sol_bench::fleet_experiments::failure_sweep;
use sol_bench::report::{env_u64, fmt, horizon_secs, pct, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(60));
    let nodes = env_u64("SOL_FAILURE_NODES", 8) as usize;
    let arrivals = nodes * 4;
    // Crash up to half the fleet (leaving room for the matched drain).
    let crash_counts: Vec<usize> = [0usize, 1, 2, 4].into_iter().filter(|&c| c < nodes).collect();

    let rows: Vec<Vec<String>> = failure_sweep(nodes, 4, arrivals, horizon, &crash_counts)
        .into_iter()
        .map(|r| {
            vec![
                format!("{}/{}/{}", r.crashes, r.joins, r.drains),
                r.fleet_size.to_string(),
                r.surviving_nodes.to_string(),
                r.displaced.to_string(),
                r.replaced.to_string(),
                r.failed_placements.to_string(),
                pct(r.harvest_safeguard_rate),
                fmt(r.mean_p99_latency_ms),
                fmt(r.wall_ms_per_virtual_minute),
            ]
        })
        .collect();

    print_table(
        &format!("Churn under failure: {nodes}-node fleet, {arrivals} VM arrivals"),
        &[
            "Crash/Join/Drain",
            "Fleet size",
            "Surviving",
            "Displaced",
            "Re-placed",
            "Failed",
            "HV safeguard rate",
            "P99 ms mean",
            "Wall ms/virt-min",
        ],
        &rows,
    );
}
