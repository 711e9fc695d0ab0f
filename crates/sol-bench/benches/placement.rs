//! Placement churn sweep: a placeable co-location fleet driven by the
//! harvest-aware `GreedyPacker` over seeded VM arrival traces of rising
//! intensity, with the zero-arrivals row as the churn-free baseline. The
//! safety columns (safeguard-activation rates, mean p99 latency) show how
//! the on-node learners hold up while the platform admits, drains, and
//! migrates VMs under them; the placement columns show what the packer did.
//!
//! Quick-mode knobs (used by CI so the table cannot silently rot):
//! * `SOL_HORIZON_SECS` — virtual horizon per fleet run (default 60).
//! * `SOL_PLACEMENT_NODES` — fleet size (default 8; CI uses 4).

use sol_bench::placement_experiments::churn_sweep;
use sol_bench::report::{env_u64, fmt, horizon_secs, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(60));
    let nodes = env_u64("SOL_PLACEMENT_NODES", 8) as usize;
    let threads = 4;
    // Churn levels scale with the fleet so the quick mode stays meaningful.
    let arrival_counts = [0, nodes, nodes * 4, nodes * 8];

    let rows: Vec<Vec<String>> = churn_sweep(nodes, threads, horizon, &arrival_counts)
        .into_iter()
        .map(|r| {
            vec![
                r.arrivals.to_string(),
                r.commands.to_string(),
                r.admitted.to_string(),
                r.departed.to_string(),
                r.migrated.to_string(),
                r.failed_placements.to_string(),
                fmt(r.packing_efficiency),
                format!("{} / {}", fmt(r.occupancy_p50), fmt(r.occupancy_max)),
                format!("{} / {}", fmt(r.overclock_safeguard_rate), fmt(r.harvest_safeguard_rate)),
                fmt(r.mean_p99_latency_ms),
            ]
        })
        .collect();

    print_table(
        &format!("Placement churn sweep: {nodes} nodes, horizon {horizon}"),
        &[
            "Arrivals",
            "Commands",
            "Admitted",
            "Departed",
            "Migrated",
            "Failed",
            "Packing eff",
            "Occupancy p50/max",
            "Safeguard rate OC/HV",
            "P99 ms mean",
        ],
        &rows,
    );
}
