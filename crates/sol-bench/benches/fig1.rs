//! Regenerates Figure 1: SmartOverclock vs static frequency policies
//! (normalized performance and power on Synthetic, ObjectStore, DiskSpeed).

use sol_bench::overclock_experiments::fig1;
use sol_bench::report::{fmt, horizon_secs, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(300));
    let rows: Vec<Vec<String>> = fig1(horizon)
        .into_iter()
        .map(|r| vec![r.workload, r.policy, fmt(r.normalized_performance), fmt(r.normalized_power)])
        .collect();
    print_table(
        "Figure 1: SmartOverclock vs static overclocking (normalized to static 1.5 GHz)",
        &["Workload", "Policy", "Norm. performance", "Norm. power"],
        &rows,
    );
}
