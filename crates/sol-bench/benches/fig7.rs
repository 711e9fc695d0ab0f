//! Regenerates Figure 7: SmartMemory vs static access-bit scanning
//! (reset reduction, local memory size reduction, SLO attainment).

use sol_bench::memory_experiments::fig7;
use sol_bench::report::{horizon_secs, pct, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(600));
    let rows: Vec<Vec<String>> = fig7(horizon)
        .into_iter()
        .map(|r| {
            vec![
                r.workload,
                r.policy,
                format!("{:.1}%", r.reset_reduction_pct),
                format!("{:.1}%", r.local_size_reduction_pct),
                pct(r.slo_attainment),
            ]
        })
        .collect();
    print_table(
        "Figure 7: SmartMemory vs static access-bit scanning",
        &[
            "Workload",
            "Policy",
            "Reset reduction vs 300 ms",
            "Local size reduction",
            "SLO attainment",
        ],
        &rows,
    );
}
