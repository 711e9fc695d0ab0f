//! Regenerates Figure 8: SmartMemory Model and Actuator safeguards on the
//! oscillating SpecJBB workload.

use sol_bench::memory_experiments::fig8;
use sol_bench::report::{horizon_secs, pct, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(1000));
    let rows: Vec<Vec<String>> = fig8(horizon)
        .into_iter()
        .map(|r| {
            vec![
                r.safeguards,
                pct(r.slo_attainment),
                pct(r.mean_remote_fraction),
                r.mitigations.to_string(),
                r.intercepted_predictions.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 8: SmartMemory safeguard ablation on oscillating SpecJBB (80% local-access SLO)",
        &[
            "Safeguards",
            "SLO attainment",
            "Mean remote fraction",
            "Mitigations",
            "Intercepted preds",
        ],
        &rows,
    );
}
