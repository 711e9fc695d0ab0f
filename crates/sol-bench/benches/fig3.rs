//! Regenerates Figure 3: the model safeguard against a broken model that
//! always selects the highest frequency.

use sol_bench::overclock_experiments::fig3;
use sol_bench::report::{fmt, horizon_secs, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(300));
    let rows: Vec<Vec<String>> = fig3(horizon)
        .into_iter()
        .map(|r| {
            vec![
                r.workload,
                if r.model_safeguard { "with model safeguard" } else { "without safeguard" }
                    .to_string(),
                format!("{:+.1}%", r.power_increase_pct),
                fmt(r.normalized_performance),
                r.intercepted_predictions.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 3: broken model (always overclock) vs the model safeguard (relative to correct agent)",
        &["Workload", "Variant", "Power increase", "Norm. performance", "Intercepted"],
        &rows,
    );
}
