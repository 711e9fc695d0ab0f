//! Regenerates Figure 5: the Actuator safeguard disabling overclocking during
//! long idle phases.

use sol_bench::overclock_experiments::fig5;
use sol_bench::report::{fmt, horizon_secs, pct, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(900));
    let rows: Vec<Vec<String>> = fig5(horizon)
        .into_iter()
        .map(|r| {
            vec![
                if r.actuator_safeguard { "with actuator safeguard" } else { "without safeguard" }
                    .to_string(),
                fmt(r.idle_power_watts),
                fmt(r.active_power_watts),
                pct(r.idle_overclocked_fraction),
                r.safeguard_triggers.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 5: Actuator safeguard during long idle phases",
        &["Variant", "Idle power (W)", "Active power (W)", "Idle time overclocked", "Triggers"],
        &rows,
    );
}
