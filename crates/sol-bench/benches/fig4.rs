//! Regenerates Figure 4: non-blocking vs blocking Actuator under a 30-second
//! Model scheduling delay at a workload phase change.

use sol_bench::overclock_experiments::fig4;
use sol_bench::report::{horizon_secs, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(280));
    let rows: Vec<Vec<String>> = fig4(horizon)
        .into_iter()
        .map(|r| {
            vec![
                r.actuator,
                format!("{:+.1}%", r.power_increase_pct),
                r.actuation_timeouts.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 4: 30 s Model delay at a phase change (power relative to delay-free run)",
        &["Actuator", "Power increase", "Timeout actions"],
        &rows,
    );
}
