//! Regenerates Figure 2: the data-validation safeguard under injected
//! out-of-range IPS readings (Synthetic workload).

use sol_bench::overclock_experiments::fig2;
use sol_bench::report::{fmt, horizon_secs, pct, print_table};
use sol_core::time::SimDuration;

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(300));
    let rows: Vec<Vec<String>> = fig2(horizon, &[0.0, 0.05, 0.10, 0.20])
        .into_iter()
        .map(|r| {
            vec![
                pct(r.bad_data_fraction),
                if r.validation { "with validation" } else { "without validation" }.to_string(),
                fmt(r.normalized_performance),
                fmt(r.normalized_power),
                r.samples_discarded.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 2: invalid IPS readings vs the data validation safeguard (normalized to fault-free agent)",
        &["Bad data", "Variant", "Norm. performance", "Norm. power", "Samples discarded"],
        &rows,
    );
}
