//! Regenerates the paper's evaluation — Tables 1–2 and Figures 1–8 — and
//! four tables beyond it, each at a fixed virtual horizon, so the whole
//! output is byte-identical run to run.
//!
//! ```sh
//! cargo bench -p sol-bench --bench paper                 # every table, in order
//! cargo bench -p sol-bench --bench paper -- fig6 table1  # the named ones, in that order
//! ```

use sol_agents::overclock::OverclockConfig;
use sol_bench::colocation_experiments::interference_table;
use sol_bench::fleet_experiments::failure_sweep;
use sol_bench::harvest_experiments::fig6;
use sol_bench::memory_experiments::{fig7, fig8};
use sol_bench::overclock_experiments::{fig1, fig2, fig3, fig4, fig5, run_smart_overclock};
use sol_bench::placement_experiments::churn_sweep;
use sol_bench::report::{fmt, pct, print_table};
use sol_core::taxonomy;
use sol_core::time::SimDuration;
use sol_node_sim::workload::OverclockWorkloadKind;

/// Every table by name, in the order a bare run prints them.
const TABLES: &[(&str, fn())] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1_table),
    ("fig2", fig2_table),
    ("fig3", fig3_table),
    ("fig4", fig4_table),
    ("fig5", fig5_table),
    ("fig6", fig6_table),
    ("fig7", fig7_table),
    ("fig8", fig8_table),
    ("ablation", ablation),
    ("colocation", colocation),
    ("placement", placement),
    ("failure", failure),
];

fn main() {
    // `cargo bench` appends `--bench` to a `harness = false` target's arguments.
    let names: Vec<String> = std::env::args().skip(1).filter(|arg| arg != "--bench").collect();
    let mut chosen = Vec::new();
    for name in &names {
        match TABLES.iter().find(|(known, _)| known == name) {
            Some(&(_, table)) => chosen.push(table),
            None => {
                let valid: Vec<&str> = TABLES.iter().map(|(known, _)| *known).collect();
                eprintln!("unknown table {name:?}; valid names: {}", valid.join(" "));
                std::process::exit(2);
            }
        }
    }
    if names.is_empty() {
        chosen = TABLES.iter().map(|&(_, table)| table).collect();
    }
    for table in chosen {
        table();
    }
}

fn table1() {
    let rows: Vec<Vec<String>> = taxonomy::table1()
        .into_iter()
        .map(|r| {
            vec![
                r.class.name().to_string(),
                r.count.to_string(),
                r.description.to_string(),
                r.examples.to_string(),
                if r.benefits_from_learning { "Yes" } else { "No" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1: taxonomy of production agents",
        &["Class", "Count", "Description", "Examples", "Benefit?"],
        &rows,
    );
    println!(
        "\nTotal agents: {}   Fraction that can benefit from learning: {}",
        taxonomy::total_agents(),
        pct(taxonomy::learning_benefit_fraction())
    );
}

fn table2() {
    let rows: Vec<Vec<String>> = taxonomy::table2()
        .into_iter()
        .map(|r| {
            vec![
                r.agent.to_string(),
                r.goal.to_string(),
                r.action.to_string(),
                r.frequency.to_string(),
                r.inputs.to_string(),
                r.model.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 2: examples of on-node learning resource control agents",
        &["Agent", "Goal", "Action", "Frequency", "Inputs", "Model"],
        &rows,
    );
}

fn fig1_table() {
    let rows: Vec<Vec<String>> = fig1(SimDuration::from_secs(300))
        .into_iter()
        .map(|r| vec![r.workload, r.policy, fmt(r.normalized_performance), fmt(r.normalized_power)])
        .collect();
    print_table(
        "Figure 1: SmartOverclock vs static overclocking (normalized to static 1.5 GHz)",
        &["Workload", "Policy", "Norm. performance", "Norm. power"],
        &rows,
    );
}

fn fig2_table() {
    let rows: Vec<Vec<String>> = fig2(SimDuration::from_secs(300), &[0.0, 0.05, 0.10, 0.20])
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

fn fig3_table() {
    let rows: Vec<Vec<String>> = fig3(SimDuration::from_secs(300))
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

fn fig4_table() {
    let rows: Vec<Vec<String>> = fig4(SimDuration::from_secs(280))
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

fn fig5_table() {
    let rows: Vec<Vec<String>> = fig5(SimDuration::from_secs(900))
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

fn fig6_table() {
    let rows: Vec<Vec<String>> = fig6(SimDuration::from_secs(120))
        .into_iter()
        .map(|r| {
            vec![
                r.scenario,
                r.workload,
                r.variant,
                fmt(r.normalized_mean_latency),
                fmt(r.normalized_p99_latency),
                pct(r.starvation_fraction),
                format!("{:.0}", r.harvested_core_seconds),
            ]
        })
        .collect();
    print_table(
        "Figure 6: SmartHarvest safeguards (latency relative to a no-harvesting baseline)",
        &[
            "Scenario",
            "Workload",
            "Variant",
            "Norm. mean latency",
            "Norm. P99 latency",
            "Starved time",
            "Harvested core-s",
        ],
        &rows,
    );
}

fn fig7_table() {
    let rows: Vec<Vec<String>> = fig7(SimDuration::from_secs(600))
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

fn fig8_table() {
    let rows: Vec<Vec<String>> = fig8(SimDuration::from_secs(1000))
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

/// Ablation of SmartOverclock's exploration rate on ObjectStore. The
/// Actuator safeguard's α threshold is not swept: the simulated α is ≈0 when
/// idle and ≥0.9 when busy, so every threshold from 0.005 to 0.6 trips alike.
fn ablation() {
    let rows: Vec<Vec<String>> = [0.0, 0.05, 0.1, 0.25]
        .into_iter()
        .map(|exploration| {
            let config = OverclockConfig { exploration, ..Default::default() };
            let (outcome, _) = run_smart_overclock(
                OverclockWorkloadKind::ObjectStore,
                config,
                SimDuration::from_secs(200),
            );
            vec![
                format!("exploration = {exploration}"),
                fmt(outcome.performance),
                fmt(outcome.power_watts),
            ]
        })
        .collect();
    print_table(
        "Ablation: SmartOverclock design parameters",
        &["Configuration", "Performance score", "Average power (W)"],
        &rows,
    );
}

/// Beyond the paper: SmartOverclock and SmartHarvest solo, co-located on
/// separate and on a shared frequency domain, with a targeted Model-thread
/// delay, and the full three-agent population (SmartMemory joins via the
/// frequency→memory-bandwidth coupling).
fn colocation() {
    let opt = |v: Option<f64>| v.map(fmt).unwrap_or_else(|| "-".into());
    let rows: Vec<Vec<String>> = interference_table(SimDuration::from_secs(120))
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

/// Beyond the paper: a placeable co-location fleet driven by the
/// harvest-aware `GreedyPacker` over seeded VM arrival traces of rising
/// intensity, with the zero-arrivals row as the churn-free baseline. The
/// safety columns show how the on-node learners hold up while the platform
/// admits, drains, and migrates VMs under them.
fn placement() {
    let horizon = SimDuration::from_secs(60);
    let nodes = 8;
    let arrival_counts = [0, nodes, nodes * 4, nodes * 8];
    let rows: Vec<Vec<String>> = churn_sweep(nodes, 4, horizon, &arrival_counts)
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

/// Beyond the paper: the placeable co-location fleet under the `GreedyPacker`
/// while a seeded `FaultPlan` crashes, joins, and drains servers mid-run. One
/// row per crash count (each crash matched by a join, plus one drain).
fn failure() {
    let nodes = 8;
    let arrivals = nodes * 4;
    let rows: Vec<Vec<String>> =
        failure_sweep(nodes, 4, arrivals, SimDuration::from_secs(60), &[0, 1, 2, 4])
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
        ],
        &rows,
    );
}
