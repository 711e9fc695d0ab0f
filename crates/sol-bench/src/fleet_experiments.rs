//! Fleet-scale experiments: many recipe-stamped servers under one virtual
//! clock.
//!
//! Beyond the paper's single-node evaluation, SOL's deployment story is
//! fleet-wide. These experiments drive `FleetRuntime` over the co-location
//! recipes and measure two things at once:
//!
//! * **Scaling** — wall-clock cost per virtual minute as the fleet grows
//!   (1/8/64/256 nodes) and as worker threads are added, the
//!   `benches/fleet.rs` table.
//! * **Safety dashboards** — the fleet-level aggregates a platform operator
//!   would watch: safeguard-activation rates, SLO-violation counts, and
//!   per-role percentiles across heterogeneous (per-node seeded) servers.
//!
//! Fleet results are deterministic: the same `(recipe, config, horizon)`
//! produces a byte-identical `FleetReport` regardless of the thread count,
//! so the printed dashboards are reproducible run to run.

use std::time::Instant;

use sol_agents::colocation::{colocated_recipe, ColocationConfig};
use sol_core::prelude::*;

/// One row of the fleet scaling table: a fleet size × thread count
/// combination plus the dashboard readings of that run.
#[derive(Debug, Clone)]
pub struct FleetScalingRow {
    /// Number of simulated servers.
    pub nodes: usize,
    /// Worker threads the nodes were sharded across.
    pub threads: usize,
    /// Wall-clock milliseconds spent per virtual minute of fleet time.
    pub wall_ms_per_virtual_minute: f64,
    /// Wall-clock milliseconds per virtual minute *per node* (the per-server
    /// simulation cost; flat means linear scaling).
    pub wall_ms_per_node_minute: f64,
    /// Epoch-boundary synchronizations performed.
    pub epochs: u64,
    /// Total learning epochs completed by the SmartOverclock role.
    pub overclock_epochs: u64,
    /// Fraction of nodes on which a SmartHarvest safeguard activated.
    pub harvest_safeguard_rate: f64,
    /// Fleet-wide mean of the per-node p99 request latency (ms).
    pub mean_p99_latency_ms: f64,
    /// Worst per-node p99 request latency in the fleet (ms).
    pub max_p99_latency_ms: f64,
    /// Total core-seconds harvested across the fleet.
    pub total_harvested_core_seconds: f64,
    /// Largest per-node simulation-state footprint in the fleet, in bytes
    /// (see [`FleetReport::mem_bytes_per_node`]).
    pub mem_bytes_per_node: usize,
}

/// Runs a `nodes` × `threads` fleet of the default two-agent co-location
/// recipe for `horizon` and reports the scaling row.
pub fn fleet_scaling_row(nodes: usize, threads: usize, horizon: SimDuration) -> FleetScalingRow {
    let preset = colocated_recipe(ColocationConfig::default());
    let config = FleetConfig { nodes, threads, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).expect("valid fleet config");

    let start = Instant::now();
    let report = fleet.run(horizon).expect("fleet run succeeds");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let virtual_minutes = horizon.as_secs_f64() / 60.0;
    let overclock = report.role(preset.overclock);
    let harvest = report.role(preset.harvest);
    let p99 = report.metric("p99_latency_ms").expect("recipe reports p99 latency");
    let harvested =
        report.metric("harvested_core_seconds").expect("recipe reports harvested core-seconds");
    FleetScalingRow {
        nodes,
        threads,
        wall_ms_per_virtual_minute: wall_ms / virtual_minutes,
        wall_ms_per_node_minute: wall_ms / virtual_minutes / nodes as f64,
        epochs: report.epochs,
        overclock_epochs: overclock.totals.model.epochs_completed,
        harvest_safeguard_rate: harvest.safeguard_activation_rate,
        mean_p99_latency_ms: p99.mean,
        max_p99_latency_ms: p99.max,
        total_harvested_core_seconds: harvested.total,
        mem_bytes_per_node: report.mem_bytes_per_node,
    }
}

/// The full scaling table: every fleet size crossed with every thread count.
pub fn scaling_table(
    node_counts: &[usize],
    thread_counts: &[usize],
    horizon: SimDuration,
) -> Vec<FleetScalingRow> {
    let mut rows = Vec::new();
    for &nodes in node_counts {
        for &threads in thread_counts {
            rows.push(fleet_scaling_row(nodes, threads, horizon));
        }
    }
    rows
}

/// One row of the churn-under-failure sweep: a fault-plan intensity crossed
/// with the lifecycle, placement, and safety readings of the run — the
/// `paper` bench's `failure` table.
#[derive(Debug, Clone)]
pub struct FailureSweepRow {
    /// Crashes injected by the fault plan.
    pub crashes: usize,
    /// Joins injected by the fault plan.
    pub joins: usize,
    /// Drains injected by the fault plan.
    pub drains: usize,
    /// Final fleet size (initial nodes plus joins).
    pub fleet_size: usize,
    /// Nodes contributing to the role aggregates (everything non-crashed).
    pub surviving_nodes: usize,
    /// Workload units evicted by crashes.
    pub displaced: u64,
    /// Displaced units the packer successfully re-placed.
    pub replaced: u64,
    /// Placements that failed (including displaced units nobody re-placed).
    pub failed_placements: u64,
    /// Fraction of surviving nodes on which a SmartHarvest safeguard
    /// activated.
    pub harvest_safeguard_rate: f64,
    /// Mean p99 request latency across surviving nodes (ms).
    pub mean_p99_latency_ms: f64,
}

/// Runs a placeable co-location fleet under the `GreedyPacker` while a
/// seeded [`FaultPlan`] injects `faults`, and reports the sweep row. The
/// run is deterministic: the row is a pure function of the arguments.
pub fn failure_sweep_row(
    nodes: usize,
    threads: usize,
    arrivals: usize,
    faults: &FaultPlanConfig,
    fault_seed: u64,
    horizon: SimDuration,
) -> FailureSweepRow {
    use crate::placement_experiments::{churn_trace, PLACEABLE_CORES};

    let preset = colocated_recipe(ColocationConfig {
        placeable_cores: PLACEABLE_CORES,
        ..ColocationConfig::default()
    });
    let config = FleetConfig { nodes, threads, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).expect("valid fleet config");
    let mut packer = GreedyPacker::new(churn_trace(arrivals, horizon));
    let plan = FaultPlan::generate(fault_seed, nodes, faults);

    let report = fleet.run_with_faults(&mut packer, plan, horizon).expect("chaos run succeeds");
    let harvest = report.role(preset.harvest);
    let p99 = report.metric("p99_latency_ms").expect("recipe reports p99 latency");
    FailureSweepRow {
        crashes: faults.crashes,
        joins: faults.joins,
        drains: faults.drains,
        fleet_size: report.nodes.len(),
        surviving_nodes: harvest.nodes,
        displaced: report.placement.displaced,
        replaced: report.placement.replaced,
        failed_placements: report.placement.failed_placements,
        harvest_safeguard_rate: harvest.safeguard_activation_rate,
        mean_p99_latency_ms: p99.mean,
    }
}

/// The full churn-under-failure sweep: one row per crash count, each crash
/// matched by a like-for-like join (capacity is replaced, not shrunk) plus
/// one drain whenever faults are injected at all. Include 0 for the
/// fault-free baseline row.
pub fn failure_sweep(
    nodes: usize,
    threads: usize,
    arrivals: usize,
    horizon: SimDuration,
    crash_counts: &[usize],
) -> Vec<FailureSweepRow> {
    crash_counts
        .iter()
        .map(|&crashes| {
            let faults = FaultPlanConfig {
                crashes,
                joins: crashes,
                drains: usize::from(crashes > 0),
                span: horizon,
            };
            failure_sweep_row(nodes, threads, arrivals, &faults, 0xFA11, horizon)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_row_reports_the_dashboard() {
        let row = fleet_scaling_row(2, 2, SimDuration::from_secs(10));
        assert_eq!(row.nodes, 2);
        assert_eq!(row.threads, 2);
        assert_eq!(row.epochs, 10, "default 1 s fleet epoch over a 10 s horizon");
        assert!(row.overclock_epochs > 0, "both overclock agents must learn");
        assert!(row.wall_ms_per_virtual_minute > 0.0);
        assert!(row.mean_p99_latency_ms > 0.0);
        assert!(row.mean_p99_latency_ms <= row.max_p99_latency_ms);
        assert!(row.total_harvested_core_seconds > 0.0);
        assert!((0.0..=1.0).contains(&row.harvest_safeguard_rate));
        assert!(row.mem_bytes_per_node > 0, "footprint accounting must surface");
    }

    #[test]
    fn failure_sweep_reports_chaos_and_safety() {
        let rows = failure_sweep(4, 2, 16, SimDuration::from_secs(15), &[0, 1]);
        assert_eq!(rows.len(), 2);

        let calm = &rows[0];
        assert_eq!((calm.crashes, calm.joins, calm.drains), (0, 0, 0));
        assert_eq!(calm.fleet_size, 4);
        assert_eq!(calm.surviving_nodes, 4);
        assert_eq!(calm.displaced, 0);
        assert_eq!(calm.replaced, 0);

        let chaos = &rows[1];
        assert_eq!((chaos.crashes, chaos.joins, chaos.drains), (1, 1, 1));
        assert_eq!(chaos.fleet_size, 5, "the join must add a node");
        assert_eq!(chaos.surviving_nodes, 4, "the crash must be excluded from aggregates");
        assert!(chaos.mean_p99_latency_ms > 0.0);
        assert!((0.0..=1.0).contains(&chaos.harvest_safeguard_rate));
    }

    #[test]
    fn scaling_table_crosses_nodes_and_threads() {
        let rows = scaling_table(&[1, 2], &[1, 2], SimDuration::from_secs(5));
        assert_eq!(rows.len(), 4);
        let combos: Vec<(usize, usize)> = rows.iter().map(|r| (r.nodes, r.threads)).collect();
        assert_eq!(combos, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
        // The fleet outcome is thread-count independent; only wall-clock may
        // differ between the two 2-node rows.
        assert_eq!(rows[2].overclock_epochs, rows[3].overclock_epochs);
        assert_eq!(rows[2].mean_p99_latency_ms, rows[3].mean_p99_latency_ms);
        assert_eq!(rows[2].total_harvested_core_seconds, rows[3].total_harvested_core_seconds);
    }
}
