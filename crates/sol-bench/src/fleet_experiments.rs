//! Fleet-scale experiments: many recipe-stamped servers under one virtual
//! clock, read as the safety dashboard a platform operator would watch
//! while a fault plan churns the fleet — the `paper` bench's `failure` table.
//!
//! The rows are pure functions of their arguments: the same `(recipe,
//! config, horizon)` produces a byte-identical `FleetReport` whatever the
//! thread count. What a fleet run *costs* is measured outside the product,
//! by the `benchmark/` crate (`benchmark/run.sh`).

use sol_agents::colocation::{colocated_recipe, ColocationConfig};
use sol_core::prelude::*;

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
}
