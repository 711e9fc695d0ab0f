//! Placement experiments: a placeable fleet under protean-style VM churn.
//!
//! Beyond the paper's static single-node evaluation, these experiments drive
//! [`FleetRuntime::run_with`] with the shipped `GreedyPacker` over seeded
//! `ArrivalTrace`s of VM arrivals and departures, and measure two things at
//! once:
//!
//! * **Placement behaviour** — admissions, departures, rebalancing
//!   migrations, failed placements, per-node occupancy percentiles, and
//!   packing efficiency, the `paper` bench's `placement` table.
//! * **Safety under churn** — the on-node learners' safeguard-activation
//!   rates and the primary VMs' tail latency as the platform reshuffles work
//!   under them, compared against the churn-free `NullController` baseline
//!   (the zero-arrivals row).
//!
//! Placement runs are deterministic: the same `(recipe, config, trace,
//! horizon)` produces a byte-identical `FleetReport` regardless of the
//! worker-thread count, so the printed tables are reproducible run to run.

use sol_agents::colocation::{colocated_recipe, ColocationConfig};
use sol_core::prelude::*;

/// Placeable VM slots per node used by the placement experiments: 6 of the
/// node's 8 cores may host migrated-in VMs, contending with the ObjectStore
/// primary for physical cores.
pub const PLACEABLE_CORES: f64 = 6.0;

/// Fixed fleet seed of the placement experiments (results stay comparable
/// across churn levels).
pub const PLACEMENT_FLEET_SEED: u64 = 0x50_1ace;

/// One row of the churn-sweep table: a fleet under one arrival-trace
/// intensity.
#[derive(Debug, Clone)]
pub struct PlacementRow {
    /// VM arrivals in the trace (0 = the churn-free baseline).
    pub arrivals: usize,
    /// Number of simulated servers.
    pub nodes: usize,
    /// Commands the controller issued across all epoch boundaries.
    pub commands: u64,
    /// Successful admissions.
    pub admitted: u64,
    /// Successful departures.
    pub departed: u64,
    /// Successful migrations.
    pub migrated: u64,
    /// Commands that failed against a node (capacity, unknown unit, ...).
    pub failed_placements: u64,
    /// Mean over barriers of fleet-wide resident cores / placeable cores.
    pub packing_efficiency: f64,
    /// Median per-node mean occupancy.
    pub occupancy_p50: f64,
    /// Worst per-node mean occupancy.
    pub occupancy_max: f64,
    /// Fraction of nodes on which a SmartOverclock safeguard activated.
    pub overclock_safeguard_rate: f64,
    /// Fraction of nodes on which a SmartHarvest safeguard activated.
    pub harvest_safeguard_rate: f64,
    /// Fleet-wide mean of the per-node p99 request latency (ms).
    pub mean_p99_latency_ms: f64,
}

/// The arrival trace used for `arrivals` VMs over `horizon` (sized so VMs
/// live a few epochs and churn persists through the run).
pub fn churn_trace(arrivals: usize, horizon: SimDuration) -> ArrivalTrace {
    ArrivalTrace::generate(
        PLACEMENT_FLEET_SEED,
        &ArrivalTraceConfig {
            workloads: arrivals,
            span: horizon,
            min_cores: 0.5,
            max_cores: 2.5,
            min_lifetime: SimDuration::from_secs(horizon.as_secs_f64() as u64 / 6 + 1),
            max_lifetime: SimDuration::from_secs(horizon.as_secs_f64() as u64 / 2 + 2),
        },
    )
}

/// Runs a `nodes`-server placeable fleet under a `GreedyPacker` driven by an
/// `arrivals`-VM trace and reports the churn row.
pub fn placement_row(
    nodes: usize,
    threads: usize,
    arrivals: usize,
    horizon: SimDuration,
) -> PlacementRow {
    let preset = colocated_recipe(ColocationConfig {
        placeable_cores: PLACEABLE_CORES,
        ..ColocationConfig::default()
    });
    let config =
        FleetConfig { nodes, threads, seed: PLACEMENT_FLEET_SEED, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).expect("valid fleet config");
    let mut packer = GreedyPacker::new(churn_trace(arrivals, horizon));
    let report = fleet.run_with(&mut packer, horizon).expect("placement run succeeds");

    let overclock = report.role(preset.overclock);
    let harvest = report.role(preset.harvest);
    let p99 = report.metric("p99_latency_ms").expect("recipe reports p99 latency");
    PlacementRow {
        arrivals,
        nodes,
        commands: report.placement.commands,
        admitted: report.placement.admitted,
        departed: report.placement.departed,
        migrated: report.placement.migrated,
        failed_placements: report.placement.failed_placements,
        packing_efficiency: report.placement.packing_efficiency,
        occupancy_p50: report.placement.occupancy.p50,
        occupancy_max: report.placement.occupancy.max,
        overclock_safeguard_rate: overclock.safeguard_activation_rate,
        harvest_safeguard_rate: harvest.safeguard_activation_rate,
        mean_p99_latency_ms: p99.mean,
    }
}

/// The full churn sweep: one row per arrival count (include 0 for the
/// churn-free baseline).
pub fn churn_sweep(
    nodes: usize,
    threads: usize,
    horizon: SimDuration,
    arrival_counts: &[usize],
) -> Vec<PlacementRow> {
    arrival_counts
        .iter()
        .map(|&arrivals| placement_row(nodes, threads, arrivals, horizon))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_row_reports_placement_and_safety() {
        let row = placement_row(3, 2, 12, SimDuration::from_secs(15));
        assert_eq!(row.nodes, 3);
        assert_eq!(row.arrivals, 12);
        assert!(row.commands > 0, "a churning trace must produce commands");
        assert!(row.admitted > 0, "some VMs must be admitted");
        assert!(row.packing_efficiency > 0.0);
        assert!(row.occupancy_p50 <= row.occupancy_max);
        assert!((0.0..=1.0).contains(&row.overclock_safeguard_rate));
        assert!((0.0..=1.0).contains(&row.harvest_safeguard_rate));
        assert!(row.mean_p99_latency_ms > 0.0);
    }

    #[test]
    fn zero_churn_row_is_a_null_baseline() {
        let row = placement_row(2, 2, 0, SimDuration::from_secs(10));
        assert_eq!(row.commands, 0);
        assert_eq!(row.admitted, 0);
        assert_eq!(row.migrated, 0);
        assert_eq!(row.failed_placements, 0);
        assert_eq!(row.packing_efficiency, 0.0);
    }
}
