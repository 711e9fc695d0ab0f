//! Experiments reproducing Figures 7 and 8 (the SmartMemory evaluation,
//! paper §6.4).

use sol_agents::memory::{memory_blueprint, MemoryConfig, SCAN_INTERVALS};
use sol_core::prelude::*;
use sol_node_sim::memory_node::{MemoryNode, MemoryNodeConfig, MemoryWorkloadKind};
use sol_node_sim::shared::Shared;

/// Number of 2 MB batches managed in the experiments.
const BATCHES: usize = 256;

fn make_node(kind: MemoryWorkloadKind) -> Shared<MemoryNode> {
    Shared::new(MemoryNode::new(
        kind,
        MemoryNodeConfig { batches: BATCHES, accesses_per_sec: 40_000.0, ..Default::default() },
    ))
}

/// Outcome of one memory-management policy run.
#[derive(Debug, Clone)]
pub struct MemoryOutcome {
    /// Workload name.
    pub workload: String,
    /// Policy name ("SmartMemory", "static 300 ms", "static 9.6 s").
    pub policy: String,
    /// Total access-bit resets (TLB flushes) caused by scanning.
    pub access_bit_resets: u64,
    /// Fraction of batches left in first-tier DRAM at the end of the run
    /// (1 − this is the local-memory-size reduction of Figure 7, middle).
    pub local_fraction: f64,
    /// Fraction of active seconds in which at least 80% of accesses were
    /// local (Figure 7, bottom / Figure 8).
    pub slo_attainment: f64,
}

/// Runs a static-scanning baseline: every batch is scanned at `interval`,
/// hot/warm classification targets 80% of observed activity, placement is
/// re-applied every 38.4 s, and there are no safeguards.
pub fn run_static_scanning(
    kind: MemoryWorkloadKind,
    interval: SimDuration,
    horizon: SimDuration,
) -> MemoryOutcome {
    let node = make_node(kind);
    let epoch = SimDuration::from_millis(38_400);
    let mut now = Timestamp::ZERO;
    let mut next_scan = Timestamp::ZERO;
    let mut next_plan = Timestamp::ZERO + epoch;
    let mut pages_per_batch = vec![0.0f64; BATCHES];
    let mut scans_per_batch = vec![0u32; BATCHES];
    let end = Timestamp::ZERO + horizon;
    while now < end {
        let next_event = next_scan.min(next_plan).min(end);
        node.with(|n| n.advance_to(next_event));
        now = next_event;
        if now >= next_scan {
            node.with(|n| {
                for b in 0..n.batch_count() {
                    if let Ok(scan) = n.scan_batch(b) {
                        pages_per_batch[b] += f64::from(scan.pages_set);
                        scans_per_batch[b] += 1;
                    }
                }
            });
            next_scan += interval;
        }
        if now >= next_plan {
            // Classify: hottest batches covering 80% of observed page
            // activity stay local, the rest go remote.
            let mut order: Vec<usize> = (0..BATCHES).collect();
            order.sort_by(|&a, &b| {
                pages_per_batch[b].partial_cmp(&pages_per_batch[a]).expect("no NaN")
            });
            let total: f64 = pages_per_batch.iter().sum();
            let mut covered = 0.0;
            node.with(|n| {
                for &idx in &order {
                    if total > 0.0 && covered / total < 0.8 {
                        n.migrate_to_local(idx);
                        covered += pages_per_batch[idx];
                    } else {
                        n.migrate_to_remote(idx);
                    }
                }
            });
            pages_per_batch.iter_mut().for_each(|p| *p = 0.0);
            scans_per_batch.iter_mut().for_each(|s| *s = 0);
            next_plan += epoch;
        }
    }
    let (resets, local, slo) = node.with(|n| {
        (
            n.access_bit_resets(),
            n.local_batch_count() as f64 / n.batch_count() as f64,
            n.slo_attainment(0.8),
        )
    });
    MemoryOutcome {
        workload: kind.name().to_string(),
        policy: format!("static {}", if interval.as_millis() <= 300 { "300 ms" } else { "9.6 s" }),
        access_bit_resets: resets,
        local_fraction: local,
        slo_attainment: slo,
    }
}

/// Runs the SmartMemory agent and reports the same metrics.
pub fn run_smart_memory(
    kind: MemoryWorkloadKind,
    config: MemoryConfig,
    horizon: SimDuration,
) -> (MemoryOutcome, AgentStats, Shared<MemoryNode>) {
    let node = make_node(kind);
    let mut builder = NodeRuntime::builder(node.clone());
    let agent = builder.register(memory_blueprint(&node, config));
    let report = builder.build().run_for(horizon).expect("non-empty horizon");
    let (resets, local, slo) = node.with(|n| {
        (
            n.access_bit_resets(),
            n.local_batch_count() as f64 / n.batch_count() as f64,
            n.slo_attainment(0.8),
        )
    });
    (
        MemoryOutcome {
            workload: kind.name().to_string(),
            policy: "SmartMemory".to_string(),
            access_bit_resets: resets,
            local_fraction: local,
            slo_attainment: slo,
        },
        report.agent(agent).stats().clone(),
        node,
    )
}

/// One row of Figure 7, comparing SmartMemory against static scanning.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Reduction in access-bit resets relative to the 300 ms static policy
    /// (positive means fewer resets).
    pub reset_reduction_pct: f64,
    /// Reduction in first-tier (local) memory size.
    pub local_size_reduction_pct: f64,
    /// SLO attainment (fraction of active seconds with ≥80% local accesses).
    pub slo_attainment: f64,
}

/// Figure 7: SmartMemory versus always scanning at the fastest (300 ms) and
/// slowest (9.6 s) frequencies, on ObjectStore, SQL, and SpecJBB.
pub fn fig7(horizon: SimDuration) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for kind in MemoryWorkloadKind::FIG7 {
        let fastest = run_static_scanning(kind, SCAN_INTERVALS[0], horizon);
        let slowest =
            run_static_scanning(kind, *SCAN_INTERVALS.last().expect("non-empty"), horizon);
        let (smart, _, _) = run_smart_memory(kind, MemoryConfig::default(), horizon);
        for outcome in [&fastest, &slowest, &smart] {
            rows.push(Fig7Row {
                workload: outcome.workload.clone(),
                policy: outcome.policy.clone(),
                reset_reduction_pct: (1.0
                    - outcome.access_bit_resets as f64 / fastest.access_bit_resets.max(1) as f64)
                    * 100.0,
                local_size_reduction_pct: (1.0 - outcome.local_fraction) * 100.0,
                slo_attainment: outcome.slo_attainment,
            });
        }
    }
    rows
}

/// One row of Figure 8: safeguard ablation on the oscillating SpecJBB
/// workload.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Safeguard configuration name.
    pub safeguards: String,
    /// SLO attainment over the run.
    pub slo_attainment: f64,
    /// Mean remote-access fraction over active seconds.
    pub mean_remote_fraction: f64,
    /// Number of Actuator mitigations performed.
    pub mitigations: u64,
    /// Number of predictions intercepted by the Model safeguard.
    pub intercepted_predictions: u64,
}

/// Figure 8: Model and Actuator safeguards on a workload that oscillates
/// between 150 s of SpecJBB activity and 80 s of sleep, shifting its hot set
/// on every activation.
pub fn fig8(horizon: SimDuration) -> Vec<Fig8Row> {
    let configs = [
        ("no safeguards", MemoryConfig::without_safeguards()),
        ("actuator safeguard only", MemoryConfig::actuator_safeguard_only()),
        ("all safeguards", MemoryConfig::default()),
    ];
    let mut rows = Vec::new();
    for (name, config) in configs {
        let (outcome, stats, node) =
            run_smart_memory(MemoryWorkloadKind::OscillatingSpecJbb, config, horizon);
        let mean_remote = node.with(|n| {
            let active: Vec<f64> = n
                .remote_fraction_series()
                .iter()
                .filter(|s| s.active)
                .map(|s| s.remote_fraction)
                .collect();
            if active.is_empty() {
                0.0
            } else {
                active.iter().sum::<f64>() / active.len() as f64
            }
        });
        rows.push(Fig8Row {
            safeguards: name.to_string(),
            slo_attainment: outcome.slo_attainment,
            mean_remote_fraction: mean_remote,
            mitigations: stats.actuator.mitigations,
            intercepted_predictions: stats.model.intercepted_predictions,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_smart_memory_scans_less_and_offloads_memory() {
        let rows = fig7(SimDuration::from_secs(400));
        for kind in MemoryWorkloadKind::FIG7 {
            let smart = rows
                .iter()
                .find(|r| r.workload == kind.name() && r.policy == "SmartMemory")
                .unwrap();
            assert!(
                smart.reset_reduction_pct > 0.0,
                "{}: SmartMemory should reset fewer bits than 300 ms scanning",
                kind.name()
            );
            assert!(smart.slo_attainment > 0.7, "{}: SLO too low", kind.name());
        }
        // Steady workloads offload a sizable fraction of memory (SQL shifts
        // its hot set mid-run and may end in the conservative fallback).
        for kind in [MemoryWorkloadKind::ObjectStore, MemoryWorkloadKind::SpecJbb] {
            let smart = rows
                .iter()
                .find(|r| r.workload == kind.name() && r.policy == "SmartMemory")
                .unwrap();
            assert!(
                smart.local_size_reduction_pct > 10.0,
                "{}: local size reduction {}",
                kind.name(),
                smart.local_size_reduction_pct
            );
        }
        // Three workloads x three policies.
        assert_eq!(rows.len(), 9);
        // The slowest static policy saves the most scanning but resolves the
        // hot set worst: it always offloads less memory than fast scanning.
        for kind in MemoryWorkloadKind::FIG7 {
            let slow = rows
                .iter()
                .find(|r| r.workload == kind.name() && r.policy == "static 9.6 s")
                .unwrap();
            let fast = rows
                .iter()
                .find(|r| r.workload == kind.name() && r.policy == "static 300 ms")
                .unwrap();
            assert!(slow.reset_reduction_pct > 50.0);
            assert!(slow.local_size_reduction_pct < fast.local_size_reduction_pct);
        }
    }

    #[test]
    fn fig8_all_safeguards_attain_more_of_the_slo() {
        let rows = fig8(SimDuration::from_secs(500));
        let none = rows.iter().find(|r| r.safeguards == "no safeguards").unwrap();
        let all = rows.iter().find(|r| r.safeguards == "all safeguards").unwrap();
        assert!(
            all.slo_attainment >= none.slo_attainment,
            "all safeguards {} vs none {}",
            all.slo_attainment,
            none.slo_attainment
        );
        assert!(all.mitigations + all.intercepted_predictions > 0);
    }
}
