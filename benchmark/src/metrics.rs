//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and — for the end-to-end ones — the bound by which it may worsen
//! before a change counts as a regression. `BENCHMARK.json` repeats these
//! tables; a self-test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Seconds of absolute slack on `setup_s`: set-up is milliseconds today, so
/// `--compare` calls it regressed only when it is worse by more than its
/// bound *and* by more than this.
pub const SETUP_FLOOR_S: f64 = 0.005;

/// The end-to-end metrics, measured with tracing off, per workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "wall_ms_per_node_minute", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_node_minute", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "mem_bytes_per_node", unit: "B", better: Better::Lower, bound: 0.01 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// The per-layer metrics of the traced run: name, unit, direction. None is
/// gated. A metric that has no meaning on a workload (a plane it does not
/// arm, an agent it does not host) reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 61] = [
    // sol-core::runtime::fleet
    ("fleet.epoch_wall_ms_p50", "ms", Better::Lower),
    ("fleet.epoch_wall_ms_p99", "ms", Better::Lower),
    ("fleet.coordination_frac", "ratio", Better::Lower),
    ("fleet.speedup_t2", "ratio", Better::Higher),
    ("fleet.cpu_over_wall", "ratio", Better::Lower),
    ("fleet.stamp_us_per_node", "us", Better::Lower),
    // ...::placement
    ("placement.plan_us_p50", "us", Better::Lower),
    ("placement.plan_us_p99", "us", Better::Lower),
    ("placement.commands", "count", Better::Lower),
    ("placement.failed_frac", "ratio", Better::Lower),
    ("placement.ms_per_epoch_ablate", "ms", Better::Lower),
    ("placement.delta_diff_apply_ns", "ns", Better::Lower),
    // ...::lifecycle
    ("lifecycle.events", "count", Better::Lower),
    ("lifecycle.transition_ns", "ns", Better::Lower),
    // ...::learning + sol-ml::exchange
    ("learning.rounds", "count", Better::Higher),
    ("learning.bytes_exchanged", "B", Better::Lower),
    ("learning.ms_per_round_ablate", "ms", Better::Lower),
    ("exchange.aggregate_us_mean", "us", Better::Lower),
    ("exchange.aggregate_us_median", "us", Better::Lower),
    ("exchange.aggregate_us_trimmed", "us", Better::Lower),
    // ...::trust
    ("trust.ms_per_round_ablate", "ms", Better::Lower),
    ("trust.detect_rounds_max", "count", Better::Lower),
    ("trust.false_positives", "count", Better::Lower),
    ("exchange.robust_z_us", "us", Better::Lower),
    // ...::wheel
    ("wheel.ns_per_event_near", "ns", Better::Lower),
    ("wheel.ns_per_event_far", "ns", Better::Lower),
    ("wheel.mem_bytes", "B", Better::Lower),
    // ...::node + loops
    ("node.ns_per_tick_noop", "ns", Better::Lower),
    ("node.ns_per_agent_step", "ns", Better::Lower),
    ("loops.model_step_ns", "ns", Better::Lower),
    ("loops.actuator_step_ns", "ns", Better::Lower),
    // in-situ tick split
    ("span.env_advance_frac", "ratio", Better::Lower),
    ("span.model_collect_frac", "ratio", Better::Lower),
    ("span.model_update_frac", "ratio", Better::Lower),
    ("span.model_predict_frac", "ratio", Better::Lower),
    ("span.model_other_frac", "ratio", Better::Lower),
    ("span.actuator_frac", "ratio", Better::Lower),
    ("span.runtime_self_frac", "ratio", Better::Lower),
    ("span.agent_overclock_frac", "ratio", Better::Lower),
    ("span.agent_harvest_frac", "ratio", Better::Lower),
    ("span.agent_memory_frac", "ratio", Better::Lower),
    ("count.ticks_per_node_s", "1/s", Better::Lower),
    ("count.model_collects_per_node_s", "1/s", Better::Lower),
    ("count.model_updates_per_node_s", "1/s", Better::Lower),
    ("count.actuator_calls_per_node_s", "1/s", Better::Lower),
    ("trace.span_cost_ns", "ns", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("trace.mirror_match", "count", Better::Higher),
    // sol-node-sim substrates
    ("cpu_node.advance_ns", "ns", Better::Lower),
    ("harvest_node.advance_ns", "ns", Better::Lower),
    ("memory_node.advance_ns", "ns", Better::Lower),
    ("multi_node.advance_ns_two", "ns", Better::Lower),
    ("multi_node.advance_ns_three", "ns", Better::Lower),
    // sol-node-sim::shared
    ("shared.with_ns_unscoped", "ns", Better::Lower),
    ("shared.with_ns_scoped", "ns", Better::Lower),
    // sol-ml
    ("ml.qlearning_step_ns", "ns", Better::Lower),
    ("ml.cost_sensitive_step_ns", "ns", Better::Lower),
    ("ml.thompson_step_ns", "ns", Better::Lower),
    ("ml.features_extract_ns", "ns", Better::Lower),
    ("ml.window_push_ns", "ns", Better::Lower),
    ("ml.window_quantile_us", "us", Better::Lower),
];
