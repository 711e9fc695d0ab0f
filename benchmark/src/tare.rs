//! The instrument's tare: what the spans record and cost where every
//! wrapped call is a no-op, taken through the real call path.
//!
//! A span is two clock reads around a call. Timing empty spans in a tight
//! loop gets the clock's cost right to a few nanoseconds, and a few
//! nanoseconds times the 13 000 spans a `many-agents` node records per
//! virtual second is a tenth of its tick. So the tare is taken in situ:
//!
//! * what an empty span **records**, per span name, from a small fleet of
//!   no-op nodes run the way the workloads run — nodes interleaved epoch by
//!   epoch on a worker thread, caches as cold as theirs;
//! * what a span **costs its batch**, from one no-op node run alone twice,
//!   with probes and without: the only place a node's untraced batch time
//!   can be read from outside.

use std::sync::Arc;
use std::time::Instant;

use sol_core::prelude::*;

use crate::recipes::many_agents_recipe;
use crate::trace::{Calibration, TraceSink};
use crate::workloads::sampled_nodes;

const HORIZON: SimDuration = SimDuration::from_secs(5);
const FLEET_NODES: usize = 64;

/// Takes the tare. A tenth of a second, a million spans: an average, not a
/// best-of — the repetition it corrects runs in the same weather and its
/// spans are averaged too.
pub fn tare() -> Calibration {
    Calibration { recorded_ns: fleet_recorded(), cost_ns: node_cost() }
}

fn fleet_recorded() -> [f64; 7] {
    let sink = TraceSink::new(sampled_nodes(FLEET_NODES));
    let config = FleetConfig { nodes: FLEET_NODES, threads: 1, seed: 0, ..FleetConfig::default() };
    FleetRuntime::new(many_agents_recipe(HORIZON, Some(Arc::clone(&sink))), config)
        .and_then(|fleet| fleet.run(HORIZON))
        .expect("a no-op fleet runs");
    Calibration::recorded_per_call(&sink.tick_totals())
}

fn node_cost() -> f64 {
    let batch_ns = |sink: Option<Arc<TraceSink>>| {
        let mut node = many_agents_recipe(HORIZON, sink).instantiate(&NodeSeed::derive(0, 0));
        let start = Instant::now();
        node.run_until(Timestamp::ZERO + HORIZON);
        // The node, and with it every probe, is dropped on return: the
        // accumulators are in the sink before anyone reads it.
        start.elapsed().as_nanos() as f64
    };
    let sink = TraceSink::new(vec![0]);
    batch_ns(Some(Arc::clone(&sink)));
    Calibration::cost_per_span(&sink.tick_totals(), batch_ns(None))
}
