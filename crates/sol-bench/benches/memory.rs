//! Per-node memory budget: what one simulated server costs to keep resident,
//! measured at fleet scale over a quick horizon.
//!
//! Wall-clock cells need a long horizon to rise above measurement noise, but
//! the memory footprint is a pure function of the trajectory and saturates
//! early — the two-agent node's within a few virtual seconds (the run-length
//! windows are reserved at their first sample, the CPU workload's
//! 4096-sample window fills in 4.1 s), the three-agent node's once the memory
//! substrate's 30 s recent window is full — so this bench runs short
//! horizons and large fleets, where the full scaling table would be
//! prohibitively slow.
//!
//! The rows are merged into the committed `BENCH_fleet.json` artifact under
//! `memory_*` keys, one per (`memory_agents`, `memory_nodes`) cell. The keys
//! deliberately do not collide with the fleet scaling rows' `nodes`/`threads`
//! cells, so the wall-time trajectory diff (`compare_fleet_rows`) skips them
//! by construction — a quick-horizon wall number must never be compared
//! against a full-horizon baseline.
//!
//! Quick-mode knobs:
//! * `SOL_MEMORY_HORIZON_SECS` — virtual horizon per run (default 5); a
//!   preset whose histories take longer to fill runs for that long instead.
//! * `SOL_MEMORY_MAX_NODES` — drop fleet sizes above this bound (default
//!   1024, CI's quick tier; the nightly/manual tier raises it to 65536 to
//!   pin the memory ceiling's top cells: 65536 two-agent nodes, 32768
//!   three-agent ones).

use std::time::Instant;

use sol_agents::colocation::{
    colocated_recipe, three_agents_recipe, ColocationConfig, ThreeAgentConfig,
};
use sol_bench::report::{env_u64, fmt, json_rows, print_table};
use sol_bench::trajectory::merge_artifact_rows;
use sol_core::prelude::*;
use sol_node_sim::multi_node::MultiNode;

const SCHEMA_VERSION: f64 = 3.0;
const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

/// Runs `nodes` stamps of `recipe` for `horizon` and returns the fleet's
/// `mem_bytes_per_node` and its wall milliseconds per virtual minute.
fn memory_row(
    recipe: ScenarioRecipe<MultiNode>,
    nodes: usize,
    horizon: SimDuration,
) -> (usize, f64) {
    // Memory is thread-count independent (the footprint is per node);
    // 4 workers just finishes the big fleets sooner.
    let config = FleetConfig { nodes, threads: 4, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(recipe, config).expect("valid fleet config");
    let start = Instant::now();
    let report = fleet.run(horizon).expect("fleet run succeeds");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (report.mem_bytes_per_node, wall_ms / (horizon.as_secs_f64() / 60.0))
}

fn main() {
    let horizon = SimDuration::from_secs(env_u64("SOL_MEMORY_HORIZON_SECS", 5));
    let max_nodes = env_u64("SOL_MEMORY_MAX_NODES", 1024) as usize;
    let three = ThreeAgentConfig::default();
    // Agents per node, the recipe, the push-tier and ceiling fleet sizes, and
    // how long the node's histories take to fill.
    let presets = [
        (
            2.0,
            colocated_recipe(ColocationConfig::default()).recipe,
            [1024usize, 65536],
            SimDuration::from_secs(5),
        ),
        (
            3.0,
            three_agents_recipe(three.clone()).recipe,
            [1024, 32768],
            three.memory_node.recent_window + SimDuration::from_secs(1),
        ),
    ];

    let mut json: Vec<Vec<(&str, f64)>> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    for (agents, recipe, sizes, fills_after) in presets {
        let horizon = horizon.max(fills_after);
        for nodes in sizes.into_iter().filter(|&n| n <= max_nodes) {
            let (mem_bytes_per_node, wall_ms_per_virtual_minute) =
                memory_row(recipe.clone(), nodes, horizon);
            json.push(vec![
                ("schema_version", SCHEMA_VERSION),
                ("memory_nodes", nodes as f64),
                ("memory_agents", agents),
                ("memory_horizon_secs", horizon.as_secs_f64()),
                ("mem_bytes_per_node", mem_bytes_per_node as f64),
            ]);
            table.push(vec![
                format!("{agents}"),
                nodes.to_string(),
                fmt(mem_bytes_per_node as f64 / 1024.0),
                fmt(nodes as f64 * mem_bytes_per_node as f64 / (1024.0 * 1024.0)),
                fmt(wall_ms_per_virtual_minute),
            ]);
        }
    }

    let existing = std::fs::read_to_string(ARTIFACT).unwrap_or_else(|_| "[\n]\n".to_string());
    match merge_artifact_rows(&existing, &json_rows(&json), "memory_nodes")
        .and_then(|merged| std::fs::write(ARTIFACT, merged).map_err(|e| e.to_string()))
    {
        Ok(()) => eprintln!("merged {} memory rows into {ARTIFACT}", json.len()),
        Err(e) => eprintln!("could not update {ARTIFACT}: {e}"),
    }

    print_table(
        "Per-node memory budget (quick horizon)",
        &["Agents", "Nodes", "Peak KiB/node", "Fleet MiB (sim state)", "Wall ms/virt-min"],
        &table,
    );
}
