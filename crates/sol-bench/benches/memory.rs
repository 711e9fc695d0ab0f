//! Per-node memory budget: what one simulated server costs to keep resident,
//! measured at fleet scale over a quick horizon.
//!
//! Wall-clock cells need a long horizon to rise above measurement noise, but
//! the memory footprint is a pure function of the trajectory and saturates
//! within a few virtual seconds (the latency windows fill, the runtime's
//! scratch buffers reach steady state) — so this bench runs a short horizon and
//! large fleets, where the full scaling table would be prohibitively slow.
//!
//! The rows are merged into the committed `BENCH_fleet.json` artifact under
//! `memory_*` keys. The keys deliberately do not collide with the fleet
//! scaling rows' `nodes`/`threads` cells, so the wall-time trajectory diff
//! (`compare_fleet_rows`) skips them by construction — a quick-horizon wall
//! number must never be compared against a full-horizon baseline.
//!
//! Quick-mode knobs:
//! * `SOL_MEMORY_HORIZON_SECS` — virtual horizon per run (default 5).
//! * `SOL_MEMORY_MAX_NODES` — drop fleet sizes above this bound (default
//!   1024, CI's quick tier; the nightly/manual tier raises it to 65536 to
//!   pin the memory ceiling's top cell).

use sol_bench::fleet_experiments::fleet_scaling_row;
use sol_bench::report::{env_u64, fmt, json_rows, print_table};
use sol_bench::trajectory::merge_artifact_rows;
use sol_core::time::SimDuration;

const SCHEMA_VERSION: f64 = 3.0;
const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

fn main() {
    let horizon = SimDuration::from_secs(env_u64("SOL_MEMORY_HORIZON_SECS", 5));
    let max_nodes = env_u64("SOL_MEMORY_MAX_NODES", 1024) as usize;
    let node_counts: Vec<usize> =
        [1024usize, 65536].into_iter().filter(|&n| n <= max_nodes).collect();

    let mut json: Vec<Vec<(&str, f64)>> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    for &nodes in &node_counts {
        // Memory is thread-count independent (the footprint is per node);
        // 4 workers just finishes the big fleets sooner.
        let row = fleet_scaling_row(nodes, 4, horizon);
        json.push(vec![
            ("schema_version", SCHEMA_VERSION),
            ("memory_nodes", nodes as f64),
            ("memory_horizon_secs", horizon.as_secs_f64()),
            ("mem_bytes_per_node", row.mem_bytes_per_node as f64),
        ]);
        table.push(vec![
            nodes.to_string(),
            fmt(row.mem_bytes_per_node as f64 / 1024.0),
            fmt(nodes as f64 * row.mem_bytes_per_node as f64 / (1024.0 * 1024.0)),
            fmt(row.wall_ms_per_virtual_minute),
        ]);
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
        &["Nodes", "Peak KiB/node", "Fleet MiB (sim state)", "Wall ms/virt-min"],
        &table,
    );
}
