//! Fleet scaling table: the default two-agent co-location recipe stamped out
//! across 1/8/64/256/1024/4096 simulated servers (65536 on demand), crossed
//! with worker-thread counts, reporting wall-clock per virtual minute (total
//! and per node) and the peak per-node memory footprint. The fleet outcome
//! columns are thread-count independent by construction — only the
//! wall-clock columns may vary between thread counts (and only show a
//! speedup when the host actually has spare cores).
//!
//! The machine-readable artifact is committed at the repo root as
//! `BENCH_fleet.json` (schema v3: one flat object per nodes × threads cell,
//! with total and per-node wall costs plus `mem_bytes_per_node`), so every
//! PR carries the perf trajectory in-history and CI can diff a branch
//! against its parent. This bench owns only the rows keyed `"nodes"`: it
//! merges into the artifact, leaving the memory bench's rows untouched.
//!
//! Quick-mode knobs (used by CI so the table cannot silently rot):
//! * `SOL_HORIZON_SECS` — virtual horizon per fleet run (default 60).
//! * `SOL_FLEET_MAX_NODES` — drop fleet sizes above this bound (default
//!   4096; CI's quick tier uses 1024, the nightly/manual tier raises it to
//!   65536 to exercise the top cell).

use sol_bench::fleet_experiments::scaling_table;
use sol_bench::report::{env_u64, fmt, horizon_secs, json_rows, print_table};
use sol_bench::trajectory::merge_artifact_rows;
use sol_core::time::SimDuration;

/// Version of the `BENCH_fleet.json` row layout; bump when adding, removing,
/// or re-interpreting fields so trajectory tooling can refuse mismatches
/// instead of misreading them. v3 added `mem_bytes_per_node`.
const SCHEMA_VERSION: f64 = 3.0;

/// The committed artifact lives at the repo root, not the crate root — the
/// bench is always run from a workspace checkout, so the manifest-relative
/// path is stable no matter the invoking directory.
const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

fn main() {
    let horizon = SimDuration::from_secs(horizon_secs(60));
    let max_nodes = env_u64("SOL_FLEET_MAX_NODES", 4096) as usize;
    let node_counts: Vec<usize> =
        [1usize, 8, 64, 256, 1024, 4096, 65536].into_iter().filter(|&n| n <= max_nodes).collect();
    let thread_counts = [1usize, 2, 4, 8];

    let table = scaling_table(&node_counts, &thread_counts, horizon);

    let json = json_rows(
        &table
            .iter()
            .map(|r| {
                vec![
                    ("schema_version", SCHEMA_VERSION),
                    ("nodes", r.nodes as f64),
                    ("threads", r.threads as f64),
                    ("wall_ms_per_virtual_minute", r.wall_ms_per_virtual_minute),
                    ("wall_ms_per_node_minute", r.wall_ms_per_node_minute),
                    ("mem_bytes_per_node", r.mem_bytes_per_node as f64),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let existing = std::fs::read_to_string(ARTIFACT).unwrap_or_else(|_| "[\n]\n".to_string());
    match merge_artifact_rows(&existing, &json, "nodes")
        .and_then(|merged| std::fs::write(ARTIFACT, merged).map_err(|e| e.to_string()))
    {
        Ok(()) => eprintln!("merged {} fleet rows into {ARTIFACT}", table.len()),
        Err(e) => eprintln!("could not update {ARTIFACT}: {e}"),
    }

    let rows: Vec<Vec<String>> = table
        .into_iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.threads.to_string(),
                fmt(r.wall_ms_per_virtual_minute),
                fmt(r.wall_ms_per_node_minute),
                fmt(r.mem_bytes_per_node as f64 / 1024.0),
                r.epochs.to_string(),
                r.overclock_epochs.to_string(),
                fmt(r.harvest_safeguard_rate),
                format!("{} / {}", fmt(r.mean_p99_latency_ms), fmt(r.max_p99_latency_ms)),
                fmt(r.total_harvested_core_seconds),
            ]
        })
        .collect();

    print_table(
        "Fleet scaling: wall-clock per virtual minute vs fleet size and threads",
        &[
            "Nodes",
            "Threads",
            "Wall ms/virt-min",
            "Wall ms/node-min",
            "Mem KiB/node",
            "Sync epochs",
            "OC epochs",
            "HV safeguard rate",
            "P99 ms mean/max",
            "Harvested core-s",
        ],
        &rows,
    );
}
