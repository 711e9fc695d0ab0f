//! The perf-trajectory tooling behind the committed `BENCH_fleet.json`
//! artifact: a parser for the flat-object JSON that [`report::json_rows`]
//! emits, and the row comparison CI uses to diff a branch's committed
//! artifact against its parent's.
//!
//! Hand-rolled like the writer: the repo vendors no JSON crate, and the
//! format is deliberately trivial — an array of flat `"name": number`
//! objects, nothing nested, nothing quoted but field names.
//!
//! [`report::json_rows`]: crate::report::json_rows

use std::collections::BTreeMap;

/// One parsed row: field name → value (`None` for JSON `null`, which the
/// writer emits for non-finite values).
pub type BenchRow = BTreeMap<String, Option<f64>>;

/// Parses the output of [`report::json_rows`] back into rows.
///
/// Tolerant of whitespace but nothing else: any token outside the flat
/// array-of-objects shape is an error naming the offending snippet, so a
/// corrupted artifact fails loudly instead of diffing as "no change".
///
/// [`report::json_rows`]: crate::report::json_rows
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_rows(json: &str) -> Result<Vec<BenchRow>, String> {
    let mut rest = json.trim();
    rest = expect(rest, '[')?;
    let mut rows = Vec::new();
    if let Some(after) = try_consume(rest, ']') {
        return finish(after, rows);
    }
    loop {
        let (row, after) = parse_object(rest)?;
        rows.push(row);
        rest = after.trim_start();
        if let Some(after) = try_consume(rest, ',') {
            rest = after;
            continue;
        }
        rest = expect(rest, ']')?;
        return finish(rest, rows);
    }
}

fn finish(rest: &str, rows: Vec<BenchRow>) -> Result<Vec<BenchRow>, String> {
    if rest.trim().is_empty() {
        Ok(rows)
    } else {
        Err(format!("trailing content after array: {:?}", snippet(rest)))
    }
}

fn parse_object(input: &str) -> Result<(BenchRow, &str), String> {
    let mut rest = expect(input, '{')?;
    let mut row = BenchRow::new();
    if let Some(after) = try_consume(rest, '}') {
        return Ok((row, after));
    }
    loop {
        let (name, after) = parse_string(rest)?;
        rest = expect(after, ':')?;
        let (value, after) = parse_number(rest)?;
        row.insert(name, value);
        rest = after.trim_start();
        if let Some(after) = try_consume(rest, ',') {
            rest = after;
            continue;
        }
        rest = expect(rest, '}')?;
        return Ok((row, rest));
    }
}

fn parse_string(input: &str) -> Result<(String, &str), String> {
    let rest = expect(input, '"')?;
    match rest.find('"') {
        Some(end) => Ok((rest[..end].to_string(), &rest[end + 1..])),
        None => Err(format!("unterminated string at {:?}", snippet(input))),
    }
}

fn parse_number(input: &str) -> Result<(Option<f64>, &str), String> {
    let rest = input.trim_start();
    if let Some(after) = rest.strip_prefix("null") {
        return Ok((None, after));
    }
    let end = rest
        .char_indices()
        .find(|&(_, c)| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .map_or(rest.len(), |(i, _)| i);
    rest[..end]
        .parse::<f64>()
        .map(|value| (Some(value), &rest[end..]))
        .map_err(|_| format!("expected a number at {:?}", snippet(rest)))
}

fn expect(input: &str, token: char) -> Result<&str, String> {
    try_consume(input, token).ok_or_else(|| format!("expected {token:?} at {:?}", snippet(input)))
}

fn try_consume(input: &str, token: char) -> Option<&str> {
    input.trim_start().strip_prefix(token)
}

fn snippet(input: &str) -> &str {
    &input[..input.len().min(24)]
}

/// One regression found by [`compare_fleet_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Fleet size of the regressed cell.
    pub nodes: u64,
    /// Thread count of the regressed cell.
    pub threads: u64,
    /// Parent's wall-ms per node-minute.
    pub before: f64,
    /// Branch's wall-ms per node-minute.
    pub after: f64,
}

impl Regression {
    /// The relative slowdown, e.g. `0.25` for a 25% regression.
    pub fn slowdown(&self) -> f64 {
        self.after / self.before - 1.0
    }
}

/// Cells whose total wall cost stayed under this floor on both sides are
/// skipped by [`compare_fleet_rows`]: a sub-100 ms measurement on the shared
/// CI host is dominated by scheduler and allocator noise, so its ratio says
/// nothing about the code. The floor is read against
/// `wall_ms_per_virtual_minute` — the fleet bench's horizon is one virtual
/// minute, so that column *is* the cell's wall cost.
pub const NOISE_FLOOR_WALL_MS: f64 = 100.0;

/// Compares two parsed `BENCH_fleet.json` artifacts cell by cell (keyed by
/// `nodes` × `threads`) and returns every cell whose
/// `wall_ms_per_node_minute` regressed by more than `threshold` (e.g. `0.2`
/// for 20%). Cells present on only one side are skipped — growing the grid
/// must not read as a regression — and so are rows missing the required
/// fields (e.g. a schema too old to carry per-node cost) and cells below the
/// [`NOISE_FLOOR_WALL_MS`] noise floor on both sides.
pub fn compare_fleet_rows(
    parent: &[BenchRow],
    branch: &[BenchRow],
    threshold: f64,
) -> Vec<Regression> {
    let field = |row: &BenchRow, name: &str| row.get(name).copied().flatten();
    let cell = |row: &BenchRow| -> Option<((u64, u64), f64, Option<f64>)> {
        let nodes = field(row, "nodes")? as u64;
        let threads = field(row, "threads")? as u64;
        let per_node = field(row, "wall_ms_per_node_minute")?;
        Some(((nodes, threads), per_node, field(row, "wall_ms_per_virtual_minute")))
    };
    let baseline: BTreeMap<(u64, u64), (f64, Option<f64>)> =
        parent.iter().filter_map(cell).map(|(key, v, wall)| (key, (v, wall))).collect();
    let mut regressions = Vec::new();
    for row in branch {
        let Some((key, after, after_wall)) = cell(row) else { continue };
        let Some(&(before, before_wall)) = baseline.get(&key) else { continue };
        // Apply the noise floor only when both sides carry the wall column:
        // a schema without it diffs exactly as before.
        if let (Some(b), Some(a)) = (before_wall, after_wall) {
            if b.max(a) < NOISE_FLOOR_WALL_MS {
                continue;
            }
        }
        if before > 0.0 && after / before - 1.0 > threshold {
            regressions.push(Regression { nodes: key.0, threads: key.1, before, after });
        }
    }
    regressions
}

/// Replaces an artifact's rows keyed by `key_field` with `fresh` rows (itself
/// a [`json_rows`](crate::report::json_rows) document), leaving every other
/// row byte-untouched — the idempotent merge under the multi-bench
/// `BENCH_fleet.json`: the fleet bench owns rows keyed `"nodes"`, the
/// memory bench `"memory_nodes"`.
/// Re-running one bench therefore never perturbs another's committed cells,
/// and running it twice is a fixed point. The writer emits one row per line,
/// so the merge is line-based — but both inputs and the result are validated
/// with the trajectory parser before anything is returned.
///
/// A key only matches exactly: row keys are matched as `"key_field"` with
/// quotes, so `"nodes"` does not claim `"memory_nodes"` rows.
///
/// # Errors
///
/// Returns a description of the first malformed input or result.
pub fn merge_artifact_rows(existing: &str, fresh: &str, key_field: &str) -> Result<String, String> {
    parse_rows(existing).map_err(|e| format!("existing artifact is malformed: {e}"))?;
    parse_rows(fresh).map_err(|e| format!("fresh rows are malformed: {e}"))?;
    let key = format!("\"{key_field}\"");
    let rows: Vec<String> = existing
        .lines()
        .filter(|line| line.contains('{') && !line.contains(&key))
        .chain(fresh.lines().filter(|line| line.contains('{')))
        .map(|line| line.trim_end().trim_end_matches(',').to_string())
        .collect();
    let merged = format!("[\n{}\n]\n", rows.join(",\n"));
    parse_rows(&merged).map_err(|e| format!("merged artifact is malformed: {e}"))?;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_json_rows_writes() {
        let json = crate::report::json_rows(&[
            vec![("nodes", 8.0), ("threads", 2.0), ("wall_ms_per_node_minute", 11.5)],
            vec![("nodes", 64.0), ("threads", 2.0), ("wall_ms_per_node_minute", f64::NAN)],
        ]);
        let rows = parse_rows(&json).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["nodes"], Some(8.0));
        assert_eq!(rows[0]["wall_ms_per_node_minute"], Some(11.5));
        assert_eq!(rows[1]["wall_ms_per_node_minute"], None);
    }

    #[test]
    fn parses_the_empty_array() {
        assert_eq!(parse_rows("[]").unwrap(), Vec::<BenchRow>::new());
        assert_eq!(parse_rows(" [\n]\n").unwrap(), Vec::<BenchRow>::new());
    }

    #[test]
    fn rejects_malformed_artifacts() {
        assert!(parse_rows("").is_err());
        assert!(parse_rows("[{\"a\": }]").is_err());
        assert!(parse_rows("[{\"a\": 1]").is_err());
        assert!(parse_rows("[{\"a\": 1}] trailing").is_err());
        assert!(parse_rows("[{\"a\" 1}]").is_err());
    }

    fn row(nodes: f64, threads: f64, per_node: f64) -> BenchRow {
        BenchRow::from([
            ("nodes".to_string(), Some(nodes)),
            ("threads".to_string(), Some(threads)),
            ("wall_ms_per_node_minute".to_string(), Some(per_node)),
        ])
    }

    #[test]
    fn flags_only_cells_beyond_the_threshold() {
        let parent = vec![row(8.0, 1.0, 10.0), row(8.0, 2.0, 10.0)];
        let branch = vec![
            row(8.0, 1.0, 11.9),  // +19%: within threshold
            row(8.0, 2.0, 12.5),  // +25%: regression
            row(64.0, 1.0, 99.0), // no baseline cell: skipped
        ];
        let regressions = compare_fleet_rows(&parent, &branch, 0.2);
        assert_eq!(regressions.len(), 1);
        assert_eq!((regressions[0].nodes, regressions[0].threads), (8, 2));
        assert!((regressions[0].slowdown() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn improvement_is_never_a_regression() {
        let parent = vec![row(8.0, 1.0, 10.0)];
        let branch = vec![row(8.0, 1.0, 7.0)];
        assert!(compare_fleet_rows(&parent, &branch, 0.2).is_empty());
    }

    /// Rows keyed by foreign fields (`learning_nodes`/
    /// `learning_agg_ms_per_round` here) are invisible to the fleet diff on
    /// both sides, no matter how wildly their values move.
    #[test]
    fn rows_under_new_keys_are_skipped_on_both_sides() {
        let learning = |ms: f64| {
            BenchRow::from([
                ("schema_version".to_string(), Some(2.0)),
                ("learning_nodes".to_string(), Some(64.0)),
                ("learning_rule".to_string(), Some(1.0)),
                ("learning_agg_ms_per_round".to_string(), Some(ms)),
            ])
        };
        let parent = vec![row(8.0, 1.0, 10.0), learning(0.04)];
        let branch = vec![row(8.0, 1.0, 10.5), learning(400.0)];
        assert!(compare_fleet_rows(&parent, &branch, 0.2).is_empty());
    }

    /// Rows keyed by another bench's field (`trust_nodes` here) carry none
    /// of the fleet cells' required fields, so the fleet diff skips them by
    /// construction and a fleet merge never claims them.
    #[test]
    fn trust_rows_are_invisible_to_the_fleet_diff() {
        let trust = |rounds: f64| {
            BenchRow::from([
                ("schema_version".to_string(), Some(2.0)),
                ("trust_nodes".to_string(), Some(64.0)),
                ("trust_victims".to_string(), Some(8.0)),
                ("trust_detect_rounds".to_string(), Some(rounds)),
                ("trust_false_positive_rate".to_string(), Some(0.0)),
            ])
        };
        let parent = vec![row(8.0, 1.0, 10.0), trust(4.0)];
        let branch = vec![row(8.0, 1.0, 10.5), trust(400.0)];
        assert!(compare_fleet_rows(&parent, &branch, 0.2).is_empty());

        // And the merge keeps them byte-intact under a fleet-row refresh.
        let existing = "[\n{\"nodes\": 8, \"threads\": 1, \"wall_ms_per_node_minute\": 10},\n\
                        {\"trust_nodes\": 64, \"trust_detect_rounds\": 4}\n]\n";
        let fresh = "[\n{\"nodes\": 8, \"threads\": 1, \"wall_ms_per_node_minute\": 11}\n]\n";
        let merged = merge_artifact_rows(existing, fresh, "nodes").unwrap();
        let rows = parse_rows(&merged).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["trust_detect_rounds"], Some(4.0));
        assert_eq!(rows[1]["wall_ms_per_node_minute"], Some(11.0));
    }

    fn walled(nodes: f64, threads: f64, per_node: f64, wall: f64) -> BenchRow {
        let mut r = row(nodes, threads, per_node);
        r.insert("wall_ms_per_virtual_minute".to_string(), Some(wall));
        r
    }

    /// Sub-noise-floor cells (tiny fleets whose whole run is a few
    /// milliseconds) may double in cost without being flagged: the
    /// measurement is noise, not signal. Crossing the floor on either side
    /// re-arms the diff.
    #[test]
    fn cells_below_the_noise_floor_are_skipped() {
        let parent = vec![walled(1.0, 1.0, 10.0, 10.0), walled(256.0, 1.0, 10.0, 2560.0)];
        let branch = vec![
            walled(1.0, 1.0, 25.0, 25.0),     // +150% but under 100 ms wall: noise
            walled(256.0, 1.0, 13.0, 3328.0), // +30% at 3.3 s wall: real
        ];
        let regressions = compare_fleet_rows(&parent, &branch, 0.2);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].nodes, 256);

        // A cell that grew *past* the floor is diffed: the branch made a
        // formerly-trivial cell expensive.
        let branch = vec![walled(1.0, 1.0, 300.0, 300.0)];
        assert_eq!(compare_fleet_rows(&parent, &branch, 0.2).len(), 1);

        // Rows without the wall column (schema v2) diff exactly as before.
        let parent = vec![row(1.0, 1.0, 10.0)];
        let branch = vec![row(1.0, 1.0, 25.0)];
        assert_eq!(compare_fleet_rows(&parent, &branch, 0.2).len(), 1);
    }

    #[test]
    fn merge_replaces_only_the_keyed_rows() {
        let existing = "[\n{\"nodes\": 8, \"wall_ms_per_node_minute\": 10},\n\
                        {\"learning_nodes\": 64, \"learning_agg_ms_per_round\": 0.04}\n]\n";
        let fresh = "[\n{\"learning_nodes\": 64, \"learning_agg_ms_per_round\": 0.05}\n]\n";
        let merged = merge_artifact_rows(existing, fresh, "learning_nodes").unwrap();
        let rows = parse_rows(&merged).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["nodes"], Some(8.0));
        assert_eq!(rows[1]["learning_agg_ms_per_round"], Some(0.05));
        // Idempotent: merging the same fresh rows again is a fixed point.
        assert_eq!(merge_artifact_rows(&merged, fresh, "learning_nodes").unwrap(), merged);
    }

    /// `"nodes"` must not claim `"learning_nodes"` rows: keys match with
    /// their quotes.
    #[test]
    fn merge_keys_do_not_match_substrings() {
        let existing = "[\n{\"learning_nodes\": 64, \"learning_agg_ms_per_round\": 0.04}\n]\n";
        let fresh = "[\n{\"nodes\": 8, \"threads\": 1, \"wall_ms_per_node_minute\": 10}\n]\n";
        let merged = merge_artifact_rows(existing, fresh, "nodes").unwrap();
        let rows = parse_rows(&merged).unwrap();
        assert_eq!(rows.len(), 2, "the learning row must survive a fleet merge");
    }

    #[test]
    fn merge_rejects_malformed_inputs() {
        assert!(merge_artifact_rows("not json", "[\n]\n", "nodes").is_err());
        assert!(merge_artifact_rows("[\n]\n", "not json", "nodes").is_err());
        // An empty artifact accepts its first rows.
        let merged = merge_artifact_rows("[\n]\n", "[\n{\"nodes\": 1}\n]\n", "nodes").unwrap();
        assert_eq!(parse_rows(&merged).unwrap().len(), 1);
    }

    /// A cell disappearing from the branch (shrunk grid) or a row missing
    /// the per-node field (older schema) is skipped, never a regression.
    #[test]
    fn missing_rows_and_missing_fields_are_skipped() {
        let parent = vec![row(8.0, 1.0, 10.0), row(64.0, 1.0, 10.0)];
        let branch = vec![row(8.0, 1.0, 10.0)];
        assert!(compare_fleet_rows(&parent, &branch, 0.2).is_empty());

        let mut no_per_node = row(8.0, 1.0, 999.0);
        no_per_node.remove("wall_ms_per_node_minute");
        assert!(compare_fleet_rows(&parent, &[no_per_node], 0.2).is_empty());

        // null (non-finite) per-node cost reads as missing, not as zero.
        let mut null_per_node = row(8.0, 1.0, 0.0);
        null_per_node.insert("wall_ms_per_node_minute".to_string(), None);
        assert!(compare_fleet_rows(&parent, &[null_per_node], 0.2).is_empty());
    }
}
