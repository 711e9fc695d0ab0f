//! `--compare A.json B.json`: every end-to-end metric of every workload, B
//! against A, held to the metric's own bound.
//!
//! One row per metric x workload, each with both medians, their quartiles
//! and the ratio with its base — the table a later change pastes into its
//! description. A combined score is never printed: a gain on one workload
//! does not pay for a loss on another.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, SETUP_FLOOR_S};
use crate::stats::Summary;

/// What one metric did on one workload between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound, and the spread cannot
    /// explain it.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap: neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Holds B's runs against A's under `metric`'s bound, one value a run.
///
/// With a run-to-run spread inside the bound the medians decide. With a
/// wider one they cannot: the verdict is `Unresolved` unless every run of
/// one side beats every run of the other. One run a side has no spread to
/// show, so its medians decide — run several before claiming anything.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    // Fold "higher is better" onto "lower is better".
    let oriented = |samples: &[f64]| -> Vec<f64> {
        samples.iter().map(|&v| if metric.better == Better::Lower { v } else { -v }).collect()
    };
    let (a, b) = (Summary::of(&oriented(a)), Summary::of(&oriented(b)));
    let worse_by = (b.median - a.median) / a.median.abs();
    let floor = if metric.name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
    let beyond_bound = worse_by > metric.bound && b.median - a.median > floor;
    if a.spread().max(b.spread()) <= metric.bound {
        return if beyond_bound { Verdict::Regressed } else { Verdict::Ok };
    }
    if b.max <= a.min {
        Verdict::Ok
    } else if beyond_bound && b.min > a.max {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// One workload's untraced runs in one result file: per metric, one value a
/// run; per run, its seed and fingerprint.
struct Row {
    workload: String,
    fingerprints: Vec<(String, String)>,
    values: Vec<(String, Vec<f64>)>,
}

fn load(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let document = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = document
        .get("records")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no \"records\" array"))?;
    let mut rows: Vec<Row> = Vec::new();
    for record in records.iter().filter(|r| r.get("traced") == Some(&Json::Bool(false))) {
        let field = |key: &str| {
            record.get(key).and_then(Json::as_str).ok_or_else(|| format!("{path}: no {key:?}"))
        };
        let workload = field("workload")?;
        let row = match rows.iter().position(|row| row.workload == workload) {
            Some(position) => &mut rows[position],
            None => {
                rows.push(Row {
                    workload: workload.to_string(),
                    fingerprints: Vec::new(),
                    values: Vec::new(),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.fingerprints.push((field("seed")?.to_string(), field("sim_fingerprint")?.to_string()));
        let metrics = record
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: a record has no \"metrics\""))?;
        for metric in metrics {
            let (Some(name), Some(value)) = (
                metric.get("name").and_then(Json::as_str),
                metric.get("value").and_then(Json::as_f64),
            ) else {
                continue;
            };
            match row.values.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(value),
                None => row.values.push((name.to_string(), vec![value])),
            }
        }
    }
    Ok(rows)
}

/// Prints the comparison and returns whether any row regressed.
///
/// # Errors
///
/// A file that cannot be read or is not a result file.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a_rows, b_rows) = (load(a_path)?, load(b_path)?);
    println!("A = {a_path}\nB = {b_path}");
    println!("one value per run; ratio = B median / A median, against the bound on getting worse");
    println!(
        "{:<14} {:<24} {:>13} {:>25} {:>13} {:>25} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] runs",
        "B median",
        "B [q1, q3] runs",
        "ratio",
        "bound"
    );
    let mut regressed = false;
    for a_row in &a_rows {
        let Some(b_row) = b_rows.iter().find(|b| b.workload == a_row.workload) else {
            println!("{:<14} missing from B", a_row.workload);
            continue;
        };
        for metric in &END_TO_END {
            let find = |row: &Row| {
                row.values.iter().find(|(name, _)| name == metric.name).map(|(_, v)| v.clone())
            };
            let (Some(a), Some(b)) = (find(a_row), find(b_row)) else { continue };
            let outcome = verdict(metric, &a, &b);
            regressed |= outcome == Verdict::Regressed;
            let (sa, sb) = (Summary::of(&a), Summary::of(&b));
            let quartiles = |s: &Summary| format!("[{:.4}, {:.4}] {}", s.q1, s.q3, s.n);
            println!(
                "{:<14} {:<24} {:>13.4} {:>25} {:>13.4} {:>25} {:>7.4} {:>6}  {}",
                a_row.workload,
                metric.name,
                sa.median,
                quartiles(&sa),
                sb.median,
                quartiles(&sb),
                sb.median / sa.median,
                metric.bound,
                outcome.word(),
            );
        }
        // Same seed, same inputs: a pure speed-up leaves the fingerprint be.
        for (seed, a_print) in &a_row.fingerprints {
            let Some((_, b_print)) = b_row.fingerprints.iter().find(|(s, _)| s == seed) else {
                continue;
            };
            let same = if a_print == b_print {
                "identical"
            } else {
                "DIFFERENT: the two sides simulated different things"
            };
            println!(
                "{:<14} sim_fingerprint seed {seed}: A {a_print} B {b_print}  {same}",
                a_row.workload
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timing with a 10 % bound, whatever the tables say today.
    const WALL: EndToEnd =
        EndToEnd { name: "wall", unit: "ms", better: Better::Lower, bound: 0.10 };

    #[test]
    fn tight_samples_are_judged_by_their_medians() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&WALL, &a, &[10.5, 10.6, 10.4, 10.5, 10.55]), Verdict::Ok);
        assert_eq!(verdict(&WALL, &a, &[11.5, 11.6, 11.4, 11.5, 11.55]), Verdict::Regressed);
        assert_eq!(verdict(&WALL, &a, &[5.0, 5.1, 4.9, 5.0, 5.05]), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_wins_every_run() {
        let noisy = [10.0, 14.0, 8.0, 12.0, 9.0];
        assert_eq!(verdict(&WALL, &noisy, &[11.5, 15.0, 9.0, 13.0, 12.5]), Verdict::Unresolved);
        assert_eq!(verdict(&WALL, &noisy, &[7.9, 5.0, 6.0, 7.0, 7.5]), Verdict::Ok);
        assert_eq!(verdict(&WALL, &noisy, &[20.0, 25.0, 15.0, 22.0, 30.0]), Verdict::Regressed);
    }

    #[test]
    fn set_up_needs_five_milliseconds_as_well_as_its_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(verdict(setup, &[0.002], &[0.004]), Verdict::Ok);
        assert_eq!(verdict(setup, &[0.020], &[0.030]), Verdict::Regressed);
    }

    #[test]
    fn single_values_compare_without_a_spread() {
        let mem = EndToEnd { name: "mem", unit: "B", better: Better::Lower, bound: 0.01 };
        assert_eq!(verdict(&mem, &[89_352.0], &[89_352.0]), Verdict::Ok);
        assert_eq!(verdict(&mem, &[89_352.0], &[91_000.0]), Verdict::Regressed);
        let speedup = EndToEnd { name: "x", unit: "ratio", better: Better::Higher, bound: 0.10 };
        assert_eq!(verdict(&speedup, &[2.0], &[1.7]), Verdict::Regressed);
        assert_eq!(verdict(&speedup, &[2.0], &[2.4]), Verdict::Ok);
    }
}
