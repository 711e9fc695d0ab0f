//! Small helpers for printing experiment tables in a consistent format.

/// Renders a GitHub-flavored-Markdown table: a header row, a `| --- |`
/// separator, and the data rows, with cells padded to a common width per
/// column so the raw text stays readable too.
///
/// # Panics
///
/// Panics if any row has a different number of columns than the header.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width must match header width");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len().max(3)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        format!("| {} |\n", line.join(" | "))
    };
    let mut out = format!("\n## {title}\n\n");
    out.push_str(&render_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    // GFM requires `| --- |` cells: dashes only, separated from the pipes by
    // the surrounding spaces (the old `|-----|` form does not render).
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("| {} |\n", sep.join(" | ")));
    for row in rows {
        out.push_str(&render_row(row));
    }
    out
}

/// Prints a [`render_table`] to stdout.
///
/// # Panics
///
/// Panics if any row has a different number of columns than the header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, header, rows));
}

/// Formats a float with three significant decimals.
pub fn fmt(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a value as a percentage with one decimal.
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Reads a `u64` quick-mode knob from the environment (e.g.
/// `SOL_FLEET_MAX_NODES`), falling back to `default` when unset — and, at
/// the cost of one line on stderr, when set but unparseable (`64k`). The
/// horizon has its own reader, [`horizon_secs`].
pub fn env_u64(name: &str, default: u64) -> u64 {
    read_knob(name, 0, default)
}

/// The virtual horizon of a fleet scaling run, in seconds:
/// `SOL_HORIZON_SECS` when it is set to a positive whole number, `default`
/// otherwise. A value that is set but unusable — unparseable, or `0`, which
/// every runtime rejects as an empty horizon — costs one line on stderr, not
/// a panic.
pub fn horizon_secs(default: u64) -> u64 {
    read_knob("SOL_HORIZON_SECS", 1, default)
}

fn read_knob(name: &str, min: u64, default: u64) -> u64 {
    let raw = std::env::var(name).ok();
    parse_knob(raw.as_deref(), min).unwrap_or_else(|| {
        if let Some(raw) = raw {
            eprintln!("{name}={raw:?} is not a whole number >= {min}; using {default}");
        }
        default
    })
}

fn parse_knob(raw: Option<&str>, min: u64) -> Option<u64> {
    raw?.parse().ok().filter(|&value| value >= min)
}

/// Renders rows of named numeric fields as a JSON array of flat objects —
/// the machine-readable artifact (`BENCH_*.json`) CI uploads alongside the
/// printed tables. Hand-rolled on purpose: the repo vendors no JSON crate,
/// and flat `name: number` objects need nothing more.
///
/// Non-finite values (JSON has no NaN/Infinity) are emitted as `null`.
pub fn json_rows(rows: &[Vec<(&str, f64)>]) -> String {
    let object = |fields: &[(&str, f64)]| {
        let body: Vec<String> = fields
            .iter()
            .map(|(name, value)| {
                if value.is_finite() {
                    format!("\"{name}\": {value}")
                } else {
                    format!("\"{name}\": null")
                }
            })
            .collect();
        format!("  {{{}}}", body.join(", "))
    };
    let body: Vec<String> = rows.iter().map(|fields| object(fields)).collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_garbage_horizons_fall_back_like_an_unset_one() {
        assert_eq!(parse_knob(Some("45"), 1), Some(45));
        for unusable in [None, Some("0"), Some(""), Some("ten"), Some("-3"), Some("1.5")] {
            assert_eq!(parse_knob(unusable, 1), None, "{unusable:?}");
        }
    }

    #[test]
    fn a_set_but_unparseable_knob_is_rejected_and_zero_is_a_value() {
        assert_eq!(parse_knob(Some("4096"), 0), Some(4096));
        assert_eq!(parse_knob(Some("0"), 0), Some(0), "only the horizon rejects zero");
        for unusable in [None, Some("64k"), Some(""), Some("-1"), Some("1e3")] {
            assert_eq!(parse_knob(unusable, 0), None, "{unusable:?}");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(pct(0.4567), "45.7%");
    }

    #[test]
    fn rendered_table_is_valid_github_markdown() {
        let rendered = render_table(
            "demo",
            &["metric", "x"],
            &[vec!["alpha".to_string(), "1".to_string()], vec!["b".to_string(), "22".to_string()]],
        );
        let lines: Vec<&str> = rendered.trim_start_matches('\n').lines().collect();
        assert_eq!(lines[0], "## demo");
        assert_eq!(lines[2], "| metric | x   |");
        assert_eq!(lines[3], "| ------ | --- |");
        assert_eq!(lines[4], "| alpha  | 1   |");
        assert_eq!(lines[5], "| b      | 22  |");
        // Every separator cell must be dashes only, flanked by spaces: the
        // GFM delimiter-row grammar. `|---|` (no spaces) is what the old
        // emitter produced and is not rendered as a table by GitHub.
        let sep = lines[3];
        assert!(sep.starts_with("| ") && sep.ends_with(" |"));
        for cell in sep.trim_matches('|').split('|') {
            let cell = cell.trim_matches(' ');
            assert!(!cell.is_empty() && cell.chars().all(|c| c == '-'), "bad cell {cell:?}");
            assert!(cell.len() >= 3, "GFM needs at least three dashes per cell");
        }
    }

    #[test]
    fn json_rows_render_flat_objects() {
        let rendered = json_rows(&[
            vec![("nodes", 8.0), ("wall_ms", 1.25)],
            vec![("nodes", 64.0), ("wall_ms", f64::NAN)],
        ]);
        assert_eq!(
            rendered,
            "[\n  {\"nodes\": 8, \"wall_ms\": 1.25},\n  {\"nodes\": 64, \"wall_ms\": null}\n]\n"
        );
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".to_string(), "2".to_string()], vec!["3".to_string(), "4".to_string()]],
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        print_table("demo", &["a", "b"], &[vec!["1".to_string()]]);
    }
}
