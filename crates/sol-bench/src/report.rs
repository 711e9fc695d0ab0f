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

#[cfg(test)]
mod tests {
    use super::*;

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
