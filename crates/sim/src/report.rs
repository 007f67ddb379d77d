//! Result tables: the tabular output format shared by every experiment.

use std::fmt;

use serde::Serialize;

/// A simple rectangular result table with a title, column headers and rows.
///
/// Every experiment runner returns its data both as typed records and as a
/// `ResultTable`, which the `neummu-experiments` binary renders to Markdown
/// and CSV artifacts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResultTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn push_row<S: ToString>(&mut self, row: &[S]) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table `{}` has {} columns",
            row.len(),
            self.title,
            self.headers.len()
        );
        self.rows
            .push(row.iter().map(ToString::to_string).collect());
    }

    /// Renders the table as GitHub-flavoured Markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as CSV (header row first).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats a normalized value with three decimals.
#[must_use]
pub fn norm(value: f64) -> String {
    format!("{value:.3}")
}

/// Arithmetic mean of a slice (0.0 for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render_markdown() {
        let mut table = ResultTable::new("Figure 8", &["Workload", "Batch", "Normalized perf"]);
        table.push_row(&["CNN-1", "1", "0.051"]);
        table.push_row(&["RNN-1", "8", "0.034"]);
        let md = table.to_markdown();
        assert!(md.contains("### Figure 8"));
        assert!(md.contains("| CNN-1 | 1 | 0.051 |"));
        assert!(md.starts_with("### "));
        assert_eq!(table.rows().len(), 2);
        assert_eq!(table.to_string(), md);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut table = ResultTable::new("t", &["a", "b"]);
        table.push_row(&["x,y", "he said \"hi\""]);
        let csv = table.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_rejected() {
        let mut table = ResultTable::new("t", &["a", "b"]);
        table.push_row(&["only one"]);
    }

    #[test]
    fn statistics_helpers() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(norm(0.9999), "1.000");
    }
}
