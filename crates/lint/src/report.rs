//! Findings, the human-readable table and the `--json` machine output.

use std::fmt::Write as _;

/// One rule violation (possibly waived).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`crate::rules::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path of the flagged file.
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// What is wrong and why it matters.
    pub message: String,
    /// `Some(reason)` if a `lint.toml` waiver covers this site.
    pub waived: Option<String>,
}

impl Finding {
    /// True if the finding counts against the exit code.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.waived.is_none()
    }
}

/// The result of one lint run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, waived ones included, in file/line order.
    pub findings: Vec<Finding>,
    /// Number of Rust files scanned.
    pub files_checked: usize,
}

impl Report {
    /// Findings not covered by a waiver.
    pub fn live(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_live())
    }

    /// True if the run should exit zero.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.live().count() == 0
    }

    /// Renders the human-readable table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let live: Vec<&Finding> = self.live().collect();
        if live.is_empty() {
            let _ = writeln!(
                out,
                "neummu_lint: {} files checked, no findings ({} waived)",
                self.files_checked,
                self.findings.len()
            );
        } else {
            let loc_width = live
                .iter()
                .map(|f| f.file.len() + 1 + digits(f.line))
                .max()
                .unwrap_or(8)
                .max("LOCATION".len());
            let _ = writeln!(out, "{:<5} {:<loc_width$} MESSAGE", "RULE", "LOCATION");
            for finding in &live {
                let location = format!("{}:{}", finding.file, finding.line);
                let _ = writeln!(
                    out,
                    "{:<5} {:<loc_width$} {}",
                    finding.rule, location, finding.message
                );
            }
            let _ = writeln!(
                out,
                "\nneummu_lint: {} finding(s) in {} files ({} waived)",
                live.len(),
                self.files_checked,
                self.findings.len() - live.len()
            );
        }
        for finding in self.findings.iter().filter(|f| !f.is_live()) {
            let _ = writeln!(
                out,
                "waived {} {}:{} — {}",
                finding.rule,
                finding.file,
                finding.line,
                finding.waived.as_deref().unwrap_or_default()
            );
        }
        out
    }

    /// Renders the machine-readable JSON document.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"waived\": {}}}",
                json_string(finding.rule),
                json_string(&finding.file),
                finding.line,
                json_string(&finding.message),
                match &finding.waived {
                    Some(reason) => json_string(reason),
                    None => "null".to_string(),
                }
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"files_checked\": {},\n  \"live\": {},\n  \"waived\": {}\n}}\n",
            self.files_checked,
            self.live().count(),
            self.findings.len() - self.live().count()
        );
        out
    }
}

fn digits(n: u32) -> usize {
    (n.max(1).ilog10() + 1) as usize
}

/// Escapes a string for JSON output.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    rule: "D001",
                    file: "crates/x/src/lib.rs".into(),
                    line: 7,
                    message: "iterates a HashMap".into(),
                    waived: None,
                },
                Finding {
                    rule: "D002",
                    file: "crates/y/src/lib.rs".into(),
                    line: 12,
                    message: "reads \"wall clock\"".into(),
                    waived: Some("profiling only".into()),
                },
            ],
            files_checked: 2,
        }
    }

    #[test]
    fn table_lists_live_and_waived_findings() {
        let table = sample().render_table();
        assert!(table.contains("D001"));
        assert!(table.contains("crates/x/src/lib.rs:7"));
        assert!(table.contains("waived D002"));
        assert!(table.contains("1 finding(s)"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let json = sample().render_json();
        assert!(json.contains("\\\"wall clock\\\""));
        assert!(json.contains("\"live\": 1"));
        assert!(json.contains("\"waived\": 1"));
        assert!(json.contains("\"waived\": \"profiling only\""));
    }

    #[test]
    fn clean_report_renders_summary_only() {
        let report = Report {
            findings: vec![],
            files_checked: 3,
        };
        assert!(report.is_clean());
        assert!(report.render_table().contains("no findings"));
    }
}
