//! `lint.toml` — rule configuration, hot-path registration and waivers.
//!
//! The workspace is offline, so rather than pulling in a TOML crate this
//! module parses the small dialect the config actually uses: `[section]`
//! headers, `[[array]]` tables, string values and single- or multi-line
//! string arrays. Unknown sections and keys are rejected loudly — a typo in
//! a waiver must not silently disable it.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::rules::RULE_IDS;

/// One registered hot function: allocation is banned in its body (rule H001).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotFn {
    /// Path suffix of the file holding the function.
    pub file: String,
    /// `impl` type the method lives on; `None` registers a free function.
    pub type_name: Option<String>,
    /// Method-name patterns; a trailing `*` matches any suffix
    /// (`translate*` covers `translate`, `translate_run_tagged`, ...).
    pub functions: Vec<String>,
}

/// A per-site waiver. Findings matching all three selectors are reported as
/// waived (and do not fail the run); the reason is mandatory and non-empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule id the waiver applies to (one of [`crate::rules::RULE_IDS`]).
    pub rule: String,
    /// Path suffix of the waived file.
    pub file: String,
    /// Substring that must appear in the flagged source line.
    pub contains: String,
    /// Why the finding is acceptable. Must be non-empty.
    pub reason: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Crates (by package name) whose non-test code rule D001 scans.
    pub d001_crates: Vec<String>,
    /// Path prefixes where rule D002's nondeterminism sources are allowed
    /// (runner self-profiling, the experiment driver's progress timer).
    pub d002_allow: Vec<String>,
    /// Hot-function registrations for rule H001.
    pub hot: Vec<HotFn>,
    /// Per-site waivers.
    pub waivers: Vec<Waiver>,
}

/// A configuration parse/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Human-readable description, with the offending line number.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        message: format!("line {}: {}", line, message.into()),
    }
}

impl Config {
    /// Reads and parses a config file.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the file cannot be read, contains syntax
    /// the dialect does not know, names an unknown section or key, or holds a
    /// waiver with an empty reason or an unknown rule id.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let text = fs::read_to_string(path).map_err(|e| ConfigError {
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::parse(&text)
    }

    /// Parses config text. See [`Config::load`] for the error contract.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on malformed or unknown input.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section = Section::None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line_no = idx + 1;
            let line = strip_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                section = match header.trim() {
                    "hot" => {
                        config.hot.push(HotFn {
                            file: String::new(),
                            type_name: None,
                            functions: Vec::new(),
                        });
                        Section::Hot
                    }
                    "waiver" => {
                        config.waivers.push(Waiver {
                            rule: String::new(),
                            file: String::new(),
                            contains: String::new(),
                            reason: String::new(),
                        });
                        Section::Waiver
                    }
                    other => return Err(err(line_no, format!("unknown table `[[{other}]]`"))),
                };
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match header.trim() {
                    "rules.D001" => Section::D001,
                    "rules.D002" => Section::D002,
                    other => return Err(err(line_no, format!("unknown section `[{other}]`"))),
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(
                    line_no,
                    format!("expected `key = value`, got `{line}`"),
                ));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // A multi-line array keeps consuming lines until brackets balance.
            while value.starts_with('[') && !brackets_balance(&value) {
                let Some((_, next)) = lines.next() else {
                    return Err(err(line_no, "unterminated array"));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            match (&section, key) {
                (Section::D001, "crates") => {
                    config.d001_crates = parse_string_array(&value, line_no)?;
                }
                (Section::D002, "allow") => {
                    config.d002_allow = parse_string_array(&value, line_no)?;
                }
                (Section::Hot, "file") => {
                    config.hot.last_mut().expect("section open").file =
                        parse_string(&value, line_no)?;
                }
                (Section::Hot, "type") => {
                    config.hot.last_mut().expect("section open").type_name =
                        Some(parse_string(&value, line_no)?);
                }
                (Section::Hot, "functions") => {
                    config.hot.last_mut().expect("section open").functions =
                        parse_string_array(&value, line_no)?;
                }
                (Section::Waiver, "rule") => {
                    config.waivers.last_mut().expect("section open").rule =
                        parse_string(&value, line_no)?;
                }
                (Section::Waiver, "file") => {
                    config.waivers.last_mut().expect("section open").file =
                        parse_string(&value, line_no)?;
                }
                (Section::Waiver, "contains") => {
                    config.waivers.last_mut().expect("section open").contains =
                        parse_string(&value, line_no)?;
                }
                (Section::Waiver, "reason") => {
                    config.waivers.last_mut().expect("section open").reason =
                        parse_string(&value, line_no)?;
                }
                (_, key) => {
                    return Err(err(line_no, format!("unknown key `{key}` in this section")));
                }
            }
        }
        config.validate()?;
        Ok(config)
    }

    /// Structural checks beyond syntax: every waiver carries a non-empty
    /// reason, complete selectors and a known rule id; every hot
    /// registration names a file and at least one function pattern.
    fn validate(&self) -> Result<(), ConfigError> {
        for (i, waiver) in self.waivers.iter().enumerate() {
            if waiver.reason.trim().is_empty() {
                return Err(ConfigError {
                    message: format!(
                        "waiver #{} ({} in {}): empty reason — every waiver must say why",
                        i + 1,
                        if waiver.rule.is_empty() {
                            "?"
                        } else {
                            &waiver.rule
                        },
                        if waiver.file.is_empty() {
                            "?"
                        } else {
                            &waiver.file
                        },
                    ),
                });
            }
            if waiver.rule.is_empty() || waiver.file.is_empty() || waiver.contains.is_empty() {
                return Err(ConfigError {
                    message: format!(
                        "waiver #{}: `rule`, `file` and `contains` are all required",
                        i + 1
                    ),
                });
            }
            if !RULE_IDS.contains(&waiver.rule.as_str()) {
                return Err(ConfigError {
                    message: format!(
                        "waiver #{} ({}): unknown rule `{}` — known rules are {}",
                        i + 1,
                        waiver.file,
                        waiver.rule,
                        RULE_IDS.join(", "),
                    ),
                });
            }
        }
        for (i, hot) in self.hot.iter().enumerate() {
            if hot.file.is_empty() || hot.functions.is_empty() {
                return Err(ConfigError {
                    message: format!(
                        "hot registration #{}: `file` and `functions` are required",
                        i + 1
                    ),
                });
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    D001,
    D002,
    Hot,
    Waiver,
}

/// Strips a `#` comment, respecting `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn brackets_balance(value: &str) -> bool {
    let mut depth = 0i64;
    let mut in_string = false;
    for c in value.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string(value: &str, line_no: usize) -> Result<String, ConfigError> {
    let value = value.trim();
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| err(line_no, format!("expected a quoted string, got `{value}`")))?;
    Ok(inner.to_string())
}

fn parse_string_array(value: &str, line_no: usize) -> Result<Vec<String>, ConfigError> {
    let value = value.trim();
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| err(line_no, format!("expected an array, got `{value}`")))?;
    let mut items = Vec::new();
    for piece in split_top_level(inner) {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        items.push(parse_string(piece, line_no)?);
    }
    Ok(items)
}

/// Splits on commas outside string literals.
fn split_top_level(text: &str) -> Vec<&str> {
    let mut pieces = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in text.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                pieces.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&text[start..]);
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_dialect() {
        let config = Config::parse(
            r#"
# comment
[rules.D001]
crates = ["a", "b"] # trailing comment

[rules.D002]
allow = [
    "crates/sim/src/runner/",
    "crates/bench/src/bin/",
]

[[hot]]
file = "crates/core/src/engine.rs"
type = "TranslationEngine"
functions = ["translate*"]

[[hot]]
file = "crates/sim/src/embedding.rs"
functions = ["translate_gather_run"]

[[waiver]]
rule = "D001"
file = "crates/vmem/src/frame_alloc.rs"
contains = "nodes: HashMap"
reason = "keyed lookups only"
"#,
        )
        .unwrap();
        assert_eq!(config.d001_crates, vec!["a", "b"]);
        assert_eq!(config.d002_allow.len(), 2);
        assert_eq!(config.hot.len(), 2);
        assert_eq!(
            config.hot[0].type_name.as_deref(),
            Some("TranslationEngine")
        );
        assert_eq!(config.hot[1].type_name, None);
        assert_eq!(config.waivers.len(), 1);
    }

    #[test]
    fn empty_waiver_reason_is_rejected() {
        let result = Config::parse(
            r#"
[[waiver]]
rule = "D001"
file = "x.rs"
contains = "HashMap"
reason = ""
"#,
        );
        let message = result.unwrap_err().message;
        assert!(message.contains("empty reason"), "{message}");
    }

    #[test]
    fn waiver_for_an_unknown_rule_is_rejected() {
        let result = Config::parse(
            "[[waiver]]\nrule = \"C001\"\nfile = \"x.rs\"\ncontains = \"x\"\nreason = \"r\"\n",
        );
        let message = result.unwrap_err().message;
        assert!(message.contains("unknown rule `C001`"), "{message}");
    }

    #[test]
    fn unknown_sections_and_keys_are_rejected() {
        assert!(Config::parse("[rules.D009]\n").is_err());
        assert!(Config::parse("[rules.D001]\ncrate = [\"x\"]\n").is_err());
        assert!(Config::parse("[[hots]]\n").is_err());
    }

    #[test]
    fn incomplete_registrations_are_rejected() {
        assert!(Config::parse("[[hot]]\nfile = \"x.rs\"\n").is_err());
        let missing_contains = "[[waiver]]\nrule = \"D001\"\nfile = \"x\"\nreason = \"r\"\n";
        assert!(Config::parse(missing_contains).is_err());
    }

    #[test]
    fn hash_inside_strings_survives_comment_stripping() {
        let config = Config::parse(
            "[[waiver]]\nrule = \"D001\"\nfile = \"x\"\ncontains = \"a # b\"\nreason = \"r\"\n",
        )
        .unwrap();
        assert_eq!(config.waivers[0].contains, "a # b");
    }
}
