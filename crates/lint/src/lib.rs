//! `neummu_lint` — the workspace's determinism and hot-path static-analysis
//! pass.
//!
//! The simulator's whole value proposition is bit-reproducible artifacts
//! (`--threads 1` and `--threads 4` must produce byte-identical output), and
//! its performance story rests on an allocation-free translation hot path.
//! Both properties are invisible to `rustc` and easy to regress with a
//! one-line change. This crate makes them mechanical: a token-level scan of
//! the workspace enforcing four rules, configured by `lint.toml` at the
//! repository root, run in CI before the benchmarks.
//!
//! | Rule | What it catches |
//! |------|-----------------|
//! | `D001` | default-hashed `HashMap`/`HashSet` declarations and any hash-order iteration in artifact-producing crates |
//! | `D002` | `Instant::now` / `SystemTime` / `RandomState` / `env::*` reads outside allowlisted profiling modules |
//! | `H001` | allocation inside registered hot-path functions (and stale registrations that match nothing) |
//! | `U001` | non-test `pub` items that no non-test code in the workspace uses (`--workspace` runs only) |
//!
//! Findings can be waived per site in `lint.toml`; every waiver must name a
//! known rule and carry a non-empty reason. See the repository `README.md` for the workflow.

#![deny(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

use std::io;
use std::path::Path;

use config::Config;
use report::Report;
use rules::FileContext;
use workspace::SourceFile;

/// Lints an in-memory set of files (the library entry point used by tests
/// and fixtures). U001 needs every use in the workspace and does not run
/// here; see [`lint_workspace`].
#[must_use]
pub fn lint_files(files: &[SourceFile], config: &Config) -> Report {
    rules::run(&contexts(files), None, config)
}

/// Discovers and lints every workspace source file under `root`, with the
/// workspace's examples and `perfbench/src` read as uses for U001, and its
/// tests and benches read to tell a test-only item from one used nowhere.
///
/// # Errors
///
/// Returns an error if the workspace walk or a file read fails.
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<Report> {
    let files = contexts(&workspace::discover(root)?);
    let references = contexts(&workspace::discover_references(root)?);
    Ok(rules::run(&files, Some(&references), config))
}

fn contexts(files: &[SourceFile]) -> Vec<FileContext> {
    files
        .iter()
        .map(|f| FileContext::new(f.rel_path.clone(), f.crate_name.clone(), &f.source))
        .collect()
}
