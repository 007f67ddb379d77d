//! Benchmark harness for the NeuMMU reproduction.
//!
//! This crate contains:
//!
//! * the `neummu-experiments` binary, which regenerates every table and figure
//!   of the paper's evaluation and writes Markdown/CSV/JSON artifacts, and
//! * the Criterion benches (`dense_figures`, `embedding_figures`,
//!   `mmu_microbench`), one benchmark per table/figure plus microbenchmarks of
//!   the core MMU structures.
//!
//! The [`artifacts`] module holds the small amount of shared plumbing for
//! writing result tables to disk (atomically — see the crash-safety notes
//! there), and [`family`] journals finished experiment families into a
//! [`neummu_store::Store`] so interrupted sweeps resume instead of rerunning.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifacts;
pub mod family;

pub use artifacts::ExperimentArtifacts;
pub use family::{commit_family, family_key, restore_family};
