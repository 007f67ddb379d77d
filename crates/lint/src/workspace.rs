//! Workspace discovery: which `.rs` files to lint and which crate owns them.
//!
//! Library/binary sources (`src/`) of every workspace member are scanned;
//! `tests/`, `benches/` and `examples/` trees are not — rules D001/D002 are
//! about artifact-producing code, and test scaffolding legitimately uses
//! hash maps and clocks. Those trees, and the benchmark client
//! `perfbench/src`, are still read as uses of the scanned items (rule U001).
//! `third_party/` (the vendored serde), `target/` and lint `fixtures/` are
//! never touched.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file handed to the rule engine.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Package name of the owning crate.
    pub crate_name: String,
    /// File contents.
    pub source: String,
}

/// Collects the `src/` trees of every workspace member under `root`
/// (the root package itself plus each `crates/*` member), in sorted order so
/// reports are stable.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading files; a missing
/// `crates/` directory or root `src/` is not an error.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for (member, name) in members(root)? {
        collect_tree(root, &member.join("src"), &name, &mut files)?;
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Collects the sources that use the workspace's items without being linted
/// themselves: every member's `tests/`, `benches/` and `examples/` trees and
/// the benchmark client `perfbench/src`, which builds against the crates'
/// public API.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading files; missing
/// trees are not an error.
pub fn discover_references(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for (member, name) in members(root)? {
        for tree in ["tests", "benches", "examples"] {
            collect_tree(root, &member.join(tree), &name, &mut files)?;
        }
    }
    let perfbench = root.join("perfbench");
    let name = package_name(&perfbench.join("Cargo.toml")).unwrap_or_else(|| "perfbench".into());
    collect_tree(root, &perfbench.join("src"), &name, &mut files)?;
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// `(directory, package name)` of the root package and each `crates/*`
/// member, in sorted order.
fn members(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let name = package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "root".to_string());
    let mut members = vec![(root.to_path_buf(), name)];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|path| path.is_dir())
            .collect();
        dirs.sort();
        for member in dirs {
            let name = package_name(&member.join("Cargo.toml")).unwrap_or_else(|| {
                member
                    .file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .to_string()
            });
            members.push((member, name));
        }
    }
    Ok(members)
}

/// Reads the `name = "..."` of a `Cargo.toml`'s `[package]` section.
#[must_use]
pub fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if let Some(header) = line.strip_prefix('[') {
            in_package = header.trim_end_matches(']').trim() == "package";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if key.trim() == "name" {
                let value = value.trim();
                return value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .map(str::to_string);
            }
        }
    }
    None
}

/// Recursively collects `.rs` files under `dir` (if it exists), skipping
/// vendored and build output trees and the lint's own rule fixtures.
fn collect_tree(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|entry| entry.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "third_party" || name == "fixtures" {
                continue;
            }
            collect_tree(root, &path, crate_name, files)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(SourceFile {
                rel_path: rel_path(root, &path),
                crate_name: crate_name.to_string(),
                source: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across platforms for
/// waiver matching and report output).
#[must_use]
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_reads_the_package_section_only() {
        let dir = neummu_testdir::ScratchDir::new("lint-ws");
        let manifest = dir.join("Cargo.toml");
        fs::write(
            &manifest,
            "[workspace]\nmembers = []\n[package]\nname = \"demo_crate\"\nversion = \"0.1.0\"\n",
        )
        .unwrap();
        assert_eq!(package_name(&manifest).as_deref(), Some("demo_crate"));
    }

    #[test]
    fn rel_path_uses_forward_slashes() {
        let root = Path::new("/ws");
        let path = Path::new("/ws/crates/core/src/engine.rs");
        assert_eq!(rel_path(root, path), "crates/core/src/engine.rs");
    }
}
