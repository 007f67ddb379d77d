//! Writing experiment artifacts (Markdown, CSV, JSON) to disk.
//!
//! Every write goes through [`neummu_store::atomic::write_atomic`] (temp file
//! → fsync → atomic rename), so a crash — including the SIGKILL the
//! crash/resume CI step delivers mid-run — can truncate no artifact: each
//! file on disk is either absent or complete. [`ExperimentArtifacts::new`]
//! sweeps up the temp debris a killed predecessor may have left, so a resumed
//! run's output directory is byte-identical to an uninterrupted one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

use neummu_sim::ResultTable;
use neummu_store::atomic::{clean_stale_temps, write_atomic};

/// A directory that collects the artifacts of one experiments run.
#[derive(Debug, Clone)]
pub struct ExperimentArtifacts {
    root: PathBuf,
    written: Vec<PathBuf>,
}

impl ExperimentArtifacts {
    /// Creates (if needed) the artifact directory and removes any temp
    /// debris left by a previous crashed run.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory cannot be created or read.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        clean_stale_temps(&root)?;
        Ok(ExperimentArtifacts {
            root,
            written: Vec::new(),
        })
    }

    /// The artifact directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Files written so far.
    #[must_use]
    pub fn written(&self) -> &[PathBuf] {
        &self.written
    }

    /// Writes a result table as both Markdown and CSV.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if a file cannot be written.
    pub fn table(&mut self, name: &str, table: &ResultTable) -> io::Result<()> {
        self.file(&format!("{name}.md"), table.to_markdown().as_bytes())?;
        self.file(&format!("{name}.csv"), table.to_csv().as_bytes())
    }

    /// Writes a serializable value as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be written or the value cannot
    /// be serialized.
    pub fn json<T: Serialize>(&mut self, name: &str, value: &T) -> io::Result<()> {
        let body = serde_json::to_string_pretty(value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.file(&format!("{name}.json"), body.as_bytes())
    }

    /// Writes one raw artifact file atomically under its final name. This is
    /// both the sink all typed writers funnel into and the restore path for
    /// artifacts journaled in a slot store: the bytes land exactly as given.
    ///
    /// # Errors
    ///
    /// Rejects file names with path separators (journaled names must stay
    /// inside the artifact directory) and propagates write errors.
    pub fn file(&mut self, file_name: &str, bytes: &[u8]) -> io::Result<()> {
        if file_name.contains(['/', '\\']) || file_name == ".." {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("artifact name `{file_name}` must not leave the artifact directory"),
            ));
        }
        let path = self.root.join(file_name);
        write_atomic(&path, bytes)?;
        self.written.push(path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_markdown_csv_and_json() {
        let dir = neummu_testdir::ScratchDir::new("artifacts");
        let mut artifacts = ExperimentArtifacts::new(&dir).unwrap();
        let mut table = ResultTable::new("demo", &["a", "b"]);
        table.push_row(&["1", "2"]);
        artifacts.table("demo", &table).unwrap();
        artifacts.json("demo_raw", &vec![1, 2, 3]).unwrap();
        assert_eq!(artifacts.written().len(), 3);
        let md = fs::read_to_string(dir.join("demo.md")).unwrap();
        assert!(md.contains("### demo"));
        let csv = fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert!(csv.starts_with("a,b"));
        let json = fs::read_to_string(dir.join("demo_raw.json")).unwrap();
        assert!(json.contains('1'));
    }

    #[test]
    fn opening_cleans_crash_debris_and_leaves_artifacts() {
        let dir = neummu_testdir::ScratchDir::new("artifacts-debris");
        fs::write(dir.join("fig08.md"), "committed").unwrap();
        fs::write(
            dir.join(format!("fig08.csv{}123", neummu_store::atomic::TMP_MARKER)),
            "torn",
        )
        .unwrap();
        let artifacts = ExperimentArtifacts::new(&dir).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join("fig08.md")).unwrap(),
            "committed"
        );
        assert_eq!(fs::read_dir(artifacts.root()).unwrap().count(), 1);
    }

    #[test]
    fn raw_file_restore_rejects_escaping_names() {
        let dir = neummu_testdir::ScratchDir::new("artifacts-escape");
        let mut artifacts = ExperimentArtifacts::new(&dir).unwrap();
        assert!(artifacts.file("../outside.md", b"x").is_err());
        assert!(artifacts.file("sub/inside.md", b"x").is_err());
        artifacts.file("inside.md", b"x").unwrap();
        assert_eq!(fs::read(dir.join("inside.md")).unwrap(), b"x");
    }
}
