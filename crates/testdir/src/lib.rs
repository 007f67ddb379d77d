//! Unique per-test scratch directories.
//!
//! Tests run as parallel threads of one process, and two test binaries can
//! run at once, so a temp path keyed only by the process id is shared by
//! every test that builds it from the same tag — and two tests racing on it
//! fail at random. [`ScratchDir::new`] instead creates a fresh, empty
//! directory whose name adds a process-wide counter to the tag and the
//! process id, and removes it again on drop.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fs;
use std::io::ErrorKind;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory owned by one test, removed on drop.
///
/// Dereferences to its [`Path`] and converts into a [`PathBuf`], so
/// `dir.join("file")` and `&dir` work wherever a path is expected.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a new empty directory under the system temp directory, named
    /// `neummu-<tag>-<pid>-<n>`, where `n` is never reused within the
    /// process.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let base = std::env::temp_dir();
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = base.join(format!("neummu-{tag}-{}-{n}", std::process::id()));
            match fs::create_dir(&path) {
                Ok(()) => return ScratchDir { path },
                // Left behind by an earlier process with the same id.
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("cannot create scratch dir {}: {e}", path.display()),
            }
        }
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl From<&ScratchDir> for PathBuf {
    fn from(dir: &ScratchDir) -> PathBuf {
        dir.path.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_gives_distinct_empty_dirs_removed_on_drop() {
        let a = ScratchDir::new("same");
        let b = ScratchDir::new("same");
        assert_ne!(a.path(), b.path());
        assert!(a.is_dir() && b.is_dir());
        assert_eq!(fs::read_dir(&a).unwrap().count(), 0);
        fs::write(a.join("file"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.is_dir());
    }

    #[test]
    fn parallel_threads_never_share_a_dir() {
        let start = std::sync::Barrier::new(8);
        let dirs: Vec<PathBuf> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ScratchDir::new("par")
                    })
                })
                .collect();
            let dirs: Vec<ScratchDir> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            dirs.iter().map(|d| d.path().to_path_buf()).collect()
        });
        let mut unique = dirs.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), dirs.len());
    }
}
