//! The temp + fsync + atomic-rename write primitive.
//!
//! POSIX `rename(2)` within one directory is atomic: observers see either
//! the old file (or no file) or the complete new file, never a mixture. By
//! writing into a uniquely named temp file in the *same* directory, fsyncing
//! it, and renaming it over the destination, a crash at any instant leaves
//! either the previous state or the fully written new file — plus possibly a
//! stale temp file, which [`clean_stale_temps`] removes on the next run and
//! which no reader ever opens.
//!
//! Every artifact the experiments binary writes (`.json`/`.csv`/`.md`) and
//! every store slot goes through this path, so a mid-write SIGKILL can never
//! leave a truncated artifact on disk.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Marker embedded in temp file names. Cleanup matches on it, and the
/// process id suffix keeps two concurrent writers (or a writer racing a
/// crashed predecessor's leftovers) from colliding.
pub const TMP_MARKER: &str = ".neummu-tmp";

/// Builds the temp path next to `path` (same directory, so the rename never
/// crosses a filesystem boundary).
pub(crate) fn temp_path_for(path: &Path) -> io::Result<std::path::PathBuf> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut name = file_name.to_os_string();
    name.push(TMP_MARKER);
    name.push(std::process::id().to_string());
    Ok(path.with_file_name(name))
}

/// Opens the parent directory and fsyncs it so the rename itself is durable.
/// Best-effort: directory fsync is a Linux-ism and failing to sync the
/// directory only weakens durability, never atomicity, so errors are
/// swallowed.
pub(crate) fn sync_dir_of(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the destination, directory fsync.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing or renaming the temp file.
/// On error the destination is untouched (the temp file may remain; it is
/// ignored by readers and removed by [`clean_stale_temps`]).
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = temp_path_for(path)?;
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    } else {
        sync_dir_of(path);
    }
    result
}

/// Removes every leftover temp file (`*.neummu-tmp*`) in `dir` — the debris
/// of a crashed previous run. Returns how many were removed. Non-recursive:
/// both the store and the artifact directory are flat.
///
/// # Errors
///
/// Returns the error of reading the directory; failure to remove an
/// individual leftover is ignored (the next run retries).
pub fn clean_stale_temps(dir: impl AsRef<Path>) -> io::Result<u64> {
    let mut removed = 0;
    for entry in fs::read_dir(dir.as_ref())? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_string_lossy().contains(TMP_MARKER) && fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> neummu_testdir::ScratchDir {
        neummu_testdir::ScratchDir::new(&format!("store-atomic-{tag}"))
    }

    #[test]
    fn writes_land_complete_and_replace_previous_content() {
        let dir = temp_dir("write");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second-longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second-longer");
        // No temp debris after successful writes.
        assert_eq!(clean_stale_temps(&dir).unwrap(), 0);
    }

    #[test]
    fn stale_temps_are_cleaned_but_real_files_survive() {
        let dir = temp_dir("clean");
        fs::write(dir.join(format!("slot.bin{TMP_MARKER}999")), b"torn").unwrap();
        fs::write(dir.join("slot.bin"), b"committed").unwrap();
        assert_eq!(clean_stale_temps(&dir).unwrap(), 1);
        assert_eq!(fs::read(dir.join("slot.bin")).unwrap(), b"committed");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
    }

    #[test]
    fn directoryless_path_is_an_input_error() {
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
