//! The persistent per-key slot store.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::atomic::{clean_stale_temps, sync_dir_of, temp_path_for};
use crate::fault::{CommitStep, FaultPlan};
use crate::slot::{decode_slot, encode_slot};

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// A real filesystem error.
    Io(io::Error),
    /// An armed [`FaultPlan`] killed the commit protocol at the given step.
    /// The on-disk state is exactly what a crash at that instant leaves.
    InjectedCrash {
        /// The step the injected crash struck at.
        step: CommitStep,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "store I/O error: {err}"),
            Self::InjectedCrash { step } => {
                write!(f, "injected crash at commit step `{}`", step.label())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

/// Snapshot of a store's lookup/commit counters. The three lookup outcomes
/// are disjoint: every [`Store::get`] is exactly one hit, miss, or recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups served from a committed slot.
    pub hits: u64,
    /// Lookups that found no slot (or a slot committed under a different
    /// key — a hash collision or a foreign schema namespace).
    pub misses: u64,
    /// Lookups that found a torn, corrupt or stale-version slot, deleted it,
    /// and fell back to recompute.
    pub recovered: u64,
    /// Slots committed (renames that reached the commit point).
    pub commits: u64,
}

/// A crash-safe, idempotent per-key persistence directory.
///
/// Keys are arbitrary strings (the runner namespaces them, e.g.
/// `oracle/v1/…`); payloads are opaque bytes. A slot file is named by a
/// 64-bit FNV-1a hash of its key, and carries the full key inside its
/// checksummed envelope, so collisions and stale schemas are detected by
/// comparison, never trusted by file name.
///
/// **Recovery semantics.** [`Store::get`] returns `Some` only for a slot
/// that decodes completely, passes its CRC, carries the current format
/// version and the exact requested key. Anything else — absent, torn,
/// corrupt, stale — is a recompute: damaged files are deleted on sight. A
/// damaged store therefore never fails a run and never changes a result; it
/// only costs the recompute of the damaged keys, and because every producer
/// is deterministic, the recomputed commit is byte-identical to the lost
/// one (the idempotent-recompute argument in ARCHITECTURE.md).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    fault: FaultPlan,
    hits: AtomicU64,
    misses: AtomicU64,
    recovered: AtomicU64,
    commits: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store directory and removes the temp
    /// file debris of any crashed predecessor.
    ///
    /// # Errors
    ///
    /// An I/O error if the directory cannot be created or scanned.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_fault(dir, FaultPlan::none())
    }

    /// [`Store::open`] with an armed [`FaultPlan`] — the test entry point
    /// for in-process crash injection.
    ///
    /// # Errors
    ///
    /// An I/O error if the directory cannot be created or scanned.
    pub fn open_with_fault(dir: impl Into<PathBuf>, fault: FaultPlan) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        clean_stale_temps(&dir)?;
        Ok(Store {
            dir,
            fault,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of a key's slot.
    #[must_use]
    pub fn slot_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.slot", fnv1a64(key)))
    }

    /// Looks up the committed payload of `key`.
    ///
    /// Returns `None` for an absent slot, a slot committed under a different
    /// key, or a damaged slot (which is deleted). Never returns partial or
    /// unverified bytes.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.slot_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                // Absent (or unreadable, which we treat identically: the
                // slot cannot be trusted, so the caller recomputes).
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_slot(&bytes) {
            Ok((slot_key, payload)) if slot_key == key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Ok(_) => {
                // A committed slot for some other key: a 64-bit hash
                // collision or a foreign namespace. Not damage — the next
                // put for our key overwrites it (last writer wins; both
                // writers recompute deterministically, so correctness never
                // depends on who).
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_damage) => {
                // Torn, corrupt or stale-version: delete and recompute.
                fs::remove_file(&path).ok();
                self.recovered.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Commits `payload` under `key` with the crash-safe protocol:
    /// write the slot to a temp file, `fsync`, atomically rename over the
    /// slot path (the commit point), `fsync` the directory.
    ///
    /// Committing the same key twice is idempotent in the store's contract:
    /// producers are deterministic per key, so any two commits carry the
    /// same bytes and the last rename wins harmlessly.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on a real filesystem error;
    /// [`StoreError::InjectedCrash`] when the armed [`FaultPlan`] strikes
    /// (on-disk state is exactly the crash state for the struck step).
    pub fn put(&self, key: &str, payload: &[u8]) -> Result<(), StoreError> {
        let put_index = self.fault.begin_put();
        if self.fault.strikes(put_index, CommitStep::PreWrite) {
            return Err(StoreError::InjectedCrash {
                step: CommitStep::PreWrite,
            });
        }
        let bytes = encode_slot(key, payload);
        let path = self.slot_path(key);
        let tmp = temp_path_for(&path)?;
        if let Some(torn_at) = self.fault.torn_at(put_index) {
            // A mid-write crash: the temp file holds a prefix of the slot
            // (possibly unsynced in reality; writing it here is the *worst*
            // recoverable case, a fully visible tear).
            let mut file = fs::File::create(&tmp).map_err(StoreError::Io)?;
            file.write_all(&bytes[..torn_at.min(bytes.len())])
                .map_err(StoreError::Io)?;
            return Err(StoreError::InjectedCrash {
                step: CommitStep::MidWrite,
            });
        }
        let mut file = fs::File::create(&tmp).map_err(StoreError::Io)?;
        file.write_all(&bytes).map_err(StoreError::Io)?;
        file.sync_all().map_err(StoreError::Io)?;
        drop(file);
        if self.fault.strikes(put_index, CommitStep::PreRename) {
            return Err(StoreError::InjectedCrash {
                step: CommitStep::PreRename,
            });
        }
        fs::rename(&tmp, &path).map_err(StoreError::Io)?;
        sync_dir_of(&path);
        self.commits.fetch_add(1, Ordering::Relaxed);
        if self
            .fault
            .strikes(put_index, CommitStep::PostRenamePreJournal)
        {
            return Err(StoreError::InjectedCrash {
                step: CommitStep::PostRenamePreJournal,
            });
        }
        Ok(())
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
        }
    }

    /// Test helper: flips one bit of `key`'s slot file (bit-rot injection).
    /// Returns `false` if the slot does not exist.
    ///
    /// # Errors
    ///
    /// An I/O error if the slot exists but cannot be rewritten.
    pub fn corrupt_slot(&self, key: &str, bit_index: u64) -> io::Result<bool> {
        let path = self.slot_path(key);
        let mut bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(err) => return Err(err),
        };
        if bytes.is_empty() {
            return Ok(true);
        }
        let bit = bit_index % (bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        fs::write(&path, &bytes)?;
        Ok(true)
    }

    /// Test helper: truncates `key`'s slot file to `len` bytes (a torn
    /// final file, as left by filesystem corruption rather than by this
    /// store's own rename-based protocol). Returns `false` if the slot does
    /// not exist.
    ///
    /// # Errors
    ///
    /// An I/O error if the slot exists but cannot be rewritten.
    pub fn truncate_slot(&self, key: &str, len: usize) -> io::Result<bool> {
        let path = self.slot_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(err) => return Err(err),
        };
        fs::write(&path, &bytes[..len.min(bytes.len())])?;
        Ok(true)
    }
}

/// 64-bit FNV-1a over a key string — the slot file name. Collisions are
/// handled by the full key stored inside the slot, so the hash only needs
/// to spread names, not to be cryptographic.
fn fnv1a64(key: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPoint;
    use neummu_testdir::ScratchDir;

    fn temp_store(tag: &str) -> ScratchDir {
        ScratchDir::new(&format!("store-{tag}"))
    }

    #[test]
    fn get_after_put_roundtrips_and_counts() {
        let dir = temp_store("roundtrip");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get("a"), None);
        store.put("a", b"payload-a").unwrap();
        assert_eq!(store.get("a").as_deref(), Some(b"payload-a".as_ref()));
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.recovered, c.commits), (1, 1, 0, 1));
    }

    #[test]
    fn reopened_store_serves_previous_commits() {
        let dir = temp_store("reopen");
        {
            let store = Store::open(&dir).unwrap();
            store.put("persist/key", b"42").unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get("persist/key").as_deref(), Some(b"42".as_ref()));
    }

    #[test]
    fn recommit_overwrites_atomically() {
        let dir = temp_store("recommit");
        let store = Store::open(&dir).unwrap();
        store.put("k", b"old").unwrap();
        store.put("k", b"new-and-longer").unwrap();
        assert_eq!(store.get("k").as_deref(), Some(b"new-and-longer".as_ref()));
    }

    #[test]
    fn hash_collision_is_a_miss_not_a_lie() {
        let dir = temp_store("collision");
        let store = Store::open(&dir).unwrap();
        store.put("real-key", b"payload").unwrap();
        // Simulate a collision: copy the slot onto another key's path.
        let other = "other-key";
        fs::copy(store.slot_path("real-key"), store.slot_path(other)).unwrap();
        assert_eq!(store.get(other), None);
        assert_eq!(store.counters().misses, 1);
        // The real key is still served.
        assert_eq!(store.get("real-key").as_deref(), Some(b"payload".as_ref()));
    }

    #[test]
    fn corrupt_slot_is_deleted_and_recomputed() {
        let dir = temp_store("corrupt");
        let store = Store::open(&dir).unwrap();
        store.put("k", b"payload-bytes").unwrap();
        assert!(store.corrupt_slot("k", 123).unwrap());
        assert_eq!(store.get("k"), None);
        assert_eq!(store.counters().recovered, 1);
        assert!(!store.slot_path("k").exists());
        // Recompute commits again and is served.
        store.put("k", b"payload-bytes").unwrap();
        assert_eq!(store.get("k").as_deref(), Some(b"payload-bytes".as_ref()));
    }

    #[test]
    fn truncated_slot_is_deleted_and_recomputed() {
        let dir = temp_store("torn");
        let store = Store::open(&dir).unwrap();
        store.put("k", b"0123456789").unwrap();
        assert!(store.truncate_slot("k", 30).unwrap());
        assert_eq!(store.get("k"), None);
        assert_eq!(store.counters().recovered, 1);
    }

    #[test]
    fn every_commit_step_crash_recovers_to_committed_or_absent() {
        for step in CommitStep::ALL {
            for preexisting in [false, true] {
                let dir = temp_store(&format!("step_{}_{preexisting}", step.label()));
                {
                    let setup = Store::open(&dir).unwrap();
                    if preexisting {
                        setup.put("k", b"old-value").unwrap();
                    }
                }
                let store = Store::open_with_fault(
                    &dir,
                    // The faulted store is freshly opened, so its first put
                    // (index 0) is always the victim.
                    FaultPlan::crash_at(FaultPoint {
                        put_index: 0,
                        step,
                        torn_at: 17,
                    }),
                )
                .unwrap();
                let err = store.put("k", b"new-value").unwrap_err();
                assert!(matches!(err, StoreError::InjectedCrash { step: s } if s == step));
                drop(store);

                // "Reboot": reopen and observe.
                let recovered = Store::open(&dir).unwrap();
                let value = recovered.get("k");
                match step {
                    CommitStep::PreWrite | CommitStep::MidWrite | CommitStep::PreRename => {
                        // Before the commit point: the old state survives.
                        if preexisting {
                            assert_eq!(value.as_deref(), Some(b"old-value".as_ref()), "{step:?}");
                        } else {
                            assert_eq!(value, None, "{step:?}");
                        }
                    }
                    CommitStep::PostRenamePreJournal => {
                        // At/after the commit point: the new value is durable.
                        assert_eq!(value.as_deref(), Some(b"new-value".as_ref()), "{step:?}");
                    }
                }
                // No temp debris survives the reopen.
                for entry in fs::read_dir(&dir).unwrap() {
                    let name = entry.unwrap().file_name();
                    assert!(
                        !name.to_string_lossy().contains(crate::atomic::TMP_MARKER),
                        "stale temp {name:?} after recovery from {step:?}"
                    );
                }
                // And the slot can be (re)committed cleanly.
                recovered.put("k", b"new-value").unwrap();
                assert_eq!(recovered.get("k").as_deref(), Some(b"new-value".as_ref()));
            }
        }
    }

    #[test]
    fn fnv_spreads_distinct_keys() {
        assert_ne!(fnv1a64("a"), fnv1a64("b"));
        assert_ne!(fnv1a64("oracle/v1/x"), fnv1a64("tenant/v1/x"));
    }
}
