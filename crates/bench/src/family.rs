//! Journaling finished experiment families into a slot store.
//!
//! A resumed sweep should not rerun families it already finished. After an
//! experiment family's artifacts are all on disk, the runner commits one
//! **manifest slot** holding every artifact file the family produced — names
//! and bytes. On resume, a valid manifest short-circuits the family: the
//! artifacts are restored byte-for-byte from the slot (atomically, via
//! [`ExperimentArtifacts::file`]) and the simulation is skipped. Because the
//! manifest carries the bytes themselves, restoration is correct even if the
//! output directory was damaged or deleted between runs — the `diff -r`
//! acceptance check cannot tell a restored tree from a recomputed one.
//!
//! The manifest is committed *after* the artifacts (the slot rename is the
//! commit point), so a crash between artifact writes and the manifest commit
//! simply reruns the family; rerunning overwrites the artifacts with
//! identical bytes — idempotent by determinism.

use std::io;

use neummu_store::{ByteReader, ByteWriter, CodecError, Store};

use crate::artifacts::ExperimentArtifacts;

/// Key namespace for family manifests. Bump on any manifest layout change.
const FAMILY_NAMESPACE: &str = "family/v1";

/// The store key of one experiment family at one scale.
#[must_use]
pub fn family_key(scale_label: &str, family_id: &str) -> String {
    format!("{FAMILY_NAMESPACE}/{scale_label}/{family_id}")
}

/// Encodes a family manifest: every artifact the family wrote, as
/// `(file name, bytes)` pairs in write order.
#[must_use]
pub fn encode_manifest(files: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut writer = ByteWriter::new();
    writer.u64(files.len() as u64);
    for (name, bytes) in files {
        writer.str(name);
        writer.bytes(bytes);
    }
    writer.into_bytes()
}

/// Decodes a manifest payload produced by [`encode_manifest`].
///
/// # Errors
///
/// [`CodecError`] on truncation, an impossible length prefix, or trailing
/// bytes.
pub fn decode_manifest(payload: &[u8]) -> Result<Vec<(String, Vec<u8>)>, CodecError> {
    let mut reader = ByteReader::new(payload);
    let len = reader.u64()?;
    if len > reader.remaining() as u64 {
        return Err(CodecError::Invalid("manifest length exceeds payload"));
    }
    let mut files = Vec::with_capacity(len as usize);
    for _ in 0..len {
        let name = reader.str()?;
        let bytes = reader.bytes()?.to_vec();
        files.push((name, bytes));
    }
    reader.finish()?;
    Ok(files)
}

/// Restores a finished family from the store, if journaled: writes every
/// manifest artifact (atomically) into `artifacts` and returns `true`. A
/// missing, damaged or undecodable manifest returns `false` — the caller
/// reruns the family.
///
/// # Errors
///
/// Only artifact-write I/O errors propagate (the output directory is
/// unusable); store damage is a silent "not journaled".
pub fn restore_family(
    store: &Store,
    key: &str,
    artifacts: &mut ExperimentArtifacts,
) -> io::Result<bool> {
    let Some(manifest) = store.get(key).and_then(|p| decode_manifest(&p).ok()) else {
        return Ok(false);
    };
    for (name, bytes) in &manifest {
        // A manifest minted by `commit_family` can only hold flat names, but
        // the slot is external input: a name that would escape the artifact
        // directory marks the whole manifest untrusted.
        if artifacts.file(name, bytes).is_err() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Journals a finished family: reads back every artifact written since
/// `first_artifact` and commits the manifest slot. Failures are swallowed —
/// journaling is an optimization; the family's artifacts are already safely
/// on disk.
pub fn commit_family(
    store: &Store,
    key: &str,
    artifacts: &ExperimentArtifacts,
    first_artifact: usize,
) {
    let mut files = Vec::new();
    for path in &artifacts.written()[first_artifact..] {
        let (Some(name), Ok(bytes)) = (
            path.file_name().map(|n| n.to_string_lossy().into_owned()),
            std::fs::read(path),
        ) else {
            return;
        };
        files.push((name, bytes));
    }
    let _ = store.put(key, &encode_manifest(&files));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> neummu_testdir::ScratchDir {
        neummu_testdir::ScratchDir::new(&format!("family-{tag}"))
    }

    #[test]
    fn manifest_roundtrips() {
        let files = vec![
            ("fig08.md".to_string(), b"|a|b|".to_vec()),
            ("fig08.csv".to_string(), b"a,b\n1,2\n".to_vec()),
            ("fig08_raw.json".to_string(), vec![0, 159, 146, 150]),
        ];
        let decoded = decode_manifest(&encode_manifest(&files)).unwrap();
        assert_eq!(decoded, files);
        assert!(decode_manifest(&encode_manifest(&files)[..5]).is_err());
    }

    #[test]
    fn commit_then_restore_reproduces_artifacts_byte_for_byte() {
        let out_a = temp_dir("commit_a");
        let out_b = temp_dir("commit_b");
        let store_dir = temp_dir("commit_store");
        let store = Store::open(&store_dir).unwrap();

        let mut run = ExperimentArtifacts::new(&out_a).unwrap();
        run.file("fig.md", b"markdown").unwrap();
        run.file("fig.csv", b"c,s,v").unwrap();
        commit_family(&store, &family_key("quick", "fig"), &run, 0);

        // Restore into a different (empty) directory: same bytes.
        let mut resumed = ExperimentArtifacts::new(&out_b).unwrap();
        assert!(restore_family(&store, &family_key("quick", "fig"), &mut resumed).unwrap());
        assert_eq!(fs::read(out_b.join("fig.md")).unwrap(), b"markdown");
        assert_eq!(fs::read(out_b.join("fig.csv")).unwrap(), b"c,s,v");
        // Unknown family and different scale stay unjournaled.
        assert!(!restore_family(&store, &family_key("full", "fig"), &mut resumed).unwrap());
    }

    #[test]
    fn corrupt_manifest_falls_back_to_rerun() {
        let out = temp_dir("corrupt_out");
        let store_dir = temp_dir("corrupt_store");
        let store = Store::open(&store_dir).unwrap();
        let key = family_key("quick", "fig");

        let mut run = ExperimentArtifacts::new(&out).unwrap();
        run.file("fig.md", b"markdown").unwrap();
        commit_family(&store, &key, &run, 0);
        store.corrupt_slot(&key, 300).unwrap();

        let mut resumed = ExperimentArtifacts::new(&out).unwrap();
        assert!(!restore_family(&store, &key, &mut resumed).unwrap());
    }

    #[test]
    fn hostile_manifest_names_do_not_escape() {
        let out = temp_dir("hostile_out");
        let store_dir = temp_dir("hostile_store");
        let store = Store::open(&store_dir).unwrap();
        let key = family_key("quick", "evil");
        let manifest = encode_manifest(&[("../escape.md".to_string(), b"x".to_vec())]);
        store.put(&key, &manifest).unwrap();

        let mut resumed = ExperimentArtifacts::new(&out).unwrap();
        assert!(!restore_family(&store, &key, &mut resumed).unwrap());
        assert!(!out.parent().unwrap().join("escape.md").exists());
    }
}
