//! `neummu_experiments` argument errors: an unknown `--only` id must fail
//! before any simulation with one clear `error:` line listing the valid ids,
//! so a renamed family can never turn a `--only` smoke run into a vacuous
//! pass over an empty artifact directory.

use std::process::Command;

use neummu_testdir::ScratchDir;

#[test]
fn unknown_only_id_fails_with_one_line_listing_the_valid_ids() {
    let dir = ScratchDir::new("experiments-cli-unknown-only");
    let out = dir.join("results");
    let output = Command::new(env!("CARGO_BIN_EXE_neummu_experiments"))
        .args(["--quick", "--only", "serving,fig12z", "--out"])
        .arg(&out)
        .output()
        .expect("spawn neummu_experiments");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert_eq!(
        stderr.lines().count(),
        1,
        "expected one line, got:\n{stderr}"
    );
    assert!(
        stderr.starts_with("error: unknown experiment id `fig12z`"),
        "{stderr}"
    );
    for id in ["table1", "fig12a", "serving", "resilience"] {
        assert!(stderr.contains(id), "valid id `{id}` not listed: {stderr}");
    }
    assert!(output.stdout.is_empty(), "simulated despite the bad id");
    assert!(
        !out.exists(),
        "created the artifact directory despite the bad id"
    );
}
