//! End-to-end crash/resume determinism: the real `neummu_experiments`
//! binary, SIGKILLed mid-run with a store attached, then rerun — the resumed
//! artifact tree must be byte-identical to an uninterrupted run's.
//!
//! This is the out-of-process half of the fault-injection story (the
//! in-process half lives in `neummu_store`'s commit-protocol tests): no
//! injection hooks, a real kill at an arbitrary instant, real recovery.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use neummu_testdir::ScratchDir;

fn temp_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("crash-resume-{tag}"))
}

fn experiments(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_neummu_experiments"));
    command.args(args).stdout(std::process::Stdio::null());
    command
}

fn run_to_completion(args: &[&str]) {
    let status = experiments(args)
        .status()
        .expect("spawn neummu_experiments");
    assert!(status.success(), "neummu_experiments {args:?} failed");
}

/// Reads every file of a flat artifact directory into `name → bytes`.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("artifact dir exists") {
        let entry = entry.unwrap();
        files.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        );
    }
    files
}

/// `diff -r`-equivalent: identical file sets, identical bytes.
fn assert_dirs_identical(reference: &Path, candidate: &Path, context: &str) {
    let reference_files = dir_contents(reference);
    let candidate_files = dir_contents(candidate);
    assert_eq!(
        reference_files.keys().collect::<Vec<_>>(),
        candidate_files.keys().collect::<Vec<_>>(),
        "{context}: artifact file sets differ"
    );
    for (name, bytes) in &reference_files {
        assert_eq!(
            bytes, &candidate_files[name],
            "{context}: artifact `{name}` differs"
        );
    }
}

const FAMILIES: &str = "table1,fig08,fig12b,multitenant,serving,resilience";

fn baseline(dir: &Path) -> PathBuf {
    let out = dir.join("baseline");
    run_to_completion(&[
        "--quick",
        "--only",
        FAMILIES,
        "--threads",
        "1",
        "--out",
        out.to_str().unwrap(),
    ]);
    out
}

/// An uninterrupted `--store` run produces exactly the storeless artifact
/// tree (cold store), and so does a second run over the now-warm store
/// (everything restored from slots, nothing simulated).
#[test]
fn store_runs_match_the_storeless_baseline_cold_and_warm() {
    let dir = temp_dir("uninterrupted");
    let reference = baseline(&dir);
    let store = dir.join("store");
    for (label, out) in [
        ("cold", dir.join("out_cold")),
        ("warm", dir.join("out_warm")),
    ] {
        run_to_completion(&[
            "--quick",
            "--only",
            FAMILIES,
            "--threads",
            "1",
            "--out",
            out.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ]);
        assert_dirs_identical(&reference, &out, label);
    }
}

/// SIGKILL mid-run, then resume with the same flags: the resumed tree is
/// byte-identical to the uninterrupted baseline, at `--threads 1` and
/// `--threads 4`. Several kill delays are tried so the kill lands in
/// different phases of the run (including possibly after completion — the
/// contract must hold wherever it lands).
#[test]
fn killed_runs_resume_to_byte_identical_artifacts() {
    let dir = temp_dir("killed");
    let reference = baseline(&dir);
    for threads in ["1", "4"] {
        for (case, kill_after_ms) in [(0u32, 40u64), (1, 120), (2, 250)] {
            let out = dir.join(format!("out_t{threads}_k{case}"));
            let store = dir.join(format!("store_t{threads}_k{case}"));
            let args = [
                "--quick",
                "--only",
                FAMILIES,
                "--threads",
                threads,
                "--out",
                out.to_str().unwrap(),
                "--store",
                store.to_str().unwrap(),
            ];
            let mut child = experiments(&args)
                .spawn()
                .expect("spawn neummu_experiments");
            std::thread::sleep(Duration::from_millis(kill_after_ms));
            // SIGKILL: no destructors, no flush — whatever is mid-write
            // stays torn on disk exactly as a power loss would leave it.
            child.kill().ok();
            child.wait().expect("reap killed child");

            run_to_completion(&args);
            assert_dirs_identical(
                &reference,
                &out,
                &format!("threads={threads} kill_after={kill_after_ms}ms"),
            );
        }
    }
}
