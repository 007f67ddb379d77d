//! End-to-end tests of the tracing subsystem: the real `neummu_experiments`
//! and `neummu_profile` binaries, spawned as subprocesses.
//!
//! Two properties are pinned:
//!
//! * **Trace-content determinism** — the canonical content (`--dump`) of a
//!   trace recorded with `--threads 1` is byte-identical to one recorded
//!   with `--threads 4`. File order and kind-id numbering may differ (they
//!   depend on buffer-drain order); the decoded, sorted, `wall/`-free event
//!   multiset may not.
//! * **Analyzer golden output** — `neummu_profile` rendering of a checked-in
//!   smoke trace (`tests/golden/smoke.trace`, written from a fixed synthetic
//!   event set) matches checked-in golden text byte-for-byte, for both the
//!   breakdown tables and the `--dump` canonical lines. This pins the wire
//!   format, the decoder, and the table rendering at once.
//!
//! To regenerate the goldens after an intentional format or rendering
//! change:
//!
//! ```text
//! cargo test -p neummu_bench --test trace_pipeline -- --ignored regenerate
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use neummu_testdir::ScratchDir;
use neummu_trace::{Event, TraceSink};

fn temp_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("trace-e2e-{tag}"))
}

fn run_experiments(args: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_neummu_experiments"))
        .args(args)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn neummu_experiments");
    assert!(status.success(), "neummu_experiments {args:?} failed");
}

fn profile_stdout(current_dir: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_neummu_profile"))
        .current_dir(current_dir)
        .args(args)
        .output()
        .expect("spawn neummu_profile");
    assert!(
        output.status.success(),
        "neummu_profile {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("analyzer output is UTF-8")
}

/// A trace recorded on the serial reference schedule and one recorded on
/// four worker threads have identical canonical content, and that content
/// actually contains the engine, scheduler, and simulator emission points.
#[test]
fn trace_content_is_identical_across_thread_counts() {
    let dir = temp_dir("threads");
    let mut dumps = Vec::new();
    for threads in ["1", "4"] {
        let out = dir.join(format!("out{threads}"));
        let trace = dir.join(format!("t{threads}.trace"));
        run_experiments(&[
            "--quick",
            "--only",
            "fig08,multitenant",
            "--out",
            out.to_str().unwrap(),
            "--threads",
            threads,
            "--profile-trace",
            trace.to_str().unwrap(),
        ]);
        dumps.push(profile_stdout(&dir, &[trace.to_str().unwrap(), "--dump"]));
    }
    assert!(!dumps[0].is_empty(), "canonical dump is empty");
    assert_eq!(
        dumps[0], dumps[1],
        "canonical trace content differs between --threads 1 and --threads 4"
    );
    for kind in ["engine/page_walk", "tenant/turn", "sim/dense/layer"] {
        assert!(
            dumps[0].lines().any(|l| l.starts_with(kind)),
            "no `{kind}` events in the trace"
        );
    }
}

/// The fixed synthetic event set behind `tests/golden/smoke.trace`: every
/// label namespace, two tenants, payloads that differ from span lengths.
/// Byte-deterministic (the sink reads no clocks), so the checked-in trace
/// can be compared bit-for-bit.
fn write_smoke_trace(path: &Path) {
    let sink = TraceSink::to_file(path).unwrap();
    let walk = sink.kind("engine/page_walk");
    let hit = sink.kind("engine/tlb_hit");
    let turn = sink.kind("tenant/turn");
    let layer = sink.kind("sim/dense/layer");
    let wall = sink.kind("wall/job/fig08");
    let count = sink.kind("count/hot/probes");
    let events = [
        (walk, 1u16, 0u64, 40u64, 1u64),
        (walk, 1, 40, 120, 2),
        (walk, 2, 120, 200, 3),
        (hit, 1, 10, 12, 1),
        (turn, 1, 0, 100, 32),
        (turn, 2, 100, 230, 32),
        (layer, 0, 0, 500, 64),
        (wall, 0, 0, 1_500_000, 1),
        (wall, 0, 1_500_000, 2_500_000, 1),
        (count, 0, 0, 0, 7),
        (count, 0, 0, 0, 3),
    ];
    for (kind, asid, start, end, payload) in events {
        sink.emit(Event {
            kind,
            asid,
            start,
            end,
            payload,
        });
    }
    assert_eq!(sink.finish().unwrap(), 11);
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The checked-in smoke trace is exactly what `write_smoke_trace` produces —
/// i.e. the writer's byte output has not drifted from the checked-in file.
#[test]
fn checked_in_smoke_trace_is_reproducible() {
    let dir = temp_dir("repro");
    let path = dir.join("smoke.trace");
    write_smoke_trace(&path);
    let regenerated = std::fs::read(&path).unwrap();
    assert_eq!(
        regenerated,
        include_bytes!("golden/smoke.trace"),
        "trace writer no longer reproduces tests/golden/smoke.trace — if the \
         wire format changed intentionally, bump TRACE_VERSION and regenerate \
         the goldens (see the module docs)"
    );
}

/// `neummu_profile` renders the checked-in smoke trace exactly as the
/// checked-in golden text says, for the breakdown tables (`--top 3`
/// exercises the clip note) and the canonical `--dump`.
#[test]
fn profile_output_matches_golden() {
    let dir = temp_dir("golden");
    std::fs::write(
        dir.join("smoke.trace"),
        include_bytes!("golden/smoke.trace"),
    )
    .unwrap();
    // Run from the temp dir with a relative path so the printed header line
    // is reproducible.
    let tables = profile_stdout(&dir, &["smoke.trace", "--top", "3"]);
    assert_eq!(tables, include_str!("golden/smoke_profile.md"));
    let dump = profile_stdout(&dir, &["smoke.trace", "--dump"]);
    assert_eq!(dump, include_str!("golden/smoke_profile.dump"));
}

/// A trace recorded from a fault-injected run renders the device-fault
/// section — and the checked-in fault-free golden rendering (asserted above)
/// proves the section is absent when no `fault/*` labels were interned.
#[test]
fn faulted_trace_renders_the_fault_section() {
    let dir = temp_dir("faults");
    let trace = dir.join("faulted.trace");
    run_experiments(&[
        "--quick",
        "--only",
        "resilience",
        "--out",
        dir.join("out").to_str().unwrap(),
        "--profile-trace",
        trace.to_str().unwrap(),
    ]);
    let tables = profile_stdout(&dir, &[trace.to_str().unwrap()]);
    assert!(
        tables.contains("### Device faults"),
        "fault-injected trace did not render the device-fault section"
    );
    // Recovered and hung outcomes both appear: the smoke sweep runs the
    // all-on stack (recovers) and the all-off baseline (livelock-detects).
    for kind in ["fault/stuck/recovered", "fault/dropped/hung"] {
        assert!(tables.contains(kind), "no `{kind}` row in the section");
    }
}

/// Regenerates `tests/golden/smoke.trace` and the two golden renderings.
/// Run explicitly after an intentional change (see the module docs).
#[test]
#[ignore = "writes into tests/golden/; run after intentional format changes"]
fn regenerate_trace_goldens() {
    let golden = golden_dir();
    let trace_path = golden.join("smoke.trace");
    write_smoke_trace(&trace_path);
    std::fs::write(
        golden.join("smoke_profile.md"),
        profile_stdout(&golden, &["smoke.trace", "--top", "3"]),
    )
    .unwrap();
    std::fs::write(
        golden.join("smoke_profile.dump"),
        profile_stdout(&golden, &["smoke.trace", "--dump"]),
    )
    .unwrap();
}
