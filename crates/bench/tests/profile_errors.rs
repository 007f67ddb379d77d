//! `neummu_profile` failure-path regression tests: a truncated, corrupted or
//! missing trace must exit nonzero with one clear `error:` line naming the
//! file — never a panic, never a partial report presented as complete. A
//! reader that stops early (`neummu_profile trace | head`) must end the run
//! quietly.

use std::process::{Command, Stdio};

use neummu_trace::{Event, TraceSink};

use neummu_testdir::ScratchDir;

fn temp_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("profile-errors-{tag}"))
}

/// Runs `neummu_profile` on `trace_arg` and asserts the failure contract:
/// nonzero exit, empty stdout, exactly one stderr line of the form
/// `error: ...` that names the trace file, and no panic backtrace.
fn assert_clean_failure(trace_arg: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_neummu_profile"))
        .arg(trace_arg)
        .output()
        .expect("spawn neummu_profile");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "`{trace_arg}` should fail but exited 0"
    );
    assert!(
        output.stdout.is_empty(),
        "`{trace_arg}` printed a report despite failing"
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "expected one error line for `{trace_arg}`, got:\n{stderr}"
    );
    assert!(
        stderr.starts_with("error: ") && stderr.contains(trace_arg),
        "error line must name the file: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "decoder panicked on `{trace_arg}`: {stderr}"
    );
}

#[test]
fn truncated_traces_fail_with_one_clear_line() {
    let golden = include_bytes!("golden/smoke.trace");
    let dir = temp_dir("truncated");
    // Cut inside the header, at the header boundary, and mid-payload.
    for cut in [0, 1, 7, golden.len() / 2, golden.len() - 1] {
        let path = dir.join(format!("cut{cut}.trace"));
        std::fs::write(&path, &golden[..cut]).unwrap();
        assert_clean_failure(path.to_str().unwrap());
    }
}

#[test]
fn corrupt_header_fails_with_one_clear_line() {
    let mut bytes = include_bytes!("golden/smoke.trace").to_vec();
    for byte in bytes.iter_mut().take(8) {
        *byte = 0;
    }
    let dir = temp_dir("corrupt");
    let path = dir.join("zeroed.trace");
    std::fs::write(&path, &bytes).unwrap();
    assert_clean_failure(path.to_str().unwrap());
}

#[test]
fn missing_file_fails_with_one_clear_line() {
    let dir = temp_dir("missing");
    let path = dir.join("does-not-exist.trace");
    assert_clean_failure(path.to_str().unwrap());
}

/// The intact golden trace still reports cleanly — the failure paths above
/// are about damage, not about the analyzer rejecting valid input.
#[test]
fn intact_golden_trace_still_reports() {
    let dir = temp_dir("intact");
    let path = dir.join("smoke.trace");
    std::fs::write(&path, include_bytes!("golden/smoke.trace")).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_neummu_profile"))
        .arg(path.to_str().unwrap())
        .output()
        .expect("spawn neummu_profile");
    assert!(output.status.success());
}

/// A reader that closes the pipe before the report is written
/// (`neummu_profile trace --dump | head`) ends the run with a clean exit and
/// nothing on stderr, not a "failed printing to stdout" panic.
#[test]
fn closed_stdout_pipe_exits_quietly() {
    let dir = temp_dir("broken-pipe");
    let path = dir.join("large.trace");
    // Far more dump output than a pipe buffers, so the writer must hit the
    // closed pipe whenever the reader goes away.
    let sink = TraceSink::to_file(&path).unwrap();
    let kind = sink.kind("engine/page_walk");
    for i in 0..20_000u64 {
        sink.emit(Event {
            kind,
            asid: 1,
            start: i,
            end: i + 7,
            payload: 1,
        });
    }
    sink.finish().unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_neummu_profile"))
        .args([path.to_str().unwrap(), "--dump"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn neummu_profile");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("reap neummu_profile");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "exit {:?}, stderr:\n{stderr}",
        output.status
    );
    assert!(stderr.is_empty(), "unexpected stderr:\n{stderr}");
}
