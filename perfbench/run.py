#!/usr/bin/env python3
"""Builds the NeuMMU simulator benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package next to this script. It is built in
release mode into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run
once for the workload. Its standard output is passed through; the last line
is the result object. Build output goes to standard error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run measures for --seconds plus set-up and its last pass; anything
# near the limit means the benchmark hung. A cold build takes well under a
# minute; the two limits together stay under 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(command, timeout, **kwargs):
    """Runs `command` in its own process group and waits for it; on timeout
    kills the whole group (cargo's compiler children included) before
    raising."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    # The benchmark builds against the repository's crates by path.
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        fail(f"no simulator sources under {ROOT}; run from a full checkout")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        code, _ = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if code != 0:
        fail(f"build failed with exit code {code}")

    exe = os.path.join(target, "release", "neummu_perfbench")
    command = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    try:
        code, stdout = run(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    lines = stdout.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"benchmark exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.stderr.write(stdout)
        fail(f"last line is not a result object: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(stdout)
        fail(f"unexpected result keys {sorted(result)}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
