#!/usr/bin/env bash
# Compares the perfbench benchmark of a base commit with the working tree, in
# interleaved pairs of runs.
#
#   scripts/bench_compare.sh <base-commit> [--pairs N] [--workload NAME]...
#
# * The base commit is exported with `git archive` into
#   `.bench_build/compare-src/<sha>` (no worktree is registered, so an
#   interrupted run leaves nothing behind in `.git`), and perfbench is built
#   for it and for the working tree into two target directories under
#   `.bench_build/`.
# * Each pair runs `perfbench/run.py` once per side with `--trace 0`, seed 1
#   and the `run_seconds` of BENCHMARK.json. The side that goes first
#   alternates from pair to pair, so a drift in the machine's speed falls on
#   both sides alike.
# * For each workload and each end-to-end metric of BENCHMARK.json the
#   script prints both sides' median and quartiles, the change of the
#   median, and in how many pairs the working tree was better by the
#   metric's `better` direction (wins-of-N; ties are counted apart).
# * The last column judges each metric against its `bound`: `better` when the
#   working tree wins at least nine pairs in ten and its median gains more
#   than the base's quartile spread; `unresolved` when that spread is wider
#   than the bound; `worse` when the median lost more than the bound; else
#   `within bound` (or `identical` when every run agrees).
# * After the table, the script exits 1 if any run of either side was not
#   `correct` (its model checks failed), naming those runs on stderr, so an
#   incorrect change cannot be read as a gain.
#
# Defaults: 10 pairs (the number a claimed gain is judged on), every workload
# of BENCHMARK.json. The raw result lines are kept under
# `.bench_build/compare-runs/<sha>/<workload>/`; a later call replaces only
# the workloads it runs.
set -euo pipefail

usage() {
    echo "usage: $0 <base-commit> [--pairs N] [--workload NAME]..." >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_ref="$1"
shift
pairs=10
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
        --workload) workloads+=("${2:?--workload needs a value}"); shift 2 ;;
        *) usage ;;
    esac
done

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
sha="$(git rev-parse --verify --quiet "${base_ref}^{commit}")" || {
    echo "error: $base_ref is not a commit" >&2
    exit 2
}
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

build_dir="$root/.bench_build"
base_src="$build_dir/compare-src/$sha"
if [ ! -f "$base_src/perfbench/run.py" ]; then
    echo "exporting $sha to $base_src" >&2
    rm -rf "$base_src"
    mkdir -p "$base_src"
    git archive "$sha" | tar -x -C "$base_src"
fi

declare -A src=([base]="$base_src" [head]="$root")
declare -A target=([base]="$build_dir/compare-base" [head]="$build_dir/compare-head")
for side in base head; do
    echo "building perfbench ($side)" >&2
    CARGO_TARGET_DIR="${target[$side]}" cargo build --release --offline --quiet \
        --manifest-path "${src[$side]}/perfbench/Cargo.toml"
done

runs="$build_dir/compare-runs/$sha"
for workload in "${workloads[@]}"; do
    # Only this workload's earlier runs are replaced: a call on another
    # workload against the same base keeps its raw runs.
    rm -rf "$runs/$workload"
    mkdir -p "$runs/$workload"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
        for side in $order; do
            echo "$workload pair $pair/$pairs: $side" >&2
            CARGO_TARGET_DIR="${target[$side]}" python3 "${src[$side]}/perfbench/run.py" \
                --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$runs/$workload/$pair-$side.json"
        done
    done
done

python3 - "$runs" "$pairs" "${workloads[@]}" <<'EOF'
import json
import os
import statistics
import sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def cell(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(metric, base, head, bq, wins):
    if base == head:
        return "identical"
    gain = bq[1] - statistics.median(head)
    if metric["better"] == "higher":
        gain = -gain
    spread = bq[2] - bq[0]
    if wins * 10 >= 9 * len(base) and gain > spread:
        return "better"
    if spread > metric["bound"] * abs(bq[1]):
        return "unresolved"
    if -gain > metric["bound"] * abs(bq[1]):
        return "worse"
    return "within bound"


incorrect = []
for workload in workloads:
    results = {
        side: [json.load(open(os.path.join(runs, workload, f"{p}-{side}.json")))
               for p in range(1, pairs + 1)]
        for side in ("base", "head")
    }
    for side, rs in results.items():
        bad = [i + 1 for i, r in enumerate(rs) if not r["correct"]]
        if bad:
            incorrect.append(f"{workload} {side} runs {bad}")
    print(f"\n{workload}: {pairs} pairs")
    print(f"{'metric':<20} {'base median [q1, q3]':>36} {'head median [q1, q3]':>36}"
          f" {'change':>8} {'head wins':>10}  verdict")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in results["base"]]
        head = [r["metrics"][name]["value"] for r in results["head"]]
        bq, hq = quartiles(base), quartiles(head)
        change = (hq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        ties = sum(h == b for b, h in zip(base, head))
        tie_note = f"(={ties})" if ties else ""
        print(f"{name:<20} {cell(bq):>36} {cell(hq):>36} {change:>+7.1f}%"
              f" {wins:>6}/{pairs} {tie_note:<6} {verdict(metric, base, head, bq, wins)}")

# A run whose model checks failed measured something else: no verdict above
# may be read as a gain.
if incorrect:
    for runs_named in incorrect:
        print(f"error: {runs_named} were not correct", file=sys.stderr)
    sys.exit(1)
EOF
