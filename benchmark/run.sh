#!/usr/bin/env bash
# Performance ledger: run every workload RUNS times and write one row per
# (run, end-to-end metric) -- workload, metric, value, unit, cores, scale,
# seed, commit -- to OUT/ledger-<label>.jsonl.
#
#   benchmark/run.sh [-n RUNS] [-o OUT] [COMMIT [COMMIT]]
#
# With no commit, the working tree is built into build-bench/ and its rows
# are labelled `git describe --always --dirty`.  Each COMMIT is exported
# under OUT/src-<sha>/ with this tree's benchmark/ laid over it -- both
# sides run identical benchmark code -- and built there.  With two commits
# the runs interleave, alternating which side goes first, and the script
# ends with `cvewb-bench compare FIRST SECOND`.  Run i uses seed i on every
# side, which is what compare pairs on.  Every run measures for
# BENCHMARK.json's run_seconds.  Defaults: 3 runs, OUT = build-bench/ledger.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$root/BENCHMARK.json"
runs=3
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
out="$root/build-bench/ledger"
while getopts "n:o:" opt; do
  case "$opt" in
    n) runs="$OPTARG" ;;
    o) out="$OPTARG" ;;
    *) sed -n '2,16p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if (( $# > 2 )); then
  echo "run.sh: at most two commits" >&2
  exit 2
fi
workloads="$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

build_tree() {  # $1 = source root; prints the benchmark binary's path
  cmake -S "$1/benchmark" -B "$1/build-bench" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$1/build-bench" --target cvewb-bench -j "$(nproc)" >&2
  echo "$1/build-bench/cvewb-bench"
}

labels=()
bins=()
if (( $# == 0 )); then
  labels+=("$(git -C "$root" describe --always --dirty 2>/dev/null || echo worktree)")
  bins+=("$(build_tree "$root")")
else
  for commit in "$@"; do
    sha="$(git -C "$root" rev-parse --short "$commit")"
    src="$out/src-$sha"
    rm -rf "$src"
    mkdir -p "$src"
    git -C "$root" archive "$sha" | tar -x -C "$src"
    rm -rf "$src/benchmark"
    cp -r "$root/benchmark" "$src/benchmark"
    cp "$spec" "$src/BENCHMARK.json"
    labels+=("$sha")
    bins+=("$(build_tree "$src")")
  done
fi
for label in "${labels[@]}"; do : > "$out/ledger-$label.jsonl"; done

for ((i = 1; i <= runs; ++i)); do
  for workload in $workloads; do
    order=(0 1)
    (( i % 2 == 0 )) && order=(1 0)
    for k in "${order[@]}"; do
      (( k < ${#bins[@]} )) || continue
      echo "run $i/$runs  $workload  ${labels[k]}" >&2
      "${bins[k]}" run --workload "$workload" --seed "$i" --seconds "$seconds" \
        --work-dir "$out/work" --out "$out/ledger-${labels[k]}.jsonl" --commit "${labels[k]}" \
        | tail -n 1 >&2
    done
  done
done

for label in "${labels[@]}"; do echo "ledger: $out/ledger-$label.jsonl" >&2; done
if (( ${#bins[@]} == 2 )); then
  "${bins[0]}" compare --bench "$spec" "$out/ledger-${labels[0]}.jsonl" \
    "$out/ledger-${labels[1]}.jsonl"
fi
