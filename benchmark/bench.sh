#!/usr/bin/env bash
# Run one benchmark workload from a source checkout, building first.
#
#   bash benchmark/bench.sh --workload NAME --seed S --seconds N --trace 0|1
#
# Builds the benchmark (and the library it links, from ../src) into
# .bench_build/ at the checkout root -- the first call configures and
# compiles, later calls only check that the build is current -- then runs
# `cvewb-bench run` with the given flags.  Build output goes to stderr;
# the last line of stdout is the result JSON.  Everything the run writes
# stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "bench.sh: no library sources at $root/src; run from a full checkout" >&2
  exit 2
fi

mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target cvewb-bench -j "$(nproc)"
} >&2

exec "$build/cvewb-bench" run --work-dir "$build/work" "$@"
