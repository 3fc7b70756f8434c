#!/usr/bin/env bash
# Runs the frozen repo benchmark (quick, two runs) on the working tree
# and on a base commit, then judges the two result files with
# `benchmark compare` and the bounds in BENCHMARK.json.
#
#   ci/benchmark_compare.sh <base-commit> <out-dir>
#
# Leaves head.json, base.json and compare.txt in <out-dir>. Exits 1 if
# either run has a failed operation or if any workload's wire volume
# (`harness.wire_mb_per_iter`, bound 0) is worse than at the base;
# timing verdicts are printed but do not decide the exit status — two
# quick runs on a shared machine cannot resolve a 25 % bound.
set -euo pipefail

base=$1
out=$(mkdir -p "$2" && cd "$2" && pwd)

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

mkdir -p "$out/base"
git archive "$base" | tar -x -C "$out/base"

bench run --all --quick --runs 2 --out "$out/head.json"
(cd "$out/base" && bench run --all --quick --runs 2 --out "$out/base.json")

bench compare "$out/base.json" "$out/head.json" | tee "$out/compare.txt" || true
if grep -E 'harness\.wire_mb_per_iter.* worse$' "$out/compare.txt"; then
    echo "error: wire volume is worse than at $base" >&2
    exit 1
fi
