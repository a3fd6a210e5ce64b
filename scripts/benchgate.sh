#!/bin/sh
# benchgate.sh — enforce the committed bench budget (allocs/op ceilings,
# ns/op ratio ceilings and the parallel-speedup floor in
# scripts/bench_budget.json).
#
# Usage:
#   scripts/benchgate.sh [bench.json]
#
# With an argument, gates that existing benchjson snapshot (this is how
# ci.sh reuses its bench-smoke output). Without one, runs a fresh quick
# bench pass (BENCHTIME=1x and BENCHCOUNT=5 unless overridden, as in
# ci.sh, so ratio ceilings gate a median of five) into a temp file and
# gates that, leaving the committed BENCH_engine.json untouched.
set -eu

cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
    bench=$1
else
    tmpd=$(mktemp -d)
    trap 'rm -rf "$tmpd"' EXIT
    BENCHTIME=${BENCHTIME:-1x} BENCHCOUNT=${BENCHCOUNT:-5} ./scripts/bench.sh "$tmpd/bench.json" >/dev/null
    bench=$tmpd/bench.json
fi

go run ./scripts/benchgate -bench "$bench" -budget scripts/bench_budget.json
