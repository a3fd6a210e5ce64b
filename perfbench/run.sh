#!/usr/bin/env bash
# Builds archlined and the benchmark binary from the checkout this script
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload query-hot --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# run scratch space all live under .bench_build/ in that root, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -C "$root" -o "$out/archlined" ./cmd/archlined
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
