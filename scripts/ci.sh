#!/bin/sh
# ci.sh — continuous-integration entry point.
#
# Same gate as scripts/check.sh but with test caching disabled
# (GOFLAGS=-count=1) so every run re-executes the suite, and with a
# per-analyzer summary of archlint findings (total and suppressed) on
# stderr. Exits nonzero if the build, vet, tests, or any unsuppressed
# archlint finding fails.
set -eu

cd "$(dirname "$0")/.."

export GOFLAGS=-count=1

echo "ci: go build"
go build ./...

echo "ci: go vet"
go vet ./...

echo "ci: go test -race"
go test -race ./...

echo "ci: fuzz kernel vs reference formulas"
# Differential fuzzing beyond the Table I seeds that go test replays:
# the sweep kernel must match the reference equations bit for bit on
# any machine Params.Validate accepts.
go test -run '^$' -fuzz '^FuzzKernelMatchesReference$' -fuzztime 15s ./internal/model

echo "ci: fuzz stream chunk encoder vs encoding/json"
# The hand-rolled NDJSON chunk encoder must match encoding/json byte for
# byte on arbitrary float64 bit patterns, dropping the line exactly when
# encoding/json refuses a non-finite value.
go test -run '^$' -fuzz '^FuzzAppendStreamChunk$' -fuzztime 10s ./internal/server

echo "ci: perfbench unit tests"
# The benchmark driver is its own module built against this one's
# server and registry packages; -short skips its slow smoke run.
(cd perfbench && go test -short ./...)

echo "ci: archlint"
go run ./cmd/archlint -summary ./...

echo "ci: bench smoke"
# One iteration per benchmark, five times over: proves the trajectory
# harness runs end to end and benchjson parses its output, and gives
# the ratio ceilings a median of five to gate instead of one noisy
# iteration. The JSON lands in a temp dir so the committed
# BENCH_engine.json snapshot is only refreshed by a deliberate
# `make bench`.
bench_tmp=$(mktemp -d)
BENCHTIME=1x BENCHCOUNT=5 ./scripts/bench.sh "$bench_tmp/bench.json" >/dev/null
grep -q '"name": "BenchmarkSuiteRun/workers=1"' "$bench_tmp/bench.json" || {
    echo "ci: bench.json is missing the suite-run trajectory" >&2
    exit 1
}

echo "ci: bench gate"
# The smoke run's snapshot doubles as the regression gate input: the
# committed allocs/op ceilings, the ns/op ratio ceilings (and, on
# >=4-CPU hosts, the parallel speedup floor) in
# scripts/bench_budget.json must hold even at one iteration per
# benchmark.
./scripts/benchgate.sh "$bench_tmp/bench.json"
rm -rf "$bench_tmp"

echo "ci: archlined smoke test"
# Boot the daemon on an ephemeral port, probe it over HTTP, then send
# SIGTERM and require a clean drain within 5 seconds.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/archlined" ./cmd/archlined

# start_daemon LOG [FLAG...] boots archlined on an ephemeral port with
# the given flags, logging to LOG, and waits for its address
# announcement. It sets daemon_pid and daemon_base.
start_daemon() {
    daemon_log=$1
    shift
    "$tmpdir/archlined" -addr 127.0.0.1:0 "$@" >"$daemon_log" 2>&1 &
    daemon_pid=$!
    daemon_base=""
    for _ in $(seq 1 50); do
        daemon_base=$(sed -n 's/^archlined listening on \(.*\)$/\1/p' "$daemon_log")
        [ -n "$daemon_base" ] && break
        sleep 0.1
    done
    if [ -z "$daemon_base" ]; then
        echo "ci: archlined ($daemon_log) never announced its address" >&2
        cat "$daemon_log" >&2
        kill "$daemon_pid" 2>/dev/null || true
        exit 1
    fi
}

# require_log PATTERN MESSAGE fails the gate, killing the running
# daemon, unless its log contains PATTERN.
require_log() {
    if ! grep -q "$1" "$daemon_log"; then
        echo "ci: $2" >&2
        cat "$daemon_log" >&2
        kill "$daemon_pid" 2>/dev/null || true
        exit 1
    fi
}

# stop_daemon sends SIGTERM to the running daemon and requires a clean
# drain within 5 s: a watchdog hard-kills on overrun, which makes the
# daemon exit nonzero and fails the gate.
stop_daemon() {
    kill -TERM "$daemon_pid"
    ( sleep 5; kill -9 "$daemon_pid" 2>/dev/null ) &
    watchdog_pid=$!
    if ! wait "$daemon_pid"; then
        echo "ci: archlined ($daemon_log) did not drain cleanly on SIGTERM" >&2
        cat "$daemon_log" >&2
        exit 1
    fi
    kill "$watchdog_pid" 2>/dev/null || true
}

# Two job workers and a small queue so the smoke probe's job-lifecycle
# leg exercises the async fit engine with the same knobs ops would set;
# a data directory so the registry probe's uploads have durable storage.
start_daemon "$tmpdir/daemon.log" -job-workers 2 -job-queue 4 -job-ttl 1m \
    -data-dir "$tmpdir/data"

go run ./scripts/smoke -base "$daemon_base"

echo "ci: archloadgen load smoke"
# A short deterministic load pass against the same daemon, gated on the
# committed budget: nonzero throughput, no unexpected 5xx or transport
# errors, and (-check-metrics) the metrics accounting contract —
# per-platform query counters materialized in /metrics and the latency
# histogram holding one sample per counted request. Runs after the smoke probe because smoke
# pins exact counter values that load traffic would shift.
go build -o "$tmpdir/archloadgen" ./cmd/archloadgen
"$tmpdir/archloadgen" -base "$daemon_base" -duration 2s -seed 42 -json \
    -budget scripts/load_budget.json -check-metrics >"$tmpdir/loadgen.json"
grep -q '"requests"' "$tmpdir/loadgen.json" || {
    echo "ci: archloadgen emitted no JSON report" >&2
    exit 1
}

stop_daemon

echo "ci: archlined chaos smoke test"
# Boot a second daemon with the chaos middleware explicitly enabled and
# assert graceful degradation: no 5xx without the JSON error envelope,
# Retry-After on shed/breaker responses, liveness intact throughout.
start_daemon "$tmpdir/chaos.log" -chaos paper -chaos-seed 42 -max-inflight 64
require_log "CHAOS MODE enabled" "chaos archlined did not announce chaos mode"

go run ./scripts/smoke -base "$daemon_base" -chaos

stop_daemon

echo "ci: archlined crash-recovery drill"
# Commit one registry upload, SIGKILL the daemon with no warning, plant
# a corrupt blob in the store, restart over the same data directory, and
# require the acknowledged upload back (same ETag) with the corruption
# quarantined — the registry's durability contract, end to end.
crash_data="$tmpdir/crashdata"
start_daemon "$tmpdir/crash.log" -data-dir "$crash_data"

commit_line=$(go run ./scripts/smoke -base "$daemon_base" -crash-commit)
etag=$(printf '%s\n' "$commit_line" | sed -n 's/^smoke: committed //p')
if [ -z "$etag" ]; then
    echo "ci: crash-commit probe printed no sentinel: $commit_line" >&2
    kill -9 "$daemon_pid" 2>/dev/null || true
    exit 1
fi

# No SIGTERM, no drain: the acknowledged write must already be on disk.
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

# Bit-rot: a blob whose content no longer matches its content address.
printf 'not a registry envelope' \
    >"$crash_data/blobs/$(printf 'c%.0s' $(seq 1 64)).json"

start_daemon "$tmpdir/recover.log" -data-dir "$crash_data"
require_log 'recovered 1 uploaded platform' "restart did not report the recovered upload"

go run ./scripts/smoke -base "$daemon_base" -verify-recover \
    -etag "$etag" -want-quarantined 1

stop_daemon

echo "ci: OK"
