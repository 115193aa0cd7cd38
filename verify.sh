#!/bin/sh
# Tier-1 verification: formatting, vet, build, tests, and the race detector.
# Run from anywhere; the script cds to the repo root.
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

# Static analysis suite: the determinism analyzers (fingerprint coverage,
# wall-clock/map-order hazards, stop-token discipline, exact float
# comparisons, collsplit, tagpair — DESIGN.md §6-§7), the
# performance/concurrency analyzers (hotalloc escape budgets, lockorder,
# wirecover — DESIGN.md §11) and the CFG-based scalability analyzers
# (rankscale O(ranks) budgets, chanlive path-sensitive stop-token
# liveness, wiredrift gob-shape freezing — DESIGN.md §12) in one vettool.
# All three suites are blocking here.
echo "== detlint + perflint + scalelint analyzers =="
go build -o bin/detlint ./cmd/detlint
go vet -vettool=bin/detlint ./...

# Committed-artifact gates: the hotalloc escape budget (static counts and
# the compiler's own -gcflags=-m diagnostics), the rankscale site budget,
# and the wire schema vs dist.ProtocolVersion. Blocking — a new escape, an
# unbudgeted O(ranks) site or a drifted wire shape fails verification
# before the build/test steps run.
echo "== perflint artifact gates (escape budget, rank budget, wire schema) =="
go run ./cmd/perflint

# Per-analyzer wall time and diagnostic counts, in-process over every
# package. Informational: the vet run above is the blocking gate.
echo "== analyzer stats =="
go run ./cmd/perflint -stats

echo "== go build =="
go build ./...

# The benchmark harness is a nested module (perfbench/go.mod), invisible to
# ./... above; vet it so an API change in core, dist or sweep that breaks
# the benchmark fails here instead of at benchmark time.
echo "== go vet (perfbench module) =="
(cd perfbench && GOTOOLCHAIN=local GOPROXY=off go vet .)

echo "== go test =="
go test -timeout 15m ./...

# The fault-injection and crash-recovery tests (TestFault* across vmpi,
# sweep, fault, core and the CLI) exercise goroutine shutdown, retries and
# cancellation; run them repeatedly to shake out nondeterministic flakes
# before they reach the golden suites.
echo "== go test -run Fault -count=5 (flake gate) =="
go test -timeout 10m -run Fault -count=5 \
	./internal/fault/ ./internal/vmpi/ ./internal/sweep/ ./internal/report/ ./internal/core/ ./cmd/columbia/

# Seeded-noise determinism: the noise tests (stream discipline in vmpi,
# ensemble cache isolation/collapse, parallel replay byte-identity, seed
# sensitivity, golden distribution cells) are the replay contract for
# stochastic runs; repeat them to shake out schedule-dependent draws.
echo "== go test -run Noise -count=5 (noise flake gate) =="
go test -timeout 10m -run Noise -count=5 \
	./internal/noise/ ./internal/vmpi/ ./internal/core/ ./cmd/columbia/

# Communication sanitizer: one representative core experiment per
# simulating app family (HPCC/b_eff stride, NPB OpenMP fig8, multi-zone
# fig7, MD table5) runs under -commsan. A violation — a message race, an
# unmatched send, a collective mismatch — fails the run with exit 1; a
# clean pass also re-checks (in-process, per experiment) that sanitized
# output is byte-identical to unsanitized via the core test suite above.
echo "== commsan (representative experiments) =="
go run ./cmd/columbia -commsan run stride fig8 fig7 table5 > /dev/null

# Crash-tolerance smoke: a small sweep on 2 supervised worker processes
# under a kill-after-every-point chaos schedule must emit bytes identical
# to the serial run — crashes are restarted and re-dispatched, never
# visible in stdout. See DESIGN.md §10 and `make chaos`.
echo "== worker chaos smoke (byte-identity under crashes) =="
mkdir -p bin
go build -o bin/columbia ./cmd/columbia
bin/columbia -faults wkill=1 run stride table1 > bin/chaos_serial.out
bin/columbia -workers 2 -faults wkill=1 run stride table1 > bin/chaos_workers.out
cmp bin/chaos_serial.out bin/chaos_workers.out
rm -f bin/chaos_serial.out bin/chaos_workers.out

# Noise ensemble smoke: one paper table as a 5-replica seeded jitter
# ensemble, serial vs 2 worker processes — the distribution cells (min/
# avg/max ±spread) must be byte-identical across process boundaries, and
# the output must actually contain them.
echo "== noise ensemble smoke (5 replicas, serial vs workers) =="
bin/columbia -noise jitter=exp:0.05,seed=12 -replicas 5 run fig7 > bin/noise_serial.out
bin/columbia -workers 2 -noise jitter=exp:0.05,seed=12 -replicas 5 run fig7 > bin/noise_workers.out
cmp bin/noise_serial.out bin/noise_workers.out
grep -q '±' bin/noise_serial.out
rm -f bin/noise_serial.out bin/noise_workers.out

# -short skips the 2048-rank experiments: their race-instrumented goroutine
# churn takes tens of minutes on small hosts while exercising the exact same
# engine and scheduler code paths as the light experiments, which the
# determinism tests still replay on 8 workers here.
echo "== go test -race -short =="
go test -timeout 20m -race -short ./...

# Benchmark regression report: the fast engine benchmarks vs the latest
# committed BENCH_<date>.json. Non-blocking here — benchmark noise on
# shared hosts must not fail tier-1 verification; `make bench` is the
# blocking gate (and runs the sweep benchmarks too).
echo "== benchgate (non-blocking report) =="
go run ./cmd/benchgate -bench 'Engine' ||
	echo "benchgate: regression reported above (non-blocking in verify)"

# Sweep scaling report: one pass of the -j 1/2/4/8 curve so the speedup
# shape is visible in every verify run. Single iterations only — the
# blocking best-of-N scaling gate is `make bench` / `make bench-scaling`
# (see DESIGN.md §9).
echo "== sweep scaling curve (non-blocking report) =="
go run ./cmd/benchgate -bench 'Sweep(Serial|J2|J4|Parallel)$' -benchtime 1x -count 1 ||
	echo "benchgate: scaling issue reported above (non-blocking in verify)"

echo "verify: all checks passed"
