#!/usr/bin/env bash
# ci.sh — the repository's verification gate.
#
# Runs formatting, the standard vet suite, the project's own
# determinism analyzers (hyadeslint), a full build, and the tests under
# the race detector.  Everything is offline and stdlib-only.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== hyadeslint (determinism + communication contract)"
# The canonical findings gate, baseline-aware: findings recorded in
# lint/baseline.json (committed, currently empty) are suppressed, so
# only new findings fail.  The run is also on a wall-clock budget —
# the analyzer suite carries a whole-module points-to solve, and a
# pathological blowup should fail CI loudly, not slow every later
# stage quietly.  The binary is prebuilt so the budget measures
# analysis, not compilation; the measured time is archived in the
# bench artifact below.
go build -o /tmp/hyadeslint.ci ./cmd/hyadeslint
lint_budget_s="${HYADESLINT_BUDGET_S:-30}"
lint_start=$(date +%s%N)
/tmp/hyadeslint.ci -baseline lint/baseline.json ./...
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "hyadeslint full tree: ${lint_ms} ms (budget ${lint_budget_s} s)"
if [ "$lint_ms" -gt $(( lint_budget_s * 1000 )) ]; then
    echo "hyadeslint wall-clock budget exceeded: ${lint_ms} ms > ${lint_budget_s} s" >&2
    exit 1
fi

echo "== hyadeslint -fix fixed point"
# A clean tree must be a fixed point of the autofixer (no "would
# rewrite" lines on stderr).  Exit status 1 (findings) is judged by
# the baseline-aware gate above, not here; 2+ is a load error.
fixstatus=0
fixlog=$(go run ./cmd/hyadeslint -fix -n ./... 2>&1 >/dev/null) || fixstatus=$?
if [ "$fixstatus" -ge 2 ]; then
    echo "$fixlog" >&2
    exit 1
fi
if [ -n "$fixlog" ]; then
    echo "hyadeslint -fix would modify a clean tree:" >&2
    echo "$fixlog" >&2
    exit 1
fi

echo "== hotalloc budget ratchet"
# The committed lint/allocbudget.json is a ceiling on statically
# visible event-path allocation sites.  An over-budget package fails
# here with one line per unwaived site, each carrying its
# measured-vs-budget accounting.  After a deliberate optimization,
# regenerate with `go run ./cmd/hyadeslint -writebudget ./...` and
# commit the lowered file to lock it in.
if ! ratchet=$(go run ./cmd/hyadeslint -analyzers hotalloc ./...); then
    echo "$ratchet" >&2
    echo "allocation ratchet violated: measured sites exceed lint/allocbudget.json" >&2
    exit 1
fi

echo "== hyadeslint -sarif (artifact)"
sarif_out="${HYADESLINT_SARIF:-/tmp/hyadeslint.sarif}"
go run ./cmd/hyadeslint -sarif ./... > "$sarif_out"
echo "wrote $sarif_out"

echo "== go build"
go build ./...

echo "== perfbench module (vet + tests)"
# The benchmark is a module of its own (hyades/perfbench, go 1.22,
# replace hyades => ../), so the root's vet and test stages skip it.
# Building it here also catches a root go.mod go-directive bump, which
# the benchmark module rejects with "updates to go.mod needed".
go -C perfbench vet ./... && go -C perfbench test ./...

echo "== go test -race -short"
go test -race -short ./...

echo "== chaos (fault injection + reliable delivery)"
# The chaos determinism test under the race detector, then a driver
# smoke run with a 1% packet-drop rate: it must exit cleanly and
# report a nonzero retransmit count (the reliable channel is working,
# not just lucky).
go test -race -run 'TestChaosRunIsDeterministic|TestPeerUnreachableSurfaces|TestCrashWithoutCheckpointFailsLoudly' .

echo "== determinism across worker counts (race)"
# The worker-pool determinism matrix under the race detector: digests,
# event counts and virtual clocks must be bit-identical for inline,
# single-worker and GOMAXPROCS pools, with and without fault injection
# — including the node-crash recovery matrix (two crashes exercising
# both dead-peer detection paths, digest equal to the fault-free run).
go test -race -run 'TestDeterminismAcrossWorkerCounts|TestChaosDeterminismAcrossWorkerCounts|TestNodeCrashRecoveryDeterministic' .
chaos_out=$(go run ./cmd/hyades -model gyre -nodes 2 -ppn 1 -steps 2 -warmup 1 -drop-rate 1e-2)
echo "$chaos_out" | tail -n 5
retx=$(echo "$chaos_out" | awk '/^retransmits/ {print $(NF-2)}')
retx=${retx:-0}
if [ "$retx" -eq 0 ]; then
    echo "chaos smoke: drop-rate 1e-2 produced zero retransmits" >&2
    exit 1
fi

echo "== node-failure smoke (crash, recover, bit-identical digest)"
# Lose a whole node mid-run with checkpointing on: the driver must
# survive a nonzero number of restarts and end with the same state
# digest as the fault-free run.  This is the survival contract on the
# CLI surface; the in-depth matrix ran under -race above.
crash_args=(-model gyre -nodes 4 -ppn 1 -steps 6 -warmup 0 -px 2 -py 2 -digest)
crash_out=$(go run ./cmd/hyades "${crash_args[@]}" \
    -node-outage '1:500000-501000' -checkpoint-every 2)
echo "$crash_out" | tail -n 6
restarts=$(echo "$crash_out" | awk '/^node restarts survived/ {print $NF}')
restarts=${restarts:-0}
if [ "$restarts" -eq 0 ]; then
    echo "node-failure smoke: staged crash produced zero restarts" >&2
    exit 1
fi
crash_digest=$(echo "$crash_out" | awk '/^state digest/ {print $NF}')
clean_digest=$(go run ./cmd/hyades "${crash_args[@]}" | awk '/^state digest/ {print $NF}')
if [ -z "$crash_digest" ] || [ "$crash_digest" != "$clean_digest" ]; then
    echo "node-failure smoke: recovered digest $crash_digest != fault-free digest $clean_digest" >&2
    exit 1
fi

echo "== figure9 long-run smoke (checkpoint plates + digest-stable resume)"
# The -years mode on a reduced grid: a run with periodic plates, then a
# -resume from the newest plate set re-integrating the tail.  The two
# must report the same state digest — the restart path is bit-exact or
# the 1000-year science run cannot be trusted across job boundaries.
fig_dir=$(mktemp -d)
fig_args=(-years 0.05 -checkpoint-every 0.02 -nx 32 -ny 16 -out "$fig_dir")
full_digest=$(go run ./cmd/figure9 "${fig_args[@]}" | awk '/^state digest/ {print $NF}')
plates=$(ls "$fig_dir"/plates/plate_step*_rank*.ck 2>/dev/null | wc -l)
if [ "$plates" -eq 0 ]; then
    echo "figure9 smoke: no checkpoint plates written" >&2
    exit 1
fi
resumed_digest=$(go run ./cmd/figure9 "${fig_args[@]}" -resume | awk '/^state digest/ {print $NF}')
if [ -z "$full_digest" ] || [ "$full_digest" != "$resumed_digest" ]; then
    echo "figure9 smoke: resumed digest $resumed_digest != full-run digest $full_digest" >&2
    exit 1
fi
rm -rf "$fig_dir"
echo "figure9 smoke: $plates plates, resume digest matches"

echo "== bench (hot-path benchmarks, artifact)"
# Short-benchtime run of the hot-path microbenchmarks, converted to a
# JSON artifact.  benchtime is kept tiny so the gate stays fast; the
# artifact records allocs/op and the simulated-time metrics plus the
# core count of the machine that produced them, giving future changes
# a perf trajectory to compare against.
# The hyadeslint wall-clock measurement rides along as a synthetic
# benchmark line, so the lint suite's cost has a committed trajectory
# too.
bench_out="${HYADES_BENCH_JSON:-BENCH_pr10.json}"
{
    # The hot-path microbenchmarks run long enough to amortize one-time
    # setup (cluster construction, freelist warm-up): at 1x their
    # allocs/op is all setup and the zero-alloc event path is invisible.
    go test -run '^$' -bench '^(BenchmarkExchange|BenchmarkGlobalSum)$' \
        -benchmem -benchtime 100x .
    # Scheduler throughput: ladder vs heap at three backlog depths.
    # Iterations are bounded so the 1e7-pending prefill dominates once,
    # not per-measurement, but high enough (200k ops is ~tens of ms)
    # that rung-refill spikes amortize instead of landing whole in a
    # tiny measurement window.
    go test -run '^$' -bench '^BenchmarkSchedule$' \
        -benchmem -benchtime 200000x .
    # The coupled step runs at a fixed 10x for the same reason as the
    # 100x hot path: at 1x its allocs/op is all cluster construction
    # and the zero-steady-state-alloc kernels are invisible.
    go test -run '^$' -bench '^BenchmarkCoupledStep$' \
        -benchmem -benchtime 10x .
    go test -run '^$' -bench '^(BenchmarkCheckpointWrite|BenchmarkCheckpointRestore|BenchmarkRecoveryOverhead)$' \
        -benchmem -benchtime 1x .
    printf 'BenchmarkHyadeslintFullTree 1 %d lint_wall_ms\n' "$lint_ms"
} | go run ./cmd/benchjson "gate run: 100x hot path, 200000x scheduler, 10x coupled step, 1x heavies" > "$bench_out"
echo "wrote $bench_out"

echo "== bench compare (soft gate vs previous committed artifact)"
# Diff the fresh artifact against the newest committed BENCH_pr*.json
# from an earlier PR.  Allocation regressions over 10% print loudly but
# do not fail the build: cross-PR artifacts were produced at different
# benchtimes, so the hard gate is the hotalloc ratchet above — this
# stage is the early-warning trajectory.  ns/op growth past 25% on a
# shared benchmark is flagged SLOW in the same table (soft, never
# failing: wall clock is host noise on shared machines).
prev=$(ls BENCH_pr*.json 2>/dev/null | grep -vx "$bench_out" | sort -V | tail -n 1 || true)
if [ -n "$prev" ]; then
    go run ./cmd/benchjson -compare "$prev" "$bench_out" ||
        echo "bench compare: allocs/op regression vs $prev (soft gate — investigate before merging)" >&2
else
    echo "no previous BENCH_pr*.json to compare against"
fi

echo "CI OK"
