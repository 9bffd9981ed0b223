#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh -workload coupled-fig9 -seed 1 -seconds 20 -trace 0
#
# Every file the Go toolchain writes (build cache, temporaries, the
# binary) stays under ${CARGO_TARGET_DIR:-.bench_build} in the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
