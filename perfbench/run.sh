#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload bsp-dedicated --seed 1 --seconds 10 --trace 0
#
# Build products and the Go build cache stay inside the checkout, under
# .bench_build/. Only a failed output check makes the benchmark itself
# exit non-zero; a failed build does too, before any result is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
# Keep the go command's own state (telemetry counters, module cache) in
# the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local

bin="$out/perfbench"
go -C "$here" build -o "$bin.tmp" . >&2
mv -f "$bin.tmp" "$bin"
exec "$bin" "$@"
