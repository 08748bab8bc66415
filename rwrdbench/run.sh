#!/usr/bin/env bash
# Builds the benchmark harness and this checkout's rwrd from source, then
# runs the harness from the root of the checkout with the given arguments:
#
#   bash rwrdbench/run.sh --workload cold-topk --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build at the root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/rwrdbench"
go build -o "$out/rwrdbench" .
go build -o "$out/rwrd" resacc/cmd/rwrd
cd "$root"
exec "$out/rwrdbench" "$@"
