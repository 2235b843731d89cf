#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash greedybench/run.sh --workload solve-random --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and work files, the service data dirs
# and the span files all live under .bench_build, so a run writes only
# inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off
go -C "$root/greedybench" build -o "$out/greedybench" .
exec "$out/greedybench" --dir "$out" "$@"
