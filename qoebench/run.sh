#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash qoebench/run.sh --workload grid-browse --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C "$root/qoebench" build -trimpath -o "$out/bin/qoebench" .
exec "$out/bin/qoebench" --out "$out/run" "$@"
