#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash mnnbench/run.sh --workload serve --seed 1 --seconds 45 --trace 0
#
# Every build artefact, the Go build cache and the traces stay under
# .bench_build/ in the current directory, so a run writes nothing outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$root/mnnbench" build -o "$out/mnnbench" .
exec "$out/mnnbench" "$@"
