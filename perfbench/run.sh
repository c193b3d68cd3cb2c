#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources in this checkout and
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload burst-write --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# saved per-workload results all stay under .bench_build/ there.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
