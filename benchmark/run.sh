#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload flow_d1 --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, the binary) goes under .bench_build/ at the repository root, as do
# a traced run's spans (spans.json), so a run reads and writes nothing
# outside the checkout but the toolchain.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off

(cd "$here" && go build -o "$out/mbrbench" .)
exec "$out/mbrbench" -spans "$out/spans.json" "$@"
