#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload catalog --seed 1 --seconds 40 --trace 0
#
# Every file the build and the run write (Go build cache, module path, the
# go command's configuration and telemetry counters, temporary files, the
# binary, traced-run span files) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
