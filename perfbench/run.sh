#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload flood --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. The build cache and the binary live in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so a run
# reads and writes nothing outside it. Build output goes to stderr; the
# benchmark's result is the last line of stdout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# Keep the toolchain's own state (build cache, module cache, telemetry
# counters under the config dir) inside the checkout too.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
