#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash evsperf/run.sh --workload tcp-saturate --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/evsperf" && go build -o "$out/evsperf" .)
exec "$out/evsperf" --spans "$out/spans" "$@"
