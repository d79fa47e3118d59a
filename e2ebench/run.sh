#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload frame-latency --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache and the traced run's span files
# stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
