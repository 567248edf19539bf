#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cold-search --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the checkout, in
# $CARGO_TARGET_DIR (default .bench_build). The build needs the repository
# around this directory: with only the benchmark present it fails, and so
# does the run.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/trace" "$@"
