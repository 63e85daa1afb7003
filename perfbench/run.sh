#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload ratio-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs and scratch data go to .bench_build/ under the working
# directory, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
