#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload degraded-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, the datanode data and the
# span files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --root "$build" "$@"
