#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the module root:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the bench binary from source and runs it. Everything the build
# and the run write — the go build cache included — stays under
# .bench_build/ in the directory this is run from, so a checkout is
# measured with no state shared with any other.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/p2o-httpd ]; then
	echo "bench/run.sh: run from the root of the prefix2org module (no go.mod / cmd/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

go build -o "$build/bin/p2obench" ./bench
exec "$build/bin/p2obench" "$@"
