#!/usr/bin/env bash
# Builds crcserve and the benchmark from this checkout's sources into
# .bench_build, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare BASE_RESULTS_DIR NEW_RESULTS_DIR
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/crcserve" koopmancrc/cmd/crcserve >&2
cd "$root"
exec "$build/bin/perfbench" -crcserve "$build/bin/crcserve" -out "$build/perfbench" "$@"
