#!/usr/bin/env bash
# Builds specserve, specgen, specanalyze and the harness from the
# checkout it is run in, then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, Go cache and
# scratch file stays under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/specserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/specserve, perfbench/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # go env file and telemetry counters
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
mkdir -p "$build/bin"

go build -o "$build/bin/" ./cmd/specserve ./cmd/specgen ./cmd/specanalyze
(cd perfbench && go build -o "$build/bin/" . ./layers)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
