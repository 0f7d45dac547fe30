#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload mix-64 --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build in that directory: the Go build cache, the
# binary, the data directories of durable workloads and the span files of
# traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
