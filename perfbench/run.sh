#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout of the repository. The build cache,
# the binary and every file a run writes stay under .bench_build/ in that
# checkout, and nothing is fetched: the benchmark is a module of its own
# that uses the repository's module through a relative replace directive,
# so a directory holding only the benchmark fails to build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off \
	GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build" "$@"
