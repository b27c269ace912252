#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload playback --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --smoke
#
# Every build product, cache and scratch file stays under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ] || [ ! -d "$root/cmif" ]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, cmif/ and perfbench/ expected)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --dir "$build" "$@"
