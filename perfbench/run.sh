#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload whole-boxed --seed 1 --seconds 25 --trace 0
#
# Every build artifact and cache stays under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-buildvcs=false

if ! go -C perfbench build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed (the benchmark needs the repository sources beside perfbench/)" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
