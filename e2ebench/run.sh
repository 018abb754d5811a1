#!/usr/bin/env bash
# Builds the benchmark and the eventmatchd daemon from the checkout it is run
# in, then runs one workload. Run from the root of the checkout:
#
#   bash e2ebench/run.sh --workload batch-ha30 --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/eventmatchd || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench/run.sh: run from the root of an eventmatch checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off GOPROXY=off
go build -o "$out/eventmatchd" ./cmd/eventmatchd >&2
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -daemon "$out/eventmatchd" -workdir "$out/run" "$@"
