#!/usr/bin/env bash
# Builds the benchmark program and the uvmbench CLI from the checkout this
# script sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout's root. Build outputs, the Go build cache and
# the benchmark's working files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -d "$root/cmd/uvmbench" ]]; then
	echo "perfbench: run from the root of a uvmasim checkout (go.mod, internal/, cmd/uvmbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go build -o "$out/uvmbench" ./cmd/uvmbench
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --uvmbench "$out/uvmbench" --work "$out/perfbench-work" "$@"
