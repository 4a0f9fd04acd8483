#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload batch_hot --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 1 --out ledger.json
#   bash bench/run.sh compare bench/results/BENCH_11.json ledger.json
#
# The build cache, the binary and the benchmark's temporary kernel stores
# all live under .bench_build, so nothing outside the checkout is written.
# Without the repository around bench/ the build fails, and so does this
# script.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
