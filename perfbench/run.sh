#!/usr/bin/env bash
# Builds the perfbench command from the sources of this checkout and runs
# it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, span files) lands
# under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$here" && XDG_CONFIG_HOME="$root/.bench_build/config" go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
