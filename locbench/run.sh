#!/usr/bin/env bash
# Builds the localization benchmark from the checkout it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash locbench/run.sh --workload paper9 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and result files stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$here" && go build -o "$out/locbench" .) >&2
exec "$out/locbench" "$@"
