#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with the
# given flags. Run from the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
#
# The Go build cache and the binary go to .bench_build/ at the repository
# root, so a run writes nothing outside the checkout. A failed build exits
# non-zero before anything is measured.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
