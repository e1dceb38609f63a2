#!/usr/bin/env bash
# Same-runner wall-time A/B of the gated hot-path benchmarks: the working
# tree against the merge base of BASE_REV and HEAD.
#
#   bash .github/bench-ab.sh origin/main
#
# Builds the root package's test binary on both sides (the base in a
# temporary git worktree), alternates RUNS runs of each side over NAMES at
# -test.benchtime 100ms, and prints each benchmark's base and head median
# ns/op and their ratio. Exits non-zero when a head median exceeds LIMIT
# times its base median, or when a benchmark is missing from any head run
# or from some but not all base runs: a dropped or failing benchmark must
# not pass. A benchmark no base run has at all is one the change adds: it
# prints NEW with its head median and does not fail. Allocations are pinned
# separately, by TestHotPathCeilings (ceilings_test.go), which covers the
# same names.
set -euo pipefail

NAMES="BenchmarkReplayAlya16 BenchmarkReplayTelemetry BenchmarkTableIII_GTChoice BenchmarkStreamReplay BenchmarkNetworkTransfer BenchmarkDragonflyTransfer BenchmarkMultijob BenchmarkBigFabricRoutes BenchmarkBigFabricReplay BenchmarkScenarioChurn BenchmarkChurnWithFaults BenchmarkTimeSeriesRecord BenchmarkGenerateFig7 BenchmarkChurnAdmit"
LIMIT=2
RUNS=5

if [ $# -ne 1 ]; then
	echo "usage: bash .github/bench-ab.sh BASE_REV" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" merge-base "$1" HEAD)
work=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/base" "$base"
(cd "$work/base" && go test -c -o "$work/base.test" .)
(cd "$root" && go test -c -o "$work/head.test" .)

pattern="^($(tr ' ' '|' <<<"$NAMES"))\$"
for run in $(seq "$RUNS"); do
	for side in base head; do
		dir=$root
		[ "$side" = base ] && dir=$work/base
		# A failing benchmark prints no ns/op line; the summary reports it.
		(cd "$dir" && "$work/$side.test" -test.run '^$' -test.bench "$pattern" -test.benchtime 100ms -test.timeout 5m || true) |
			awk -v side="$side" '$1 ~ /^Benchmark/ && $4 == "ns/op" { sub(/-[0-9]+$/, "", $1); print side, $1, $3 }' \
				>>"$work/samples"
	done
done

# median SIDE NAME prints the median ns/op of NAME on SIDE, or nothing
# unless all RUNS runs measured it.
median() {
	awk -v side="$1" -v name="$2" '$1 == side && $2 == name { print $3 }' "$work/samples" | sort -g |
		awk -v runs="$RUNS" '{ v[NR] = $1 } END { if (NR == runs) print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}

status=0
echo "base $base vs head $(git -C "$root" rev-parse HEAD) (working tree), median of $RUNS runs, limit ${LIMIT}x"
printf '%-28s %14s %14s %7s\n' benchmark "base ns/op" "head ns/op" ratio
for name in $NAMES; do
	b=$(median base "$name")
	h=$(median head "$name")
	if [ -z "$h" ] || { [ -z "$b" ] && grep -q "^base $name " "$work/samples"; }; then
		printf '%-28s %14s %14s %7s  MISSING\n' "$name" "${b:--}" "${h:--}" -
		status=1
		continue
	fi
	if [ -z "$b" ]; then
		printf '%-28s %14s %14s %7s  NEW\n' "$name" - "$h" -
		continue
	fi
	verdict=$(awk -v b="$b" -v h="$h" -v limit="$LIMIT" 'BEGIN { printf "%7.2f%s", h / b, (h > limit * b ? "  REGRESSION" : "") }')
	printf '%-28s %14s %14s %s\n' "$name" "$b" "$h" "$verdict"
	case $verdict in *REGRESSION) status=1 ;; esac
done
exit "$status"
