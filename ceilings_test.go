package ibpower_test

import (
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
)

// Margins above the measured value that the replay ceilings allow.
const (
	allocMargin = 0.05
	byteMargin  = 0.10
)

// hotPaths lists every benchmark the two regression gates cover, with its
// steady-state allocs/op and bytes/op measured with go1.24.0 on
// linux/amd64. TestHotPathCeilings caps each at that value plus the
// margins above, so the 0-alloc paths stay at exactly 0; .github/bench-ab.sh
// times the same benchmarks against the merge base.
//
// Package-level pins of the same 0-alloc paths: TestTransferHealthyNoAllocs
// (network_test.go, the healthy transfer on the 8k-terminal presets),
// TestRouteIDsIntoNoAllocs (topology/alloc_test.go, routing into a reused
// buffer), TestTransferWithFaultsDeterministic and TestRouteAvoidingAllocFree
// (network and topology faults_test.go, the degraded transfer),
// TestFreeListSteadyStateAllocs (multijob/freelist_test.go, the pooled
// claim/release) and TestTimeSeriesRecordAllocs/TestTimeSeriesRecordSpanAllocs
// (stats/timeseries_test.go, the record path).
var hotPaths = []struct {
	name          string // benchmark name without the Benchmark prefix
	setup         func(testing.TB) hotOp
	runs          int // measured operations
	allocs, bytes float64
}{
	{"NetworkTransfer", networkTransfer, 1000, 0, 0},
	{"DragonflyTransfer", dragonflyTransfer, 1000, 0, 0},
	{"BigFabricRoutes", bigFabricRoutes, 1000, 0, 0},
	{"ScenarioChurn", scenarioChurn, 1000, 0, 0},
	{"ChurnWithFaults", churnWithFaults, 1000, 0, 0},
	{"TimeSeriesRecord", timeSeriesRecord, 1000, 0, 0},
	{"ReplayAlya16", replayAlya16, 5, 497, 89_666},
	{"ReplayTelemetry", replayTelemetry, 5, 531, 2_288_314},
	{"StreamReplay", streamReplay, 5, 513, 109_634},
	{"Multijob", multijobReplay, 5, 503, 88_986},
	{"ChurnAdmit", churnAdmit, 5, 26, 4_088},
	{"BigFabricReplay", bigFabricReplay, 5, 497, 1_220_170},
	{"TableIII_GTChoice", gtChoice, 5, 112, 38_970},
	{"GenerateFig7", generateFig7, 2, 336, 5_413_088},
}

// TestHotPathCeilings pins allocs/op and bytes/op of every gated hot path.
// Allocation counts do not depend on the machine, so unlike wall time they
// are checked on every `go test`, including CI's -race -short run.
func TestHotPathCeilings(t *testing.T) {
	for _, hp := range hotPaths {
		t.Run(hp.name, func(t *testing.T) {
			allocs, bytes := perOp(hp.setup(t), hp.runs)
			t.Logf("%.0f allocs/op, %.0f B/op", allocs, bytes)
			if limit := hp.allocs * (1 + allocMargin); allocs > limit {
				t.Errorf("%.0f allocs/op, ceiling %.0f (measured %.0f + %.0f%%)", allocs, limit, hp.allocs, 100*allocMargin)
			}
			if limit := hp.bytes * (1 + byteMargin); bytes > limit {
				t.Errorf("%.0f B/op, ceiling %.0f (measured %.0f + %.0f%%)", bytes, limit, hp.bytes, 100*byteMargin)
			}
		})
	}
}

// maxWindows bounds how many measurement windows perOp takes.
const maxWindows = 3

// perOp returns op's steady-state heap allocations and bytes per
// operation: both are averaged over the runs+1 calls of testing.AllocsPerRun
// after as many warm-up calls, and rounded down like AllocsPerRun's count.
//
// A window during which the runtime created an OS thread is discarded and
// measured again, up to maxWindows windows in all; the last one is reported
// whatever it saw. Creating a thread costs a few kilobytes of heap, charged
// to whichever goroutine happens to run into it: a one-time runtime cost,
// not the op's. Nothing else retakes a window.
func perOp(op hotOp, runs int) (allocs, bytes float64) {
	i := 0
	next := func() {
		op.run(i)
		i++
	}
	for i < runs {
		next()
	}
	threads := pprof.Lookup("threadcreate")
	for w := 0; w < maxWindows; w++ {
		created := threads.Count()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, next)
		runtime.ReadMemStats(&after)
		bytes = float64((after.TotalAlloc - before.TotalAlloc) / uint64(runs+1))
		if threads.Count() == created {
			break
		}
	}
	return allocs, bytes
}

// TestBenchABCoversHotPaths asserts the wall-time A/B script times exactly
// the benchmarks whose allocations TestHotPathCeilings pins.
func TestBenchABCoversHotPaths(t *testing.T) {
	src, err := os.ReadFile(".github/bench-ab.sh")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^NAMES="([^"]*)"`).FindSubmatch(src)
	if m == nil {
		t.Fatal("bench-ab.sh declares no NAMES list")
	}
	got := strings.Fields(string(m[1]))
	var want []string
	for _, hp := range hotPaths {
		want = append(want, "Benchmark"+hp.name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("bench-ab.sh times %v, the ceilings pin %v", got, want)
	}
}
