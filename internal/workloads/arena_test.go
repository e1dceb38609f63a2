package workloads

import (
	"runtime"
	"testing"
	"unsafe"

	"ibpower/internal/trace"
)

// Generate builds every rank into one arena sized by the structure-only
// pass, so each rank is allocated once at its final size: len == cap, the
// same length on every rank.
func TestGenerateRanksExactSize(t *testing.T) {
	for _, app := range Apps() {
		for _, np := range []int{8, 128} {
			tr, err := Generate(app, np, smallOpt)
			if err != nil {
				t.Fatal(err)
			}
			n := len(tr.Ranks[0])
			for r, ops := range tr.Ranks {
				if len(ops) != n || cap(ops) != n {
					t.Fatalf("%s/%d rank %d: len %d cap %d, want both %d",
						app, np, r, len(ops), cap(ops), n)
				}
			}
		}
	}
}

// An append beyond a rank's presized length must reallocate that rank, not
// spill into the next rank's share of the arena.
func TestGenerateRankAppendIsolated(t *testing.T) {
	tr, err := Generate("alya", 8, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tr.NP-1; r++ {
		next := append([]trace.Op(nil), tr.Ranks[r+1]...)
		tr.Append(r, trace.Barrier())
		for i, op := range tr.Ranks[r+1] {
			if op != next[i] {
				t.Fatalf("append to rank %d changed rank %d op %d: %+v, want %+v",
					r, r+1, i, op, next[i])
			}
		}
	}
}

// genAllocSlack bounds what Generate allocates besides the ops themselves:
// two generator sources of ~5 KB each (structure and jitter, whatever np
// is), the recorded structure draws, and the trace header with its rank
// slice headers (3 KB at 128 ranks).
const genAllocSlack = 64 << 10

// Generation allocates the trace's ops about once. Growing ranks by append
// doubling allocated ~3.3x the final op bytes; the bound fails that well
// before it fails noise.
func TestGenerateAllocBytes(t *testing.T) {
	opt := Options{IterScale: 0.25}
	if _, err := Generate("wrf", 128, opt); err != nil { // warm lazily built state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Generate("wrf", 128, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	opBytes := uint64(tr.NumOps()) * uint64(unsafe.Sizeof(trace.Op{}))
	limit := opBytes + opBytes/4 + genAllocSlack
	t.Logf("%d B of ops, %d B beyond them", opBytes, got-opBytes)
	if got > limit {
		t.Errorf("Generate allocated %d B for %d B of ops (%.2fx); limit 1.25x + %d B = %d B",
			got, opBytes, float64(got)/float64(opBytes), genAllocSlack, limit)
	}
}

// Generate's allocation count does not grow with the process count: one
// arena, two generators and the trace header serve every rank.
func TestGenerateAllocsIndependentOfNP(t *testing.T) {
	for _, app := range Apps() {
		counts := ProcCounts(app)
		allocs := func(np int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Generate(app, np, smallOpt); err != nil {
					t.Fatal(err)
				}
			})
		}
		lo, hi := counts[0], counts[len(counts)-1]
		if a, b := allocs(lo), allocs(hi); a != b {
			t.Errorf("%s: %.0f allocs at np %d, %.0f at np %d", app, a, lo, b, hi)
		}
	}
}
