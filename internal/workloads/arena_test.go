package workloads

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"ibpower/internal/trace"
)

// Generate encodes every rank into one arena sized by the structure-only
// pass, each rank right after the one before it: a rank's bytes end where
// the next rank's begin and it has no spare capacity, and every rank holds
// the same number of ops. No rank outgrows the pass's bound: at 200 ranks,
// alya's rank 130 draws a burst one varint byte longer than its mean's, so
// the bound must count the jitter.
func TestGenerateRanksExactSize(t *testing.T) {
	for _, app := range Apps() {
		for _, np := range []int{8, 128, 200} {
			tr, err := Generate(app, np, smallOpt)
			if err != nil {
				t.Fatal(err)
			}
			bound := (&builder{m: registry[app], np: np, opt: smallOpt}).length()
			n := tr.NumOps() / np
			for r := 0; r < np; r++ {
				b := tr.RankBytes(r)
				if cap(b) != len(b) || len(b) > bound {
					t.Fatalf("%s/%d rank %d: len %d cap %d, want cap == len <= bound %d", app, np, r, len(b), cap(b), bound)
				}
				if ops := len(rankOps(t, tr, r)); ops != n {
					t.Fatalf("%s/%d rank %d: %d ops, want %d", app, np, r, ops, n)
				}
				if r+1 < np && unsafe.Add(unsafe.Pointer(unsafe.SliceData(b)), len(b)) != unsafe.Pointer(unsafe.SliceData(tr.RankBytes(r+1))) {
					t.Fatalf("%s/%d: rank %d's bytes do not end where rank %d's begin", app, np, r, r+1)
				}
			}
		}
	}
}

// An append beyond a rank's encoded bytes must reallocate that rank, not
// spill into the next rank's share of the arena.
func TestGenerateRankAppendIsolated(t *testing.T) {
	tr, err := Generate("alya", 8, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tr.NP-1; r++ {
		next := rankOps(t, tr, r+1)
		tr.Append(r, trace.Barrier())
		for i, op := range rankOps(t, tr, r+1) {
			if op != next[i] {
				t.Fatalf("append to rank %d changed rank %d op %d: %+v, want %+v",
					r, r+1, i, op, next[i])
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// genAllocSlack bounds what Generate allocates besides the arena: two
// generator sources of ~5 KB each (structure and jitter, whatever np is),
// the recorded structure draws, and the trace header with its rank headers
// (9 KB at 128 ranks).
const genAllocSlack = 64 << 10

// Generation allocates the trace's packed bytes about once: the arena is
// the structure-only pass's bound, which takes every op at its largest
// encoding on any rank. Holding ops as 32-byte Ops allocated ~7x the packed
// bytes; the bound fails that well before it fails noise.
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
	var packed uint64
	for r := 0; r < tr.NP; r++ {
		packed += uint64(len(tr.RankBytes(r)))
	}
	limit := packed + packed/2 + genAllocSlack
	t.Logf("%d B packed (%.2f B/op), %d B allocated", packed, float64(packed)/float64(tr.NumOps()), got)
	if got > limit {
		t.Errorf("Generate allocated %d B for %d B of packed ops (%.2fx); limit 1.5x + %d B = %d B",
			got, packed, float64(got)/float64(packed), genAllocSlack, limit)
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

// rankOps drains rank r of src, failing t on a cursor error.
func rankOps(t testing.TB, src trace.Source, r int) []trace.Op {
	t.Helper()
	var ops []trace.Op
	c := src.Open(r)
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		ops = append(ops, op)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return ops
}

// BenchmarkCursorNext drains every rank of wrf-128 (IterScale 0.25)
// through each source's cursor and reports the time per decoded op: the
// in-memory trace, which decodes its packed ranks in place, and the same
// trace packed as .ibt, whose cursor also checks every op.
func BenchmarkCursorNext(b *testing.B) {
	tr, err := Generate("wrf", 128, Options{IterScale: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := trace.EncodeBinary(tr)
	if err != nil {
		b.Fatal(err)
	}
	f, err := trace.OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []struct {
		name string
		src  trace.Source
	}{{"memory", tr}, {"file", f.SourceAt(0)}} {
		b.Run(s.name, func(b *testing.B) {
			ops := 0
			for b.Loop() {
				for r := 0; r < tr.NP; r++ {
					c := s.src.Open(r)
					for _, ok := c.Next(); ok; _, ok = c.Next() {
						ops++
					}
					if err := c.Err(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/decode")
		})
	}
}
