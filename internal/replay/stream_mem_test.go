package replay

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ibpower/internal/trace"
)

// bigSource synthesizes a large workload without ever materializing it: each
// rank's cursor produces opsPer ops on demand — mostly computation bursts
// with a sparse sendrecv ring so the network path is exercised too.
type bigSource struct {
	np, opsPer int
}

func (s bigSource) Meta() trace.Meta { return trace.Meta{App: "big", NP: s.np} }

func (s bigSource) Open(r int) trace.Cursor { return &bigCursor{src: s, rank: r} }

type bigCursor struct {
	src  bigSource
	rank int
	i    int
}

func (c *bigCursor) Next() (trace.Op, bool) {
	if c.i >= c.src.opsPer {
		return trace.Op{}, false
	}
	i := c.i
	c.i++
	if i%500 == 499 {
		np := c.src.np
		return trace.Sendrecv((c.rank+1)%np, (c.rank+np-1)%np, 64), true
	}
	return trace.Compute(time.Duration(1+i%7) * time.Microsecond), true
}

func (c *bigCursor) Err() error { return nil }

// TestStreamedReplayBoundedMemory packs a million-op workload to a binary
// trace file and replays it through streaming cursors, asserting the replay
// allocates a small fraction of what materializing the op slices would cost:
// the O(window) memory contract of the trace layer. The generator-side pack
// is also streamed, so at no point does the full trace exist in memory.
func TestStreamedReplayBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event replay; skipped in -short mode")
	}
	const np, opsPer = 8, 125_000 // 1M ops total
	src := bigSource{np: np, opsPer: opsPer}

	path := filepath.Join(t.TempDir(), "big.ibt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinarySources(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bf, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	fsrc, err := bf.Source("big", np)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := RunSource(fsrc, cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatalf("replay produced no progress: exec time %v", res.ExecTime)
	}

	allocated := m1.TotalAlloc - m0.TotalAlloc
	materialized := uint64(np) * uint64(opsPer) * uint64(unsafe.Sizeof(trace.Op{}))
	// The streamed replay's allocation must stay far below one materialized
	// copy of the op streams. The bound is deliberately loose (a quarter of
	// the 64 MiB materialized cost) so transfer bookkeeping and GC noise
	// never flake it, while still catching any regression that decodes a
	// rank's ops into a slice.
	if allocated > materialized/4 {
		t.Errorf("streamed 1M-op replay allocated %d bytes; materialized op slices would be %d — streaming bound lost",
			allocated, materialized)
	}
	t.Logf("streamed replay: %d bytes allocated vs %d materialized (%.1f%%)",
		allocated, materialized, 100*float64(allocated)/float64(materialized))
}
