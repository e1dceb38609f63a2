package workloads

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ibpower/internal/trace"
)

// The generator source's per-rank streams must be bit-identical to the
// corresponding ranks of the generated trace, for every registered
// application at its smallest and largest process count — the exactness
// contract that lets replay results be independent of how a trace is
// delivered. Each rank's ops are compared through cursors, and the packed
// bytes, which both sources hand the pack writer verbatim, through one pack
// of each.
func TestSourceMatchesGenerate(t *testing.T) {
	opt := Options{Seed: 7, IterScale: 0.05}
	for _, app := range Apps() {
		counts := ProcCounts(app)
		for _, np := range []int{counts[0], counts[len(counts)-1]} {
			full, err := Generate(app, np, opt)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewSource(app, np, opt)
			if err != nil {
				t.Fatal(err)
			}
			if src.Meta() != (trace.Meta{App: app, NP: np}) {
				t.Fatalf("%s/%d: Meta = %v", app, np, src.Meta())
			}
			for r := 0; r < np; r++ {
				if !reflect.DeepEqual(rankOps(t, src, r), rankOps(t, full, r)) {
					t.Errorf("%s/%d: streamed rank %d differs from Generate", app, np, r)
				}
			}
			var got, want bytes.Buffer
			if err := trace.WriteBinarySources(&got, src); err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteBinary(&want, full); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s/%d: packed ranks differ from Generate's", app, np)
			}
		}
	}
}

// Open is safe to call from several goroutines at once: every call builds
// its rank on its own copy of the source's builder and only reads the
// shared structure draws.
func TestSourceConcurrentOpen(t *testing.T) {
	full, err := Generate("gromacs", 16, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource("gromacs", 16, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]trace.Op, 16)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := src.Open(r)
			for op, ok := c.Next(); ok; op, ok = c.Next() {
				got[r] = append(got[r], op)
			}
		}()
	}
	wg.Wait()
	want := make([][]trace.Op, 16)
	for r := range want {
		want[r] = rankOps(t, full, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("ranks opened concurrently differ from Generate")
	}
}

// TestSourceWeakAndReopen streams a weak-scaling rank twice, each through
// a new cursor: both reads equal the generated rank.
func TestSourceWeakAndReopen(t *testing.T) {
	opt := Options{Seed: 3, IterScale: 0.05, Weak: true}
	full, err := Generate("alya", 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource("alya", 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() []trace.Op {
		c := src.Open(5)
		var ops []trace.Op
		for {
			op, ok := c.Next()
			if !ok {
				break
			}
			ops = append(ops, op)
		}
		return ops
	}
	first := drain()
	second := drain()
	if !reflect.DeepEqual(first, second) {
		t.Error("a second cursor read a different stream")
	}
	if !reflect.DeepEqual(first, rankOps(t, full, 5)) {
		t.Error("weak-scaling streamed rank differs from Generate")
	}
}

func TestNewSourceErrors(t *testing.T) {
	if _, err := NewSource("nope", 8, Options{}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := NewSource("alya", 1, Options{}); err == nil {
		t.Error("np=1 accepted")
	}
}

// TestSourceOpenOutOfRange opens a rank outside [0, np) on each of the three
// sources: the generator, the in-memory trace and the packed file. Each
// panics with a message naming the rank, not a bare index error.
func TestSourceOpenOutOfRange(t *testing.T) {
	gen, err := NewSource("alya", 8, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate("alya", 8, smallOpt)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := trace.EncodeBinary(tr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]trace.Source{"generator": gen, "trace": tr, "file": f.SourceAt(0)} {
		for _, r := range []int{-1, 8} {
			func() {
				defer func() {
					want := fmt.Sprintf("rank %d out of range [0, 8)", r)
					if msg, _ := recover().(string); !strings.Contains(msg, want) {
						t.Errorf("%s: Open(%d) panicked with %q, want %q", name, r, msg, want)
					}
				}()
				src.Open(r)
			}()
		}
	}
}
