package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTraceImplementsSource(t *testing.T) {
	var _ Source = (*Trace)(nil)
	tr := buildValid()
	if tr.Meta() != (Meta{App: "test", NP: 2}) {
		t.Fatalf("Meta = %v", tr.Meta())
	}
	c := tr.Open(0)
	var got []Op
	for {
		op, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, op)
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	want := []Op{Compute(100 * us), Send(1, 1024), Compute(50 * us), Allreduce(8)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cursor ops %+v, want %+v", got, want)
	}
	if op, ok := tr.Open(0).Next(); !ok || op != want[0] {
		t.Error("a second cursor did not start at the first op")
	}
}

// TestFileSourceMatchesTrace reads a packed trace back through the file's
// Source: its identity, op count and every rank's ops equal the trace's,
// and packing the source again gives the same bytes.
func TestFileSourceMatchesTrace(t *testing.T) {
	tr := buildValid()
	enc, err := EncodeBinary(tr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	got := f.SourceAt(0)
	if got.Meta() != tr.Meta() || f.NumOps(0) != int64(tr.NumOps()) {
		t.Errorf("file source %v with %d ops, want %v with %d", got.Meta(), f.NumOps(0), tr.Meta(), tr.NumOps())
	}
	if !reflect.DeepEqual(rankOps(t, got), rankOps(t, tr)) {
		t.Error("file source ops differ from the trace's")
	}
	if again, err := encodeSources(got); err != nil || !bytes.Equal(again, enc) {
		t.Errorf("repacking the file source: %v, or bytes differ", err)
	}
}

// TestCalls pins the one op-stream to call-stream reduction: each call
// carries the computation since the previous call or the stream start, and
// the computation after the last call is the tail.
func TestCalls(t *testing.T) {
	cases := []struct {
		name  string
		ops   []Op
		calls []CallGap
		tail  time.Duration
	}{
		{"back to back", []Op{Barrier(), Alltoall(4), Barrier()},
			[]CallGap{{0, CallBarrier}, {0, CallAlltoall}, {0, CallBarrier}}, 0},
		{"leading computation",
			[]Op{Compute(5), Compute(2), Barrier(), Compute(7), Allreduce(8)},
			[]CallGap{{7, CallBarrier}, {7, CallAllreduce}}, 0},
		{"trailing computation", []Op{Barrier(), Compute(3), Compute(4)},
			[]CallGap{{0, CallBarrier}}, 7},
		{"empty rank", nil, nil, 0},
		{"compute only", []Op{Compute(2), Compute(3)}, nil, 5},
	}
	// One buffer serves every case, longest first, so a case that left
	// calls behind would show in the next.
	buf := make([]CallGap, 0, 8)
	for _, c := range cases {
		k := NewRank(1, 0, nil)
		for _, op := range c.ops {
			k.Append(op)
		}
		calls, tail, err := Calls(buf, k.Open())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(calls, c.calls) || tail != c.tail {
			t.Errorf("%s: calls %v tail %v, want %v tail %v", c.name, calls, tail, c.calls, c.tail)
		}
		if cap(calls) != cap(buf) || &calls[:1][0] != &buf[:1][0] {
			t.Errorf("%s: decoded into new storage instead of the buffer", c.name)
		}
		buf = calls
	}

	// A corrupt .ibt rank surfaces its decode error, and Table I names the
	// rank. The byte before the index ends rank 1's stream: a set
	// continuation bit runs its last varint past the end.
	enc, err := EncodeBinary(buildValid())
	if err != nil {
		t.Fatal(err)
	}
	enc[binary.LittleEndian.Uint64(enc[len(enc)-12:])-1] = 0xFF
	f, err := OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Calls(buf, f.SourceAt(0).Open(0)); err != nil {
		t.Errorf("intact rank 0: %v", err)
	}
	if _, _, err := Calls(buf, f.SourceAt(0).Open(1)); err == nil {
		t.Error("corrupt rank 1 decoded without error")
	}
	if _, err := SourceIdleDistribution(f.SourceAt(0)); err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("Table I over corrupt rank 1: error %v, want one naming rank 1", err)
	}
}

func TestValidateSource(t *testing.T) {
	if err := ValidateSource(buildValid()); err != nil {
		t.Fatal(err)
	}
	bad := buildValid()
	bad.Append(0, Send(9, 1))
	if err := ValidateSource(bad); err == nil {
		t.Error("invalid *Trace accepted")
	}
	enc, _ := EncodeBinary(buildValid())
	f, err := OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	src, err := f.Source("test", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSource(src); err != nil {
		t.Fatal(err)
	}
}

// Satellite: every validation error names the offending rank and op index,
// and sendrecv recv peers are checked independently of send peers.
func TestCheckOpErrorsNameRankAndIndex(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		want []string
	}{
		{"send peer", Send(9, 1), []string{"rank 3", "op 7", "peer 9"}},
		{"self message", Send(3, 1), []string{"rank 3", "op 7", "self"}},
		{"sendrecv send peer", Sendrecv(-1, 0, 8), []string{"rank 3", "op 7", "send peer -1"}},
		{"sendrecv recv peer", Sendrecv(0, 4, 8), []string{"rank 3", "op 7", "recv peer 4"}},
		{"root", Bcast(11, 4), []string{"rank 3", "op 7", "root 11"}},
		{"negative bytes", Op{Kind: OpCall, Call: CallAllreduce, Bytes: -2}, []string{"rank 3", "op 7", "byte count"}},
		{"negative compute", Op{Kind: OpCompute, Duration: -time.Second}, []string{"rank 3", "op 7", "compute"}},
		{"unknown kind", Op{Kind: 42}, []string{"rank 3", "op 7", "kind 42"}},
		{"unknown call", Op{Kind: OpCall, Call: 99}, []string{"rank 3", "op 7", "call ID 99"}},
	}
	for _, c := range cases {
		err := CheckOp(4, 3, 7, &c.op)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, frag := range c.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q missing %q", c.name, err, frag)
			}
		}
	}
	if op := Sendrecv(0, 1, 8); CheckOp(4, 3, 7, &op) != nil {
		t.Errorf("valid sendrecv rejected: %v", CheckOp(4, 3, 7, &op))
	}
}

func TestSourceIdleDistributionMatchesMaterialized(t *testing.T) {
	tr := New("x", 2)
	for r := 0; r < 2; r++ {
		tr.Append(r, Barrier())
		tr.Append(r, Compute(300*time.Microsecond))
		tr.Append(r, Barrier())
		tr.Append(r, Compute(50*time.Microsecond))
		tr.Append(r, Barrier())
	}
	want := IdleDist{Count: [3]int{0, 2, 2}, Time: [3]time.Duration{0, 100 * time.Microsecond, 600 * time.Microsecond}}
	got, err := SourceIdleDistribution(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("streamed dist = %v, want %v", got, want)
	}
	enc, _ := EncodeBinary(tr)
	f, err := OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	got, err = SourceIdleDistribution(f.SourceAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("file dist = %v, want %v", got, want)
	}
}

// The cursor hot path allocates nothing in steady state: both cursors
// decode in place, the in-memory one from its rank's bytes and the file
// cursor inside its pre-sized window buffer. Each measured run drains a cursor opened
// beforehand, so only Next is counted.
func TestCursorNextAllocs(t *testing.T) {
	const runs = 200
	drainAllocs := func(src Source) float64 {
		cs := make([]Cursor, runs+1) // AllocsPerRun adds one warm-up run
		for i := range cs {
			cs[i] = src.Open(2)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			c := cs[i]
			i++
			for {
				if _, ok := c.Next(); !ok {
					break
				}
			}
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
		})
	}
	tr := buildFull()
	if allocs := drainAllocs(tr); allocs != 0 {
		t.Errorf("packed cursor: %v allocs/run, want 0", allocs)
	}
	enc, err := EncodeBinary(tr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := drainAllocs(f.SourceAt(0)); allocs != 0 {
		t.Errorf("file cursor: %v allocs/run, want 0", allocs)
	}
}
