package mpi

import (
	"testing"
	"time"

	"ibpower/internal/trace"
)

func TestRecorderCapturesOps(t *testing.T) {
	const np = 4
	rec := NewTraceRecorder("test", np)
	err := Run(np, func(c *Comm) error {
		right := (c.Rank() + 1) % np
		left := (c.Rank() - 1 + np) % np
		for i := 0; i < 5; i++ {
			c.Sendrecv(right, []float64{1, 2}, left)
			busy(50 * time.Microsecond)
			c.Allreduce([]float64{1}, Sum)
		}
		c.Barrier()
		return nil
	}, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NP != np {
		t.Fatalf("NP = %d", tr.NP)
	}
	// 5 iterations × 2 calls + barrier per rank.
	if got := tr.NumCalls(); got != np*11 {
		t.Errorf("calls = %d, want %d", got, np*11)
	}
	// The recorded sendrecv must carry peers and size (2 float64 = 16 B).
	c := tr.Open(0)
	sr, ok := c.Next()
	for ok && (sr.Kind != trace.OpCall || sr.Call != trace.CallSendrecv) {
		sr, ok = c.Next()
	}
	if !ok {
		t.Fatal("no sendrecv recorded")
	}
	if sr.Peer != 1 || sr.RecvPeer != np-1 || sr.Bytes != 16 {
		t.Errorf("sendrecv = %+v", sr)
	}
	// Computation gaps were captured: rank 0 spun ~50 µs per iteration.
	if tr.ComputeTime(0) < 200*time.Microsecond {
		t.Errorf("recorded compute = %v, want >= 200µs", tr.ComputeTime(0))
	}
}

func TestRecorderSPMDAlignment(t *testing.T) {
	// Recorded traces must keep the SPMD call alignment the replayer needs.
	const np = 3
	rec := NewTraceRecorder("align", np)
	err := Run(np, func(c *Comm) error {
		for i := 0; i < 4; i++ {
			c.Barrier()
			c.Allreduce([]float64{float64(c.Rank())}, Sum)
		}
		return nil
	}, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	seq := func(r int) []trace.CallID {
		var out []trace.CallID
		c := tr.Open(r)
		for op, ok := c.Next(); ok; op, ok = c.Next() {
			if op.Kind == trace.OpCall {
				out = append(out, op.Call)
			}
		}
		return out
	}
	ref := seq(0)
	for r := 1; r < np; r++ {
		got := seq(r)
		if len(got) != len(ref) {
			t.Fatalf("rank %d: %d calls vs %d", r, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("rank %d call %d: %v vs %v", r, i, got[i], ref[i])
			}
		}
	}
}

func busy(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}
