package replay

import (
	"slices"
	"testing"

	"ibpower/internal/trace"
)

// callShapes returns one op of every call the engine expands, for rank r of
// an np-rank job with the given collective root.
func callShapes(r, np, root int) []trace.Op {
	return []trace.Op{
		trace.Send((r+1)%np, 1024),
		trace.Recv((r + np - 1) % np),
		trace.Sendrecv((r+1)%np, (r+np-1)%np, 4096),
		trace.Allreduce(2048),
		trace.Barrier(),
		trace.Bcast(root, 512),
		trace.Reduce(root, 512),
		trace.Alltoall(256),
	}
}

// TestExpandIntoDirtyBuffer asserts that expanding into a rank's reused
// buffer, which last held a longer call, yields exactly the fresh
// trace.Steps expansion: no step of the previous call survives.
func TestExpandIntoDirtyBuffer(t *testing.T) {
	for _, np := range []int{1, 6, 7, 16} {
		for r := 0; r < np; r++ {
			for root := 0; root < np; root++ {
				for _, op := range callShapes(r, np, root) {
					buf := trace.Steps(nil, trace.Alltoall(99), r, np)
					buf = append(buf, trace.Step{Send: 5, Recv: 5, Bytes: 5}) // one more stale step
					got := trace.Steps(buf[:0], op, r, np)
					want := trace.Steps(nil, op, r, np)
					if !slices.Equal(got, want) {
						t.Fatalf("np=%d r=%d root=%d %v: dirty buffer gave %+v, fresh %+v",
							np, r, root, op.Call, got, want)
					}
					if np == 1 && op.Call.IsCollective() && len(want) != 0 {
						t.Errorf("%v on one rank: %d steps, want none", op.Call, len(want))
					}
				}
			}
		}
	}
}

// TestExpandGrownBufferNoAllocs is the hot-path regression test: once a
// rank's buffer has grown to its longest call, expanding any call into it
// must not allocate.
func TestExpandGrownBufferNoAllocs(t *testing.T) {
	const np = 16
	ops := callShapes(3, np, 0)
	buf := trace.Steps(nil, trace.Alltoall(256), 3, np) // the longest call
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		buf = trace.Steps(buf[:0], ops[i%len(ops)], 3, np)
		i++
	})
	if allocs != 0 {
		t.Errorf("expand into a grown buffer allocated %.1f/op, want 0", allocs)
	}
}

// TestExpandPresizeBound pins the capacity addJob gives each rank's buffer:
// every call but alltoall expands to at most trace.StepsCap(np) =
// bits.Len(np)+1 steps, and for a non-power-of-two np some call needs all
// of them. A binomial tree's steps depend only on the rank relative to the
// root, so root 0 with every rank covers every root.
func TestExpandPresizeBound(t *testing.T) {
	var buf []trace.Step
	for np := 1; np <= 130; np++ {
		bound := trace.StepsCap(np)
		longest := 0
		for r := 0; r < np; r++ {
			for _, op := range callShapes(r, np, 0) {
				if op.Call == trace.CallAlltoall {
					continue
				}
				buf = trace.Steps(buf[:0], op, r, np)
				if len(buf) > bound {
					t.Fatalf("np=%d r=%d %v: %d steps, StepsCap is %d", np, r, op.Call, len(buf), bound)
				}
				longest = max(longest, len(buf))
			}
		}
		if np&(np-1) != 0 && longest != bound {
			t.Errorf("np=%d: longest call has %d steps, StepsCap %d is loose", np, longest, bound)
		}
	}
}
