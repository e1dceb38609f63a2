package replay

import (
	"testing"

	"ibpower/internal/trace"
)

// TestExpandCachedMatchesExpand asserts the memoized decomposition equals a
// fresh expansion for every call shape the engine can meet.
func TestExpandCachedMatchesExpand(t *testing.T) {
	ops := []trace.Op{
		trace.Send(3, 1024),
		trace.Recv(2),
		trace.Sendrecv(1, 5, 4096),
		trace.Allreduce(2048),
		trace.Barrier(),
		trace.Bcast(0, 512),
		trace.Reduce(2, 512),
		trace.Alltoall(256),
	}
	for _, np := range []int{6, 7, 16} {
		for r := 0; r < np; r++ {
			for _, op := range ops {
				want := expand(op, r, np)
				got := expandCached(op, r, np)
				if len(want) != len(got) {
					t.Fatalf("np=%d r=%d %v: %d steps cached vs %d fresh", np, r, op.Call, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("np=%d r=%d %v step %d: %+v != %+v", np, r, op.Call, i, got[i], want[i])
					}
				}
				// A second lookup must return the identical shared slice.
				if again := expandCached(op, r, np); len(again) > 0 && &again[0] != &got[0] {
					t.Fatalf("np=%d r=%d %v: cache returned a different backing slice", np, r, op.Call)
				}
			}
		}
	}
}

// TestExpandCacheHitNoAllocs is the hot-path regression test: once a call
// shape is memoized, expanding it again must not allocate.
func TestExpandCacheHitNoAllocs(t *testing.T) {
	ops := []trace.Op{
		trace.Allreduce(2048),
		trace.Sendrecv(1, 5, 4096),
		trace.Barrier(),
		trace.Alltoall(256),
	}
	const np = 16
	for r := 0; r < np; r++ {
		for _, op := range ops {
			expandCached(op, r, np) // warm
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		expandCached(ops[i%len(ops)], i%np, np)
		i++
	})
	if allocs != 0 {
		t.Errorf("expand cache hit allocated %.1f/op, want 0", allocs)
	}
}
