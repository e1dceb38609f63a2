package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ibpower/internal/trace"
)

func TestRankAndSize(t *testing.T) {
	var seen sync.Map
	err := Run(4, func(c *Comm) error {
		if c.Size() != 4 {
			return fmt.Errorf("size = %d", c.Size())
		}
		seen.Store(c.Rank(), true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if _, ok := seen.Load(r); !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, []float64{1, 2, 3})
			return nil
		}
		got := c.Recv(0)
		if len(got) != 3 || got[2] != 3 {
			return fmt.Errorf("recv = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	// The sender may reuse its buffer immediately after Send returns.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, buf)
			buf[0] = -1 // must not corrupt the message
			c.Barrier()
			return nil
		}
		c.Barrier()
		if got := c.Recv(0); got[0] != 42 {
			return fmt.Errorf("recv = %v, want [42]", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvRing(t *testing.T) {
	const np = 5
	err := Run(np, func(c *Comm) error {
		r := c.Rank()
		right := (r + 1) % np
		left := (r - 1 + np) % np
		got := c.Sendrecv(right, []float64{float64(r)}, left)
		if got[0] != float64(left) {
			return fmt.Errorf("rank %d got %v from left, want %d", r, got, left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	for np := 1; np <= 17; np++ {
		want := float64(np * (np - 1) / 2)
		err := Run(np, func(c *Comm) error {
			got := c.Allreduce([]float64{float64(c.Rank())}, Sum)
			if got[0] != want {
				return fmt.Errorf("np=%d rank %d: sum = %v, want %v", np, c.Rank(), got[0], want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const np = 6
	err := Run(np, func(c *Comm) error {
		mx := c.Allreduce([]float64{float64(c.Rank())}, Max)
		mn := c.Allreduce([]float64{float64(c.Rank())}, Min)
		if mx[0] != np-1 || mn[0] != 0 {
			return fmt.Errorf("max=%v min=%v", mx[0], mn[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const np = 8
	var before, after int32
	err := Run(np, func(c *Comm) error {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		// Everyone must have incremented before anyone proceeds.
		if atomic.LoadInt32(&before) != np {
			return fmt.Errorf("barrier released rank %d early (%d/%d arrived)",
				c.Rank(), atomic.LoadInt32(&before), np)
		}
		atomic.AddInt32(&after, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != np {
		t.Errorf("after = %d", after)
	}
}

func TestBcast(t *testing.T) {
	for _, np := range []int{1, 5, 6, 7, 8, 13} {
		for root := 0; root < np; root++ {
			err := Run(np, func(c *Comm) error {
				var data []float64
				if c.Rank() == root {
					data = []float64{3.14, 2.71}
				} else {
					data = make([]float64, 2)
				}
				got := c.Bcast(root, data)
				if got[0] != 3.14 || got[1] != 2.71 {
					return fmt.Errorf("np=%d root %d: rank %d got %v", np, root, c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestReduce(t *testing.T) {
	for _, np := range []int{1, 5, 6, 8, 9, 13} {
		for root := 0; root < np; root++ {
			err := Run(np, func(c *Comm) error {
				got := c.Reduce(root, []float64{1}, Sum)
				if c.Rank() == root {
					if got == nil || got[0] != float64(np) {
						return fmt.Errorf("np=%d: root %d result = %v, want [%d]", np, root, got, np)
					}
				} else if got != nil {
					return fmt.Errorf("np=%d root %d: non-root rank %d got %v", np, root, c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, np := range []int{4, 7} {
		err := Run(np, func(c *Comm) error {
			r := c.Rank()
			data := make([]float64, np)
			for i := range data {
				data[i] = float64(r*10 + i)
			}
			got := c.Alltoall(data)
			for i := range got {
				if got[i] != float64(i*10+r) {
					return fmt.Errorf("np=%d rank %d slot %d = %v, want %v", np, r, i, got[i], float64(i*10+r))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPanicRecovered(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not reported as error")
	}
}

func TestErrorPropagates(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("deliberate")
		}
		return nil
	})
	if err == nil {
		t.Fatal("rank error lost")
	}
}

func TestRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(0); err == nil {
		t.Error("np=0 accepted")
	}
}

// countingProfiler records Before/After invocations per call type.
type countingProfiler struct {
	mu     sync.Mutex
	before map[trace.CallID]int
	after  map[trace.CallID]int
}

func (p *countingProfiler) Before(c trace.CallID, t time.Duration) {
	p.mu.Lock()
	p.before[c]++
	p.mu.Unlock()
}

func (p *countingProfiler) After(c trace.CallID, s, e time.Duration) {
	p.mu.Lock()
	p.after[c]++
	p.mu.Unlock()
}

func TestProfilerHooks(t *testing.T) {
	profs := map[int]*countingProfiler{}
	var mu sync.Mutex
	factory := func(rank int) Profiler {
		p := &countingProfiler{before: map[trace.CallID]int{}, after: map[trace.CallID]int{}}
		mu.Lock()
		profs[rank] = p
		mu.Unlock()
		return p
	}
	const np = 3
	err := Run(np, func(c *Comm) error {
		c.Barrier()
		c.Allreduce([]float64{1}, Sum)
		c.Barrier()
		return nil
	}, WithProfiler(factory))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < np; r++ {
		p := profs[r]
		if p.before[trace.CallBarrier] != 2 || p.after[trace.CallBarrier] != 2 {
			t.Errorf("rank %d barrier hooks: %d/%d, want 2/2",
				r, p.before[trace.CallBarrier], p.after[trace.CallBarrier])
		}
		if p.before[trace.CallAllreduce] != 1 {
			t.Errorf("rank %d allreduce hooks: %d", r, p.before[trace.CallAllreduce])
		}
		// The collective's internal sends/recvs must NOT be profiled: the
		// PMPI layer sees MPI calls, not their decomposition.
		if p.before[trace.CallSend] != 0 || p.before[trace.CallRecv] != 0 {
			t.Errorf("rank %d: internal point-to-points leaked into the profile layer", r)
		}
	}
}

// Property: Allreduce(Sum) equals the serial sum for random vectors and
// communicator sizes.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed int64, npRaw uint8) bool {
		np := int(npRaw%9) + 1
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(5) + 1
		vals := make([][]float64, np)
		want := make([]float64, k)
		for r := range vals {
			vals[r] = make([]float64, k)
			for i := range vals[r] {
				vals[r][i] = float64(rng.Intn(1000)) / 8
				want[i] += vals[r][i]
			}
		}
		ok := true
		var mu sync.Mutex
		err := Run(np, func(c *Comm) error {
			got := c.Allreduce(vals[c.Rank()], Sum)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
