package trace

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// matchSteps verifies that the Steps decomposition of a collective is
// globally consistent: every send has exactly one matching recv on the peer,
// in an order that cannot deadlock under FIFO matching. It simulates the
// replay engine's matching on the expanded programs.
func matchSteps(t *testing.T, op Op, np int) {
	t.Helper()
	if err := matchStepsErr(op, np); err != nil {
		t.Errorf("%v", err)
	}
}

func matchStepsErr(op Op, np int) error {
	progs := make([][]Step, np)
	for r := 0; r < np; r++ {
		progs[r] = Steps(nil, op, r, np)
	}
	pos := make([]int, np)
	type half struct{ sent, recvd bool }
	state := make([]half, np)
	pendSend := map[[2]int]int{}
	pendRecv := map[[2]int]int{}
	for {
		progress := false
		done := 0
		for r := 0; r < np; r++ {
			if pos[r] >= len(progs[r]) {
				done++
				continue
			}
			m := progs[r][pos[r]]
			st := &state[r]
			if m.Send >= 0 && !st.sent {
				k := [2]int{r, m.Send}
				if pendRecv[[2]int{r, m.Send}] > 0 {
					pendRecv[k]--
					st.sent = true
					progress = true
				} else {
					pendSend[k]++
					st.sent = true
					progress = true
				}
			}
			recvOK := m.Recv < 0 || st.recvd
			if m.Recv >= 0 && !st.recvd {
				k := [2]int{m.Recv, r}
				if pendSend[k] > 0 {
					pendSend[k]--
					st.recvd = true
					recvOK = true
					progress = true
				}
			}
			if (m.Send < 0 || st.sent) && recvOK {
				pos[r]++
				state[r] = half{}
				progress = true
			}
		}
		if done == np {
			break
		}
		if !progress {
			return fmt.Errorf("%v np=%d: decomposition deadlocks at positions %v", op.Call, np, pos)
		}
	}
	for k, n := range pendSend {
		if n != 0 {
			return fmt.Errorf("%v np=%d: %d unmatched sends %v", op.Call, np, n, k)
		}
	}
	for k, n := range pendRecv {
		if n != 0 {
			return fmt.Errorf("%v np=%d: %d unmatched recvs %v", op.Call, np, n, k)
		}
	}
	return nil
}

func TestCollectiveDecompositionsMatch(t *testing.T) {
	ops := []Op{
		Allreduce(1024),
		Barrier(),
		Bcast(0, 2048),
		Bcast(3, 2048),
		Reduce(0, 512),
		Reduce(2, 512),
		Alltoall(128),
	}
	for _, op := range ops {
		for _, np := range []int{2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 32} {
			if int(op.Root) >= np {
				continue
			}
			matchSteps(t, op, np)
		}
	}
}

func TestAllreduceStepCounts(t *testing.T) {
	// Power of two: exactly log2(np) pairwise rounds per rank.
	steps := Steps(nil, Allreduce(64), 0, 8)
	if len(steps) != 3 {
		t.Errorf("allreduce np=8 rank 0: %d steps, want 3", len(steps))
	}
	// Non power of two: paired-out even ranks do 2 steps.
	steps = Steps(nil, Allreduce(64), 0, 6)
	if len(steps) != 2 {
		t.Errorf("allreduce np=6 rank 0 (paired out): %d steps, want 2", len(steps))
	}
	// np=1: nothing to do.
	if len(Steps(nil, Allreduce(64), 0, 1)) != 0 {
		t.Error("allreduce np=1 must be empty")
	}
}

func TestDisseminationRounds(t *testing.T) {
	for _, np := range []int{2, 3, 5, 8, 9, 16} {
		steps := Steps(nil, Barrier(), 0, np)
		want := 0
		for off := 1; off < np; off *= 2 {
			want++
		}
		if len(steps) != want {
			t.Errorf("np=%d: %d rounds, want %d", np, len(steps), want)
		}
	}
}

func TestBcastRootSendsOnly(t *testing.T) {
	steps := Steps(nil, Bcast(2, 64), 2, 8)
	for _, s := range steps {
		if s.Recv >= 0 {
			t.Error("root must not receive in a broadcast")
		}
	}
	if len(steps) != 3 {
		t.Errorf("root sends %d times in np=8, want 3", len(steps))
	}
}

func TestReduceLeafSendsOnce(t *testing.T) {
	// In the binomial reduce, odd vranks send exactly once and never recv.
	steps := Steps(nil, Reduce(0, 64), 1, 8)
	if len(steps) != 1 || steps[0].Send != 0 || steps[0].Recv >= 0 {
		t.Errorf("leaf steps = %+v", steps)
	}
}

func TestAlltoallTouchesAllPeers(t *testing.T) {
	np := 7
	steps := Steps(nil, Alltoall(64), 2, np)
	if len(steps) != np-1 {
		t.Fatalf("steps = %d, want %d", len(steps), np-1)
	}
	sendSeen := map[int]bool{}
	recvSeen := map[int]bool{}
	for _, s := range steps {
		sendSeen[s.Send] = true
		recvSeen[s.Recv] = true
	}
	if len(sendSeen) != np-1 || len(recvSeen) != np-1 {
		t.Errorf("peers covered: send %d recv %d, want %d", len(sendSeen), len(recvSeen), np-1)
	}
}

// Property: every decomposition matches cleanly for arbitrary sizes and
// roots.
func TestDecompositionMatchProperty(t *testing.T) {
	f := func(npRaw, rootRaw uint8, kind uint8) bool {
		np := int(npRaw%30) + 2
		root := int(rootRaw) % np
		var op Op
		switch kind % 5 {
		case 0:
			op = Allreduce(64)
		case 1:
			op = Barrier()
		case 2:
			op = Bcast(root, 64)
		case 3:
			op = Reduce(root, 64)
		case 4:
			op = Alltoall(16)
		}
		return matchStepsErr(op, np) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// callShapes returns one op of every call the replay engine expands, for
// rank r of an np-rank job with the given collective root.
func callShapes(r, np, root int) []Op {
	return []Op{
		Send((r+1)%np, 1024),
		Recv((r + np - 1) % np),
		Sendrecv((r+1)%np, (r+np-1)%np, 4096),
		Allreduce(2048),
		Barrier(),
		Bcast(root, 512),
		Reduce(root, 512),
		Alltoall(256),
	}
}

// TestExpandIntoDirtyBuffer asserts that expanding into a rank's reused
// buffer, which last held a longer call, yields exactly the fresh
// Steps expansion: no step of the previous call survives.
func TestExpandIntoDirtyBuffer(t *testing.T) {
	for _, np := range []int{1, 6, 7, 16} {
		for r := 0; r < np; r++ {
			for root := 0; root < np; root++ {
				for _, op := range callShapes(r, np, root) {
					buf := Steps(nil, Alltoall(99), r, np)
					buf = append(buf, Step{Send: 5, Recv: 5, Bytes: 5}) // one more stale step
					got := Steps(buf[:0], op, r, np)
					want := Steps(nil, op, r, np)
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
	buf := Steps(nil, Alltoall(256), 3, np) // the longest call
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		buf = Steps(buf[:0], ops[i%len(ops)], 3, np)
		i++
	})
	if allocs != 0 {
		t.Errorf("expand into a grown buffer allocated %.1f/op, want 0", allocs)
	}
}

// TestExpandPresizeBound pins the capacity the replay engine gives each
// rank's buffer: every call but alltoall expands to at most StepsCap(np) =
// bits.Len(np)+1 steps, and for a non-power-of-two np some call needs all
// of them. A binomial tree's steps depend only on the rank relative to the
// root, so root 0 with every rank covers every root.
func TestExpandPresizeBound(t *testing.T) {
	var buf []Step
	for np := 1; np <= 130; np++ {
		bound := StepsCap(np)
		longest := 0
		for r := 0; r < np; r++ {
			for _, op := range callShapes(r, np, 0) {
				if op.Call == CallAlltoall {
					continue
				}
				buf = Steps(buf[:0], op, r, np)
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
