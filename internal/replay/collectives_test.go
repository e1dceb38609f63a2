package replay

import (
	"fmt"
	"testing"
	"testing/quick"

	"ibpower/internal/trace"
)

// matchSteps verifies that the trace.Steps decomposition of a collective is
// globally consistent: every send has exactly one matching recv on the peer,
// in an order that cannot deadlock under FIFO matching. It simulates the
// engine's matching on the expanded programs.
func matchSteps(t *testing.T, op trace.Op, np int) {
	t.Helper()
	if err := matchStepsErr(op, np); err != nil {
		t.Errorf("%v", err)
	}
}

func matchStepsErr(op trace.Op, np int) error {
	progs := make([][]trace.Step, np)
	for r := 0; r < np; r++ {
		progs[r] = trace.Steps(nil, op, r, np)
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
	ops := []trace.Op{
		trace.Allreduce(1024),
		trace.Barrier(),
		trace.Bcast(0, 2048),
		trace.Bcast(3, 2048),
		trace.Reduce(0, 512),
		trace.Reduce(2, 512),
		trace.Alltoall(128),
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
	steps := trace.Steps(nil, trace.Allreduce(64), 0, 8)
	if len(steps) != 3 {
		t.Errorf("allreduce np=8 rank 0: %d steps, want 3", len(steps))
	}
	// Non power of two: paired-out even ranks do 2 steps.
	steps = trace.Steps(nil, trace.Allreduce(64), 0, 6)
	if len(steps) != 2 {
		t.Errorf("allreduce np=6 rank 0 (paired out): %d steps, want 2", len(steps))
	}
	// np=1: nothing to do.
	if len(trace.Steps(nil, trace.Allreduce(64), 0, 1)) != 0 {
		t.Error("allreduce np=1 must be empty")
	}
}

func TestDisseminationRounds(t *testing.T) {
	for _, np := range []int{2, 3, 5, 8, 9, 16} {
		steps := trace.Steps(nil, trace.Barrier(), 0, np)
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
	steps := trace.Steps(nil, trace.Bcast(2, 64), 2, 8)
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
	steps := trace.Steps(nil, trace.Reduce(0, 64), 1, 8)
	if len(steps) != 1 || steps[0].Send != 0 || steps[0].Recv >= 0 {
		t.Errorf("leaf steps = %+v", steps)
	}
}

func TestAlltoallTouchesAllPeers(t *testing.T) {
	np := 7
	steps := trace.Steps(nil, trace.Alltoall(64), 2, np)
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
		var op trace.Op
		switch kind % 5 {
		case 0:
			op = trace.Allreduce(64)
		case 1:
			op = trace.Barrier()
		case 2:
			op = trace.Bcast(root, 64)
		case 3:
			op = trace.Reduce(root, 64)
		case 4:
			op = trace.Alltoall(16)
		}
		return matchStepsErr(op, np) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
