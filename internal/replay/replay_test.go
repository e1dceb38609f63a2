package replay

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ibpower/internal/trace"
)

const us = time.Microsecond

func baseCfg() Config { return DefaultConfig() }

func TestComputeOnlyTrace(t *testing.T) {
	tr := trace.New("t", 2)
	tr.Append(0, trace.Compute(100*us))
	tr.Append(1, trace.Compute(250*us))
	res, err := RunSource(tr, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime != 250*us {
		t.Errorf("exec = %v, want 250µs", res.ExecTime)
	}
	if res.RankFinish[0] != 100*us {
		t.Errorf("rank 0 finish = %v", res.RankFinish[0])
	}
}

func TestPointToPointTiming(t *testing.T) {
	tr := trace.New("t", 2)
	tr.Append(0, trace.Send(1, 4096))
	tr.Append(1, trace.Compute(500*us)) // receiver arrives late
	tr.Append(1, trace.Recv(0))
	res, err := RunSource(tr, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rendezvous at 500 µs; arrival adds latency + serialization.
	if res.RankFinish[1] <= 500*us {
		t.Errorf("receiver finished at %v, before the transfer could complete", res.RankFinish[1])
	}
	if res.RankFinish[1] > 520*us {
		t.Errorf("receiver finished at %v, implausibly late for 4 KB", res.RankFinish[1])
	}
	if res.Transfers != 1 {
		t.Errorf("transfers = %d, want 1", res.Transfers)
	}
}

func TestSendrecvPair(t *testing.T) {
	tr := trace.New("t", 2)
	tr.Append(0, trace.Sendrecv(1, 1, 2048))
	tr.Append(1, trace.Sendrecv(0, 0, 2048))
	res, err := RunSource(tr, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != 2 {
		t.Errorf("transfers = %d, want 2", res.Transfers)
	}
}

func TestCollectivesComplete(t *testing.T) {
	for _, np := range []int{2, 3, 4, 5, 7, 8, 9, 12, 16} {
		tr := trace.New("t", np)
		for r := 0; r < np; r++ {
			tr.Append(r, trace.Compute(10*us))
			tr.Append(r, trace.Allreduce(1024))
			tr.Append(r, trace.Barrier())
			tr.Append(r, trace.Bcast(np/2, 4096))
			tr.Append(r, trace.Reduce(0, 2048))
			tr.Append(r, trace.Alltoall(256))
		}
		res, err := RunSource(tr, baseCfg())
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		if res.ExecTime <= 10*us {
			t.Errorf("np=%d: exec = %v, collectives cost nothing", np, res.ExecTime)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	tr := trace.New("t", 2)
	tr.Append(0, trace.Recv(1)) // nobody ever sends
	tr.Append(1, trace.Compute(10*us))
	_, err := RunSource(tr, baseCfg())
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "rank 0 blocked") ||
		!strings.Contains(err.Error(), "receive from rank 1 unmatched") {
		t.Errorf("deadlock error %q must name the blocked rank and the peer it waits for", err)
	}
}

func TestMismatchedCollectiveDeadlocks(t *testing.T) {
	tr := trace.New("t", 3)
	tr.Append(0, trace.Allreduce(8))
	tr.Append(1, trace.Allreduce(8))
	// rank 2 never joins
	tr.Append(2, trace.Compute(10*us))
	_, err := RunSource(tr, baseCfg())
	if err == nil {
		t.Fatal("missing collective participant not detected")
	}
	// np=3 recursive doubling: rank 0 pairs out to rank 1 and waits for the
	// result; rank 1 took the contribution and waits on rank 2 in the core.
	if !strings.Contains(err.Error(), "rank 0 blocked") ||
		!strings.Contains(err.Error(), "receive from rank 1 unmatched") {
		t.Errorf("deadlock error %q must name the blocked rank and the peer it waits for", err)
	}
}

// TestReplayRejectsSecondOutstandingHalf guards the invariant the matching
// slots rest on: a rank has at most one unmatched send and one unmatched
// receive. A second post of either kind (what a non-blocking Isend would do)
// must fail the run naming the rank and both peers, never overwrite the slot.
func TestReplayRejectsSecondOutstandingHalf(t *testing.T) {
	js := &jobState{app: "t", np: 3}
	e := &engine{jobs: []*jobState{js}}
	for r := 0; r < 3; r++ {
		e.rk = append(e.rk, &rankState{r: r, g: r, np: 3, jb: js, sendTo: -1, recvFrom: -1})
	}

	e.postSend(0, 1, 64, 0)
	e.postSend(0, 2, 64, 0)
	if err := e.drain(); err == nil ||
		!strings.Contains(err.Error(), "rank 0 posts a send to rank 2 while its send to rank 1 is unmatched") {
		t.Errorf("second send: err = %v", err)
	}
	if e.rk[0].sendTo != 1 {
		t.Errorf("send slot overwritten: sendTo = %d, want 1", e.rk[0].sendTo)
	}

	e.err = nil
	e.postRecv(2, 1, 0)
	e.postRecv(2, 0, 0)
	if err := e.drain(); err == nil ||
		!strings.Contains(err.Error(), "rank 2 posts a receive from rank 0 while its receive from rank 1 is unmatched") {
		t.Errorf("second receive: err = %v", err)
	}
	if e.rk[2].recvFrom != 1 {
		t.Errorf("receive slot overwritten: recvFrom = %d, want 1", e.rk[2].recvFrom)
	}
}

func TestDeterminism(t *testing.T) {
	tr := periodicTrace(8, 30)
	r1, err := RunSource(tr, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSource(tr, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecTime != r2.ExecTime {
		t.Errorf("replay nondeterministic: %v vs %v", r1.ExecTime, r2.ExecTime)
	}
}

// periodicTrace builds an SPMD trace with a regular iteration: ring
// sendrecv, long compute, allreduce, medium compute.
func periodicTrace(np, iters int) *trace.Trace {
	tr := trace.New("periodic", np)
	for i := 0; i < iters; i++ {
		for r := 0; r < np; r++ {
			tr.Append(r, trace.Sendrecv((r+1)%np, (r-1+np)%np, 8192))
			tr.Append(r, trace.Compute(600*us))
			tr.Append(r, trace.Allreduce(64))
			tr.Append(r, trace.Compute(250*us))
		}
	}
	return tr
}

func TestPowerMechanismSavesPower(t *testing.T) {
	tr := periodicTrace(8, 40)
	base, err := RunSource(tr, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSource(tr, baseCfg().WithPower(20*us, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AvgSavingPct(); got < 20 {
		t.Errorf("saving = %.2f%% on a highly regular compute-heavy trace", got)
	}
	if got := res.AvgSavingPct(); got > 57 {
		t.Errorf("saving = %.2f%% exceeds the 57%% physical bound", got)
	}
	inc := res.TimeIncreasePct(base)
	if inc < 0 {
		t.Errorf("mechanism made the run faster (%.2f%%)?", inc)
	}
	if inc > 3 {
		t.Errorf("time increase %.2f%% too large for a regular trace", inc)
	}
	if res.Shutdowns == 0 || res.TimerWakes == 0 {
		t.Error("no shutdowns/wakes recorded")
	}
	if res.AvgHitRatePct() < 80 {
		t.Errorf("hit rate %.1f%%", res.AvgHitRatePct())
	}
}

func TestDisplacementTradeoff(t *testing.T) {
	tr := periodicTrace(4, 40)
	var savings []float64
	for _, d := range []float64{0.10, 0.05, 0.01} {
		res, err := RunSource(tr, baseCfg().WithPower(20*us, d))
		if err != nil {
			t.Fatal(err)
		}
		savings = append(savings, res.AvgSavingPct())
	}
	// Smaller displacement keeps lanes down longer: savings must not
	// decrease as the displacement factor shrinks (Figures 7 vs 9).
	if !(savings[2] >= savings[1] && savings[1] >= savings[0]) {
		t.Errorf("savings not monotone in displacement: %v", savings)
	}
}

func TestBaselineHasNoPowerAccounting(t *testing.T) {
	tr := periodicTrace(2, 5)
	res, err := RunSource(tr, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgSavingPct() != 0 || len(res.Acct) != 0 {
		t.Error("baseline run must carry no power accounting")
	}
}

func TestAccountingConservation(t *testing.T) {
	tr := periodicTrace(4, 25)
	res, err := RunSource(tr, baseCfg().WithPower(20*us, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	for r, a := range res.Acct {
		if a.Total() != res.ExecTime {
			t.Errorf("rank %d: accounted %v != exec %v", r, a.Total(), res.ExecTime)
		}
	}
}

func TestTimelinesRecorded(t *testing.T) {
	tr := periodicTrace(3, 20)
	cfg := baseCfg().WithPower(20*us, 0.05)
	cfg.Power.RecordTimelines = true
	res, err := RunSource(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines) != 3 {
		t.Fatalf("timelines = %d, want 3", len(res.Timelines))
	}
	low := res.Timelines[0].TimeIn(trace.StateLow)
	if low <= 0 {
		t.Error("timeline shows no low-power time")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	tr := periodicTrace(2, 2)
	cfg := baseCfg().WithPower(5*us, 0.01) // GT below 2·Treact
	if _, err := RunSource(tr, cfg); err == nil {
		t.Fatal("invalid GT accepted")
	}
}

func TestTopologyTooSmall(t *testing.T) {
	tr := periodicTrace(2, 2)
	cfg := baseCfg()
	// A 2-terminal custom topology cannot host 2 ranks? It can; use np > terminals.
	tr300 := trace.New("big", 300)
	for r := 0; r < 300; r++ {
		tr300.Append(r, trace.Compute(us))
	}
	if _, err := RunSource(tr300, cfg); err == nil {
		t.Fatal("300 ranks on a 252-terminal fabric accepted")
	}
	if _, err := RunSource(tr, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOverheadsSlowExecution(t *testing.T) {
	tr := periodicTrace(2, 30)
	base, err := RunSource(tr, baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSource(tr, baseCfg().WithPower(20*us, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime < base.ExecTime {
		t.Error("power run faster than baseline despite per-call overheads")
	}
}

// Property: replay of random SPMD traces (same op sequence on every rank)
// terminates without deadlock and conserves accounting.
func TestRandomSPMDTraceProperty(t *testing.T) {
	f := func(seed int64, nIter uint8) bool {
		np := int(seed%5) + 2
		if np < 2 {
			np = 2
		}
		tr := trace.New("q", np)
		iters := int(nIter%8) + 1
		s := seed
		rnd := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			v := int((s >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		for i := 0; i < iters; i++ {
			kind := rnd(4)
			bytes := rnd(1 << 16)
			for r := 0; r < np; r++ {
				tr.Append(r, trace.Compute(time.Duration(rnd(500))*us))
				switch kind {
				case 0:
					tr.Append(r, trace.Sendrecv((r+1)%np, (r-1+np)%np, bytes))
				case 1:
					tr.Append(r, trace.Allreduce(bytes%4096))
				case 2:
					tr.Append(r, trace.Barrier())
				case 3:
					tr.Append(r, trace.Bcast(0, bytes))
				}
			}
		}
		res, err := RunSource(tr, baseCfg().WithPower(20*us, 0.05))
		if err != nil {
			return false
		}
		for _, a := range res.Acct {
			if a.Total() != res.ExecTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
