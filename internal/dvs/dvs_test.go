package dvs

import (
	"testing"
	"time"

	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

const us = time.Microsecond

func TestIdleTraceDropsToLowestLevel(t *testing.T) {
	tr := trace.New("idle", 2)
	for r := 0; r < 2; r++ {
		tr.Append(r, trace.Barrier())
		tr.Append(r, trace.Compute(10*time.Millisecond))
		tr.Append(r, trace.Barrier())
	}
	res, err := Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	rr := res.PerRank[0]
	// Nearly all windows are empty: the mean power must approach the
	// quarter-rate floor (0.6625).
	if rr.MeanPower > 0.70 {
		t.Errorf("mean power %v on an idle link, want near 0.66", rr.MeanPower)
	}
	if rr.SavingPct() < 25 {
		t.Errorf("saving %.1f%% on idle link", rr.SavingPct())
	}
}

func TestBusyTraceStaysFast(t *testing.T) {
	tr := trace.New("busy", 2)
	// Saturate: 512 KB every 100 µs window is ~100 % utilization.
	for i := 0; i < 100; i++ {
		for r := 0; r < 2; r++ {
			tr.Append(r, trace.Sendrecv((r+1)%2, (r+1)%2, 512<<10))
			tr.Append(r, trace.Compute(100*us))
		}
	}
	res, err := Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	rr := res.PerRank[0]
	if rr.MeanPower < 0.95 {
		t.Errorf("mean power %v on a saturated link, want ~1", rr.MeanPower)
	}
	if rr.SavingPct() > 5 {
		t.Errorf("saving %.1f%% on a saturated link", rr.SavingPct())
	}
}

func TestDVSSavesLessThanWRPSCeiling(t *testing.T) {
	// On every paper workload, the DVS baseline's saving must stay under
	// the WRPS low-power ceiling (57 %) and indeed under its own floor
	// bound (1 - 0.6625 = 33.75 %).
	for _, app := range workloads.Apps() {
		tr, err := workloads.Generate(app, 8, workloads.Options{IterScale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evaluate(tr)
		if err != nil {
			t.Fatal(err)
		}
		if s := res.AvgSavingPct(); s < 0 || s > 33.75 {
			t.Errorf("%s: DVS saving %.2f%% outside [0, 33.75]", app, s)
		}
	}
}

func TestLevelChangesCostRelock(t *testing.T) {
	tr := trace.New("alt", 2)
	// Alternate saturated and idle phases to force level changes.
	for i := 0; i < 50; i++ {
		for r := 0; r < 2; r++ {
			tr.Append(r, trace.Sendrecv((r+1)%2, (r+1)%2, 512<<10))
			tr.Append(r, trace.Compute(2*time.Millisecond))
		}
	}
	res, err := Evaluate(tr)
	if err != nil {
		t.Fatal(err)
	}
	base, err := evaluate(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.PerRank[0].AddedSerial <= 0 {
		t.Error("no serialization penalty recorded")
	}
	// Each level change adds one relock and nothing else.
	if extra := res.PerRank[0].AddedSerial - base.PerRank[0].AddedSerial; extra <= 0 || extra%relock != 0 {
		t.Errorf("relock penalty %v on an alternating workload, want a positive multiple of %v", extra, relock)
	}
}

func TestInjectedBytes(t *testing.T) {
	const b = 100
	for _, c := range []struct {
		op        trace.Op
		r, np     int
		want      int
		rationale string
	}{
		{trace.Send(1, b), 0, 8, b, "send"},
		{trace.Allreduce(b), 0, 8, 3 * b, "allreduce: 3 rounds"},
		{trace.Alltoall(10), 0, 8, 70, "alltoall: 7 peers"},
		{trace.Recv(1), 0, 8, 0, "recv sends nothing"},
		{trace.Bcast(0, b), 0, 8, 3 * b, "bcast root feeds 3 subtrees"},
		{trace.Bcast(0, b), 7, 8, 0, "bcast leaf"},
		{trace.Reduce(0, b), 1, 8, b, "reduce leaf sends once"},
		{trace.Reduce(0, b), 0, 8, 0, "reduce root only receives"},
		{trace.Allreduce(b), 0, 6, b, "allreduce paired-out rank"},
	} {
		if got := injectedBytes(c.op, c.r, c.np); got != c.want {
			t.Errorf("%v rank %d np %d (%s) = %d, want %d", c.op.Call, c.r, c.np, c.rationale, got, c.want)
		}
	}
}
