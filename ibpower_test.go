package ibpower_test

import (
	"bytes"
	"testing"
	"time"

	"ibpower"
)

// TestFacadeEndToEnd exercises the public API surface the README documents:
// generate a workload, choose GT, replay baseline and mechanism, and check
// the paper's headline claims hold in shape.
func TestFacadeEndToEnd(t *testing.T) {
	tr, err := ibpower.GenerateWorkload("nasbt", 9, ibpower.WorkloadOptions{IterScale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	gt, hit, err := ibpower.ChooseGT(tr)
	if err != nil {
		t.Fatal(err)
	}
	if gt < ibpower.GTMin {
		t.Fatalf("GT %v below 2*Treact", gt)
	}
	if hit < 80 {
		t.Errorf("NAS BT hit rate %.1f%%, paper reports 97-98%%", hit)
	}
	base, err := ibpower.Replay(tr, ibpower.DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ibpower.Replay(tr, ibpower.DefaultReplayConfig().WithPower(gt, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	saving := res.AvgSavingPct()
	if saving < 25 || saving > ibpower.MaxSavingPct {
		t.Errorf("NAS BT/9 saving = %.1f%%, paper reports ~51%% (bound %.0f%%)", saving, ibpower.MaxSavingPct)
	}
	if inc := res.TimeIncreasePct(base); inc < 0 || inc > 2 {
		t.Errorf("time increase = %.2f%%, paper reports well under 1%%", inc)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	tr, err := ibpower.GenerateWorkload("alya", 8, ibpower.WorkloadOptions{IterScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ibpower.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ibpower.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCalls() != tr.NumCalls() {
		t.Errorf("roundtrip calls %d != %d", got.NumCalls(), tr.NumCalls())
	}
}

func TestFacadePredictorAndController(t *testing.T) {
	p, err := ibpower.NewPredictor(ibpower.PredictorConfig{
		GT:           20 * time.Microsecond,
		Displacement: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := ibpower.NewLinkController(0)
	var now time.Duration
	for i := 0; i < 40; i++ {
		now += 500 * time.Microsecond
		start := ctrl.Acquire(now)
		act := p.OnCall(41, start, start)
		if act.Shutdown {
			ctrl.Shutdown(start, act.PredictedIdle)
		}
		now = start
	}
	ctrl.Finish(now)
	if ctrl.Shutdowns == 0 {
		t.Error("no shutdowns through the facade")
	}
	if a := ctrl.Accounting(); a.SavingPct() <= 0 {
		t.Error("no savings accounted")
	}
}

func TestFacadeSPMD(t *testing.T) {
	layer, err := ibpower.NewPowerLayer(ibpower.PredictorConfig{
		GT:           20 * time.Microsecond,
		Displacement: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	err = ibpower.RunSPMD(4, layer, func(c *ibpower.Comm) error {
		for i := 0; i < 20; i++ {
			c.Allreduce([]float64{1}, nil)
		}
		return nil
	})
	if err == nil {
		t.Fatal("nil reduce op must fail") // Allreduce with nil op panics -> error
	}
	// And a working run.
	err = ibpower.RunSPMD(4, layer, func(c *ibpower.Comm) error {
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := layer.Report(time.Since(t0))
	if len(rep.PerRank) == 0 {
		t.Error("no per-rank reports")
	}
}

// TestRecordThenReplay closes the methodology loop: run a live SPMD program,
// record its trace, and replay the recording through the co-simulator with
// the mechanism enabled.
func TestRecordThenReplay(t *testing.T) {
	const np = 4
	tr, err := ibpower.RecordSPMD("recorded", np, func(c *ibpower.Comm) error {
		right := (c.Rank() + 1) % np
		left := (c.Rank() - 1 + np) % np
		for i := 0; i < 40; i++ {
			c.Sendrecv(right, []float64{1}, left)
			spinFor(200 * time.Microsecond)
			c.Allreduce([]float64{1}, nil2sum())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := ibpower.Replay(tr, ibpower.DefaultReplayConfig().WithPower(ibpower.GTMin, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgSavingPct() <= 0 {
		t.Errorf("no savings replaying a recorded iterative program (%.2f%%)", res.AvgSavingPct())
	}
	if res.AvgHitRatePct() < 50 {
		t.Errorf("hit rate %.1f%% on a recorded regular program", res.AvgHitRatePct())
	}
}

func spinFor(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

func nil2sum() func(a, b float64) float64 {
	return func(a, b float64) float64 { return a + b }
}

// TestFacadeScenario exercises the churn surface: parse a spec, run it
// through RunScenario, and check the registry enumerators.
func TestFacadeScenario(t *testing.T) {
	spec, err := ibpower.ParseScenarioSpec("jobs=4,apps=alya,size=fixed:6,arrival=poisson:20ms,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ibpower.RunScenario(ibpower.ScenarioConfig{
		Spec:         spec,
		Displacement: 0.01,
		Opt:          ibpower.WorkloadOptions{Seed: 42, IterScale: 0.05},
		Replay:       ibpower.DefaultReplayConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("%d jobs churned, want 4", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Finish <= j.Start || len(j.Terminals) != 6 {
			t.Errorf("job %d: start %v finish %v terminals %d", j.ID, j.Start, j.Finish, len(j.Terminals))
		}
	}
	scheds := ibpower.Schedulers()
	if len(scheds) < 3 {
		t.Errorf("schedulers = %v, want fcfs, backfill and power-aware", scheds)
	}
	if spec2, err := ibpower.ParseScenarioSpec(spec.String()); err != nil || spec2.String() != spec.String() {
		t.Errorf("canonical spec %q did not round-trip (err=%v)", spec.String(), err)
	}
	if ibpower.DefaultScenarioSpec().Validate() != nil {
		t.Error("default scenario spec does not validate")
	}
}

// TestFacadeScenarioFaults exercises the fault surface: parse clauses, run a
// faulty scenario under the default retry policy, and check the resilience
// metrics.
func TestFacadeScenarioFaults(t *testing.T) {
	clauses, err := ibpower.ParseScenarioFaults("term:poisson:100ms:mttr=200ms,link:poisson:150ms:mttr=100ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := ibpower.FormatScenarioFaults(clauses); got != "term:poisson:100ms:mttr=200ms,link:poisson:150ms:mttr=100ms" {
		t.Fatalf("clauses did not round-trip: %q", got)
	}
	spec, err := ibpower.ParseScenarioSpec("jobs=4,apps=alya,size=fixed:6,arrival=poisson:20ms,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = clauses
	res, err := ibpower.RunScenario(ibpower.ScenarioConfig{
		Spec:         spec,
		Displacement: 0.01,
		Opt:          ibpower.WorkloadOptions{Seed: 42, IterScale: 0.05},
		Replay:       ibpower.DefaultReplayConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FaultsActive {
		t.Error("fault clauses set but FaultsActive is false")
	}
	if res.GoodputPct <= 0 || res.GoodputPct > 100 {
		t.Errorf("goodput %v%% out of range", res.GoodputPct)
	}
	if len(res.Capacity) == 0 {
		t.Error("no capacity profile")
	}
	if _, err := ibpower.ParseScenarioFaults("disk:poisson:1m"); err == nil {
		t.Error("unknown fault kind accepted")
	}
}

func TestWorkloadCatalog(t *testing.T) {
	if len(ibpower.Workloads()) != 5 {
		t.Errorf("workloads = %v", ibpower.Workloads())
	}
	if got := ibpower.WorkloadProcCounts("nasbt")[0]; got != 9 {
		t.Errorf("nasbt starts at %d, want 9", got)
	}
}
