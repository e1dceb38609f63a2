package ibpower_test

import (
	"fmt"
	"sync"
	"time"

	"ibpower"
)

// Example demonstrates the core mechanism on a hand-rolled event stream:
// the Figure 2 ALYA pattern (three MPI_Sendrecv calls, two MPI_Allreduce
// calls) repeated until the PPA detects it and lane shutdowns begin.
func Example() {
	pred, err := ibpower.NewPredictor(ibpower.PredictorConfig{
		GT:           20 * time.Microsecond, // 2·Treact, the minimum
		Displacement: 0.01,
	})
	if err != nil {
		panic(err)
	}
	ctrl := ibpower.NewLinkController(0) // paper Treact = 10 µs

	type ev struct {
		id  ibpower.EventID
		gap time.Duration
	}
	iteration := []ev{
		{41, 400 * time.Microsecond}, // MPI_Sendrecv after computation
		{41, 4 * time.Microsecond},
		{41, 4 * time.Microsecond},
		{10, 300 * time.Microsecond}, // MPI_Allreduce
		{10, 250 * time.Microsecond},
	}
	var now time.Duration
	for it := 0; it < 10; it++ {
		for _, e := range iteration {
			now += e.gap
			start := ctrl.Acquire(now) // wake lanes if asleep
			act := pred.OnCall(e.id, start, start)
			if act.Shutdown {
				ctrl.Shutdown(start, act.PredictedIdle)
			}
			now = start
		}
	}
	ctrl.Finish(now)

	acct := ctrl.Accounting()
	fmt.Printf("shutdowns issued: %v (all woken by timer: %v)\n",
		ctrl.Shutdowns > 15, ctrl.DemandWakes == 0)
	fmt.Printf("saving below ceiling: %v\n", acct.SavingPct() < ibpower.MaxSavingPct)
	fmt.Printf("hit rate above 60%%: %v\n", pred.Stats().HitRatePct() > 60)
	// Output:
	// shutdowns issued: true (all woken by timer: true)
	// saving below ceiling: true
	// hit rate above 60%: true
}

// ExamplePredictors shows the predictor registry: the paper's n-gram PPA is
// registered next to the clairvoyant oracle, the trace-trained offline
// profile and the classic idle-time baselines.
func ExamplePredictors() {
	registered := func(name string) bool {
		for _, n := range ibpower.Predictors() {
			if n == name {
				return true
			}
		}
		return false
	}
	for _, name := range []string{"ngram", "oracle", "offline", "lastvalue", "ewma", "static-gt"} {
		fmt.Printf("%s: %v\n", name, registered(name))
	}
	// Output:
	// ngram: true
	// oracle: true
	// offline: true
	// lastvalue: true
	// ewma: true
	// static-gt: true
}

// ExampleFabrics shows the interconnect registry and replays one workload
// over a non-paper fabric: the same trace, predictor and parameters on a
// dragonfly instead of the default XGFT fat tree.
func ExampleFabrics() {
	registered := func(name string) bool {
		for _, n := range ibpower.Fabrics() {
			if n == name {
				return true
			}
		}
		return false
	}
	for _, name := range []string{"xgft", "xgft3", "dragonfly", "torus2d", "torus3d"} {
		fmt.Printf("%s: %v\n", name, registered(name))
	}
	fabric, err := ibpower.NamedFabric("dragonfly")
	if err != nil {
		panic(err)
	}
	tr, err := ibpower.GenerateWorkload("nasbt", 9, ibpower.WorkloadOptions{IterScale: 0.1})
	if err != nil {
		panic(err)
	}
	cfg := ibpower.DefaultReplayConfig().WithFabric("dragonfly").WithPower(ibpower.GTMin, 0.01)
	res, err := ibpower.Replay(tr, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s replayed: %v (some savings: %v)\n",
		fabric.Name(), res.ExecTime > 0, res.AvgSavingPct() > 0)
	// Output:
	// xgft: true
	// xgft3: true
	// dragonfly: true
	// torus2d: true
	// torus3d: true
	// dragonfly(p=4,a=4,h=2,g=9) replayed: true (some savings: true)
}

// ExampleNewNamedPredictor selects a predictor from the registry by name and
// drives it over a periodic call stream: the last-value baseline locks onto
// a constant gap after a single observation.
func ExampleNewNamedPredictor() {
	pred, err := ibpower.NewNamedPredictor("lastvalue", ibpower.PredictorConfig{
		GT:           20 * time.Microsecond,
		Displacement: 0.01,
	})
	if err != nil {
		panic(err)
	}
	var now time.Duration
	for i := 0; i < 10; i++ {
		now += 500 * time.Microsecond
		pred.OnCall(41, now, now)
	}
	pred.Flush()
	st := pred.Stats()
	fmt.Printf("shutdowns: %d of %d calls, hit rate %.0f%%\n",
		st.Shutdowns, st.Calls, st.HitRatePct())
	// Output:
	// shutdowns: 9 of 10 calls, hit rate 100%
}

// ExampleRegisterPredictor plugs a custom predictor into the registry and
// runs it through the replay co-simulator like any built-in: here a
// trivial policy that always predicts a fixed 2 ms idle.
func ExampleRegisterPredictor() {
	// Register is once-per-process (duplicates panic by design); the Once
	// keeps this example re-runnable under go test -count=N.
	registerFixedOnce.Do(func() {
		ibpower.RegisterPredictor("example-fixed", func(cfg ibpower.PredictorConfig) (ibpower.Predictor, error) {
			return &fixedPredictor{idle: 2 * time.Millisecond, cfg: cfg}, nil
		})
	})
	tr, err := ibpower.GenerateWorkload("nasbt", 9, ibpower.WorkloadOptions{IterScale: 0.1})
	if err != nil {
		panic(err)
	}
	cfg := ibpower.DefaultReplayConfig().WithPredictor("example-fixed").WithPower(ibpower.GTMin, 0.01)
	res, err := ibpower.Replay(tr, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("custom predictor replayed: %v (some savings: %v)\n",
		res.ExecTime > 0, res.AvgSavingPct() > 0)
	// Output:
	// custom predictor replayed: true (some savings: true)
}

var registerFixedOnce sync.Once

// fixedPredictor implements ibpower.Predictor with a constant idle guess.
type fixedPredictor struct {
	idle time.Duration
	cfg  ibpower.PredictorConfig
	st   ibpower.PredictorStats
}

func (p *fixedPredictor) OnCall(id ibpower.EventID, start, end time.Duration) ibpower.Action {
	p.st.Calls++
	p.st.Shutdowns++
	return ibpower.Action{Shutdown: true, PredictedIdle: p.idle}
}

func (p *fixedPredictor) Flush() {}

func (p *fixedPredictor) Stats() ibpower.PredictorStats { return p.st }

// ExampleRunChurn co-schedules two workloads on one shared fat tree: each
// job keeps its own trace and predictor, the placement registry decides
// which terminals it occupies, and the links time the union of both jobs'
// traffic. Both jobs arrive at time 0 and the nil Schedule admits them at
// once: the static job mix.
func ExampleRunChurn() {
	fmt.Printf("placements: %v\n", ibpower.Placements())
	jobs, err := ibpower.ParseJobs("gromacs:8,alya:8")
	if err != nil {
		panic(err)
	}
	arrivals := make([]ibpower.Arrival, len(jobs))
	for i, j := range jobs {
		arrivals[i] = ibpower.Arrival{Job: j}
	}
	res, err := ibpower.RunChurn(ibpower.ChurnConfig{
		Arrivals:  arrivals,
		Placement: "roundrobin",
		Opt:       ibpower.WorkloadOptions{IterScale: 0.05},
		Replay:    ibpower.DefaultReplayConfig(),
	})
	if err != nil {
		panic(err)
	}
	for _, j := range res.Jobs {
		fmt.Printf("%s: ran (%v), saved energy (%v), spread over >1 switch (%v)\n",
			j.App, j.Exec > 0, j.SavedLinkSeconds > 0, j.Switches > 1)
	}
	fmt.Printf("fabric makespan covers both jobs: %v\n",
		res.Fabric.MakeSpan >= res.Jobs[0].Exec && res.Fabric.MakeSpan >= res.Jobs[1].Exec)
	// Output:
	// placements: [linear random roundrobin]
	// gromacs: ran (true), saved energy (true), spread over >1 switch (true)
	// alya: ran (true), saved energy (true), spread over >1 switch (true)
	// fabric makespan covers both jobs: true
}

// ExampleReplay runs the paper's full evaluation pipeline on one workload.
func ExampleReplay() {
	tr, err := ibpower.GenerateWorkload("nasbt", 9, ibpower.WorkloadOptions{IterScale: 0.2})
	if err != nil {
		panic(err)
	}
	gt, _, err := ibpower.ChooseGT(tr)
	if err != nil {
		panic(err)
	}
	base, err := ibpower.Replay(tr, ibpower.DefaultReplayConfig())
	if err != nil {
		panic(err)
	}
	res, err := ibpower.Replay(tr, ibpower.DefaultReplayConfig().WithPower(gt, 0.01))
	if err != nil {
		panic(err)
	}
	fmt.Printf("saving in (25%%, 57%%): %v\n", res.AvgSavingPct() > 25 && res.AvgSavingPct() < 57)
	fmt.Printf("slowdown under 1%%: %v\n", res.TimeIncreasePct(base) < 1)
	// Output:
	// saving in (25%, 57%): true
	// slowdown under 1%: true
}
