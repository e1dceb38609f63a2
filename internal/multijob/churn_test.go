package multijob

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ibpower/internal/replay"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// fcfsTest is an inline first-come-first-served policy: multijob itself
// hosts no registry (that lives in scenario, which imports this package), so
// churn tests drive the engine with a hand-rolled SchedFunc.
func fcfsTest(ctx *SchedContext) []int {
	var picks []int
	free := ctx.Free.Free()
	for i, q := range ctx.Queue {
		if q.Spec.NP > free {
			break
		}
		picks = append(picks, i)
		free -= q.Spec.NP
	}
	return picks
}

func testChurnConfig(arrivals []Arrival) ChurnConfig {
	return ChurnConfig{
		Arrivals:  arrivals,
		Schedule:  fcfsTest,
		Scheduler: "fcfs",
		Placement: "linear",
		Opt:       workloads.Options{Seed: 42, IterScale: 0.05},
		Replay:    replay.DefaultConfig(),
	}
}

// TestRunChurnEndToEnd drives a three-job stream through the event loop and
// checks the full result surface: per-job timing, queue-wait stats, the
// utilization profile, fabric summary, and rendering.
func TestRunChurnEndToEnd(t *testing.T) {
	res, err := RunChurn(testChurnConfig([]Arrival{
		{Job: JobSpec{App: "gromacs", NP: 8}, At: 0},
		{Job: JobSpec{App: "alya", NP: 8}, At: time.Millisecond},
		{Job: JobSpec{App: "gromacs", NP: 8}, At: time.Millisecond},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("%d job records, want 3", len(res.Jobs))
	}
	var makespan time.Duration
	for i, j := range res.Jobs {
		if j.ID != i {
			t.Errorf("record %d has ID %d", i, j.ID)
		}
		if j.Start < j.Arrival || j.Finish <= j.Start || j.Wait != j.Start-j.Arrival {
			t.Errorf("job %d timing broken: arrival %v start %v finish %v wait %v",
				j.ID, j.Arrival, j.Start, j.Finish, j.Wait)
		}
		if j.Exec != j.Finish-j.Start {
			t.Errorf("job %d exec %v != finish-start %v", j.ID, j.Exec, j.Finish-j.Start)
		}
		if j.Dedicated <= 0 || j.EnergyLinkSeconds <= 0 || j.Transfers <= 0 {
			t.Errorf("job %d stats empty: %+v", j.ID, j.JobStats)
		}
		if j.Finish > makespan {
			makespan = j.Finish
		}
	}
	// 24 ranks fit the 252-terminal fabric at once: nobody waits.
	if res.WaitMax != 0 {
		t.Errorf("max wait %v on an uncontended fabric, want 0", res.WaitMax)
	}
	if res.Fabric.MakeSpan != makespan {
		t.Errorf("fabric makespan %v, want %v", res.Fabric.MakeSpan, makespan)
	}
	if len(res.Util) != UtilBuckets {
		t.Fatalf("%d utilization buckets, want %d", len(res.Util), UtilBuckets)
	}
	for b, u := range res.Util {
		if u < 0 || u > 100 {
			t.Errorf("bucket %d utilization %.2f%% outside [0, 100]", b, u)
		}
	}
	var buf bytes.Buffer
	if err := WriteChurn(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gromacs:8", "alya:8", "fcfs", "queue wait", "occupancy", "makespan"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered churn result missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunChurnQueuesUnderContention forces queueing — two 200-rank jobs on
// 252 terminals — and asserts the second job starts exactly when the first
// finishes.
func TestRunChurnQueuesUnderContention(t *testing.T) {
	res, err := RunChurn(testChurnConfig([]Arrival{
		{Job: JobSpec{App: "gromacs", NP: 200}, At: 0},
		{Job: JobSpec{App: "gromacs", NP: 200}, At: time.Millisecond},
	}))
	if err != nil {
		t.Fatal(err)
	}
	first, second := res.Jobs[0], res.Jobs[1]
	if second.Start != first.Finish {
		t.Errorf("queued job started at %v, want the head's finish %v", second.Start, first.Finish)
	}
	if second.Wait != first.Finish-second.Arrival {
		t.Errorf("queued job waited %v, want %v", second.Wait, first.Finish-second.Arrival)
	}
	if res.WaitP95 < res.WaitP50 || res.WaitMax < res.WaitP95 {
		t.Errorf("wait distribution not ordered: p50 %v p95 %v max %v",
			res.WaitP50, res.WaitP95, res.WaitMax)
	}
}

// TestRunChurnErrors covers the configuration and contract error paths.
func TestRunChurnErrors(t *testing.T) {
	good := []Arrival{{Job: JobSpec{App: "gromacs", NP: 8}, At: 0}}
	for name, tc := range map[string]struct {
		mut  func(*ChurnConfig)
		want string
	}{
		"no arrivals":    {func(c *ChurnConfig) { c.Arrivals = nil }, "no arrivals"},
		"huge backoff":   {func(c *ChurnConfig) { c.Retry.Backoff = 1000 * time.Hour }, "retry backoff 1000h0m0s"},
		"bad placement":  {func(c *ChurnConfig) { c.Placement = "nosuch" }, "unknown placement"},
		"negative time":  {func(c *ChurnConfig) { c.Arrivals[0].At = -time.Second }, "negative time"},
		"one rank":       {func(c *ChurnConfig) { c.Arrivals[0].Job.NP = 1 }, "np must be >= 2"},
		"too wide":       {func(c *ChurnConfig) { c.Arrivals[0].Job.NP = 9999 }, "has 252"},
		"bad app":        {func(c *ChurnConfig) { c.Arrivals[0].Job.App = "nosuch" }, "unknown application"},
		"invalid pick":   {func(c *ChurnConfig) { c.Schedule = func(*SchedContext) []int { return []int{7} } }, "invalid queue index"},
		"duplicate pick": {func(c *ChurnConfig) { c.Schedule = func(*SchedContext) []int { return []int{0, 0} } }, "invalid queue index"},
		"never admits":   {func(c *ChurnConfig) { c.Schedule = func(*SchedContext) []int { return nil } }, "left 1 jobs waiting"},
		"overcommits": {func(c *ChurnConfig) {
			c.Arrivals = []Arrival{
				{Job: JobSpec{App: "gromacs", NP: 200}, At: 0},
				{Job: JobSpec{App: "gromacs", NP: 200}, At: 0},
			}
			c.Schedule = func(ctx *SchedContext) []int {
				picks := make([]int, len(ctx.Queue))
				for i := range picks {
					picks[i] = i
				}
				return picks
			}
		}, "terminals free"},
		"static overcommit": {func(c *ChurnConfig) {
			// Staggered arrivals that never run together still must fit
			// the fabric at once under the nil Schedule.
			c.Arrivals = []Arrival{
				{Job: JobSpec{App: "gromacs", NP: 200}, At: 0},
				{Job: JobSpec{App: "gromacs", NP: 200}, At: time.Hour},
			}
			c.Schedule = nil
		}, "400 ranks exceed the 252 terminals"},
	} {
		cfg := testChurnConfig(append([]Arrival(nil), good...))
		tc.mut(&cfg)
		if _, err := RunChurn(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", name, err, tc.want)
		}
	}
}

// TestRunChurnStaticAdmitsOnArrival runs a staggered stream that fits the
// fabric at once under the nil Schedule: each job starts at its own arrival,
// never waits, and the result names the scheduler static.
func TestRunChurnStaticAdmitsOnArrival(t *testing.T) {
	cfg := testChurnConfig([]Arrival{
		{Job: JobSpec{App: "gromacs", NP: 8}, At: 0},
		{Job: JobSpec{App: "alya", NP: 8}, At: time.Millisecond},
		{Job: JobSpec{App: "gromacs", NP: 8}, At: time.Second},
	})
	cfg.Schedule, cfg.Scheduler = nil, ""
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "static" {
		t.Errorf("scheduler %q, want static", res.Scheduler)
	}
	for _, j := range res.Jobs {
		if j.Start != j.Arrival || j.Wait != 0 {
			t.Errorf("job %d arrived at %v but started at %v (wait %v)", j.ID, j.Arrival, j.Start, j.Wait)
		}
	}
}

// TestRunChurnRejectsUnknownPredictorBeforePreparing asserts an unknown
// predictor fails before any trace is generated or GT chosen, not at the
// first dedicated baseline.
func TestRunChurnRejectsUnknownPredictorBeforePreparing(t *testing.T) {
	cfg := testChurnConfig([]Arrival{{Job: JobSpec{App: "gromacs", NP: 8}, At: 0}})
	cfg.Replay.Power.PredictorName = "nosuch"
	calls := 0
	cfg.Generate = func(app string, np int) (trace.Source, error) {
		calls++
		return workloads.Generate(app, np, cfg.Opt)
	}
	if _, err := RunChurn(cfg); err == nil || !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("error %v, want unknown predictor", err)
	}
	if calls != 0 {
		t.Errorf("Generate called %d times before the predictor was rejected", calls)
	}
}
