package multijob

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ibpower/internal/topology"
)

// sliceFaults is a canned FaultSource for engine tests.
type sliceFaults struct {
	evs []FaultEvent
	i   int
}

func (s *sliceFaults) Peek() (FaultEvent, bool) {
	if s.i < len(s.evs) {
		return s.evs[s.i], true
	}
	return FaultEvent{}, false
}

func (s *sliceFaults) Pop() FaultEvent {
	ev := s.evs[s.i]
	s.i++
	return ev
}

func (s *sliceFaults) RepairPending() bool {
	for _, ev := range s.evs[s.i:] {
		if ev.Repair {
			return true
		}
	}
	return false
}

// healthyExec runs the arrivals without faults and returns job 0's exec time,
// so fault tests can aim events inside a job's lifetime.
func healthyExec(t *testing.T, arrivals []Arrival) time.Duration {
	t.Helper()
	res, err := RunChurn(testChurnConfig(arrivals))
	if err != nil {
		t.Fatal(err)
	}
	return res.Jobs[0].Exec
}

// TestRunChurnCtxCancelled is the satellite contract: a cancelled context
// stops the event loop with ctx.Err() instead of running the scenario out.
func TestRunChurnCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testChurnConfig([]Arrival{{Job: JobSpec{App: "gromacs", NP: 8}, At: 0}})
	cfg.Ctx = ctx
	if _, err := RunChurn(cfg); err != context.Canceled {
		t.Fatalf("cancelled ctx returned %v, want context.Canceled", err)
	}
}

// TestRunChurnTerminalFaultRetries kills a running job via a terminal fault
// and checks the whole retry arc: partial work charged as wasted, the job
// requeued after backoff, completed on healthy terminals, resilience
// counters and rendering consistent.
func TestRunChurnTerminalFaultRetries(t *testing.T) {
	arrivals := []Arrival{{Job: JobSpec{App: "gromacs", NP: 8}, At: 0}}
	exec := healthyExec(t, arrivals)
	killAt := exec / 2

	cfg := testChurnConfig(arrivals)
	cfg.Faults = &sliceFaults{evs: []FaultEvent{
		{At: killAt, Kind: FaultTerminal, Index: 0},
		{At: killAt + 10*exec, Kind: FaultTerminal, Repair: true, Index: 0},
	}}
	cfg.Retry = RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond}
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Kills != 1 || j.Abandoned {
		t.Fatalf("job state after one kill: kills %d abandoned %v", j.Kills, j.Abandoned)
	}
	if j.Wasted != killAt {
		t.Errorf("wasted %v, want the killed half-run %v", j.Wasted, killAt)
	}
	// Retry ran after backoff: start = kill + 1ms, on terminals excluding 0.
	if want := killAt + time.Millisecond; j.Start != want {
		t.Errorf("retry started at %v, want %v", j.Start, want)
	}
	for _, term := range j.Terminals {
		if term == 0 {
			t.Error("retry placed onto the failed terminal")
		}
	}
	if j.Finish <= j.Start {
		t.Errorf("retried job finish %v not after start %v", j.Finish, j.Start)
	}
	if res.Killed != 1 || res.Retried != 1 || res.Abandoned != 0 {
		t.Errorf("resilience counters killed %d retried %d abandoned %d, want 1/1/0",
			res.Killed, res.Retried, res.Abandoned)
	}
	if res.GoodputPct <= 0 || res.GoodputPct >= 100 {
		t.Errorf("goodput %.2f%% with one kill, want strictly inside (0, 100)", res.GoodputPct)
	}
	if want := killAt.Seconds() * 8; res.WastedTermSeconds != want {
		t.Errorf("wasted %.6f term-s, want %.6f", res.WastedTermSeconds, want)
	}
	if len(res.Capacity) != UtilBuckets {
		t.Fatalf("%d capacity buckets, want %d", len(res.Capacity), UtilBuckets)
	}
	var buf bytes.Buffer
	if err := WriteChurn(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"retried", "resilience:", "capacity over makespan", "goodput"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fault rendering missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunChurnAbandonsAfterRetryBudget drains the retry budget with repeated
// terminal faults: the job must end reported abandoned — never silently
// dropped — and its partial work charged for every attempt.
func TestRunChurnAbandonsAfterRetryBudget(t *testing.T) {
	arrivals := []Arrival{{Job: JobSpec{App: "gromacs", NP: 8}, At: 0}}
	exec := healthyExec(t, arrivals)

	// With linear placement, attempt k lands on terminals [k, k+8) after
	// terminals 0..k-1 failed; killing terminal k mid-attempt cuts it down.
	var evs []FaultEvent
	clock := exec / 2
	for k := 0; k < 3; k++ {
		evs = append(evs, FaultEvent{At: clock, Kind: FaultTerminal, Index: int32(k)})
		clock += time.Millisecond + exec/2 // after the next retry's start
	}
	cfg := testChurnConfig(arrivals)
	cfg.Faults = &sliceFaults{evs: evs}
	cfg.Retry = RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if !j.Abandoned || j.Kills != 3 {
		t.Fatalf("job after budget exhaustion: kills %d abandoned %v, want 3/true", j.Kills, j.Abandoned)
	}
	if res.Abandoned != 1 || res.Retried != 2 || res.Killed != 3 {
		t.Errorf("counters killed %d retried %d abandoned %d, want 3/2/1",
			res.Killed, res.Retried, res.Abandoned)
	}
	if res.GoodputPct != 0 {
		t.Errorf("goodput %.2f%% with no completed job, want 0", res.GoodputPct)
	}
	var buf bytes.Buffer
	if err := WriteChurn(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "abandoned") {
		t.Errorf("abandoned job not reported:\n%s", buf.String())
	}
}

// TestRunChurnSwitchFaultKillsAndRepairReadmits downs a whole leaf switch —
// killing its occupant — and asserts the repair returns its terminals to the
// free pool for later jobs.
func TestRunChurnSwitchFaultKillsAndRepairReadmits(t *testing.T) {
	// Job 0 fills leaf 0 exactly (18 terminals on the paper fabric); job 1
	// arrives after the repair and must be able to reuse leaf 0.
	arrivals := []Arrival{{Job: JobSpec{App: "gromacs", NP: 18}, At: 0}}
	exec := healthyExec(t, arrivals)

	f := topology.Paper()
	leaf0 := topology.HostSwitch(f, 0)
	killAt := exec / 2
	repairAt := killAt + exec/4

	cfg := testChurnConfig([]Arrival{
		{Job: JobSpec{App: "gromacs", NP: 18}, At: 0},
		// 235 = 252 - 18 + 1: only fits once leaf 0's terminals are back.
		{Job: JobSpec{App: "gromacs", NP: 235}, At: killAt},
	})
	cfg.Faults = &sliceFaults{evs: []FaultEvent{
		{At: killAt, Kind: FaultSwitch, Index: leaf0},
		{At: repairAt, Kind: FaultSwitch, Repair: true, Index: leaf0},
	}}
	cfg.Retry = RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond}
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed != 1 {
		t.Fatalf("switch fault killed %d jobs, want 1", res.Killed)
	}
	if res.Abandoned != 0 {
		t.Fatalf("%d jobs abandoned, want all completed (retry + repair)", res.Abandoned)
	}
	wide := res.Jobs[1]
	if wide.Start < repairAt {
		t.Errorf("235-rank job started %v, before the repair at %v", wide.Start, repairAt)
	}
	for _, j := range res.Jobs {
		if j.Finish <= j.Start {
			t.Errorf("job %d did not complete: start %v finish %v", j.ID, j.Start, j.Finish)
		}
	}
}

// TestRunChurnLinkFaultDegradesWithoutKilling fails a switch-to-switch cable
// mid-run: no job dies, the run completes, and the result is deterministic
// across repeats and parallelism.
func TestRunChurnLinkFaultDegradesWithoutKilling(t *testing.T) {
	f := topology.Paper()
	tab := f.Table()
	var cable topology.LinkID = -1
	for id := 0; id < tab.Len(); id += 2 {
		if tab.SwitchToSwitch(topology.LinkID(id)) {
			cable = topology.LinkID(id)
			break
		}
	}
	run := func(parallel int) *ChurnResult {
		cfg := testChurnConfig([]Arrival{
			{Job: JobSpec{App: "gromacs", NP: 32}, At: 0},
			{Job: JobSpec{App: "alya", NP: 32}, At: time.Millisecond},
		})
		cfg.Replay.Parallelism = parallel
		cfg.Faults = &sliceFaults{evs: []FaultEvent{
			{At: time.Millisecond / 2, Kind: FaultLink, Index: int32(cable)},
		}}
		cfg.Retry = RetryPolicy{MaxRetries: 1, Backoff: time.Millisecond}
		res, err := RunChurn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	if a.Killed != 0 || a.Abandoned != 0 {
		t.Fatalf("link fault killed %d / abandoned %d jobs, want 0/0", a.Killed, a.Abandoned)
	}
	if !a.FaultsActive {
		t.Fatal("FaultsActive not set")
	}
	for _, par := range []int{1, 4} {
		b := run(par)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("faulty churn not bit-identical at parallelism %d", par)
		}
	}
}

// TestRunChurnStrandedJobAbandoned admits nothing forever on a degraded
// fabric: with faults active the stuck queue is reported abandoned instead
// of erroring out, so no job is ever silently dropped. The static policy a
// nil Schedule selects leaves the job waiting the same way, since the
// stream fits the healthy fabric.
func TestRunChurnStrandedJobAbandoned(t *testing.T) {
	for _, sched := range []SchedFunc{fcfsTest, nil} {
		cfg := testChurnConfig([]Arrival{{Job: JobSpec{App: "gromacs", NP: 250}, At: 0}})
		cfg.Schedule = sched
		// Fail three terminals for good before the job arrives: 249 < 250 free.
		cfg.Faults = &sliceFaults{evs: []FaultEvent{
			{At: 0, Kind: FaultTerminal, Index: 0},
			{At: 0, Kind: FaultTerminal, Index: 1},
			{At: 0, Kind: FaultTerminal, Index: 2},
		}}
		cfg.Retry = RetryPolicy{MaxRetries: 1, Backoff: time.Millisecond}
		res, err := RunChurn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Abandoned != 1 || !res.Jobs[0].Abandoned {
			t.Fatalf("%s: stranded job not reported abandoned: %+v", res.Scheduler, res.Jobs[0])
		}
		if res.Jobs[0].App != "gromacs" || res.Jobs[0].NP != 250 {
			t.Errorf("%s: abandoned never-admitted job lost its identity: %+v", res.Scheduler, res.Jobs[0].JobStats)
		}
	}
}

// TestRetryPolicyDelay pins the exponential backoff shape and its overflow
// guard.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxRetries: 5, Backoff: time.Second}
	for k, want := range map[int]time.Duration{
		1: time.Second, 2: 2 * time.Second, 3: 4 * time.Second, 4: 8 * time.Second,
	} {
		if got := p.Delay(k); got != want {
			t.Errorf("Delay(%d) = %v, want %v", k, got, want)
		}
	}
	if got := p.Delay(1000); got != time.Second<<maxBackoffShift {
		t.Errorf("uncapped backoff: Delay(1000) = %v", got)
	}
	// The largest Backoff RunChurn accepts keeps every delay positive, and
	// half of time.Duration's range free for the scenario time it joins.
	if got := (RetryPolicy{Backoff: maxBackoff}).Delay(1000); got <= 0 || got > math.MaxInt64/2 {
		t.Errorf("Delay at the largest accepted backoff = %v, want in (0, MaxInt64/2]", got)
	}
	if got := (RetryPolicy{}).Delay(3); got != 0 {
		t.Errorf("zero policy Delay = %v, want 0", got)
	}
}
