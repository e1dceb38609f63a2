package scenario

import (
	"testing"

	"ibpower/internal/multijob"
	"ibpower/internal/registrytest"
	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

// TestRegistryContract runs the shared registry property test over the
// scheduler registry; the three shipped policies must all be present.
func TestRegistryContract(t *testing.T) {
	for _, want := range []string{"fcfs", "backfill", "power-aware"} {
		if CheckRegistered(want) != nil {
			t.Errorf("%q not registered (have %v)", want, Names())
		}
	}
	registrytest.Run(t, registrytest.Registry{
		Kind:    "scheduler",
		Default: DefaultScheduler,
		Names:   Names,
		Check:   CheckRegistered,
		RegisterValid: func(name string) {
			fn, err := Named(DefaultScheduler)
			if err != nil {
				t.Fatal(err)
			}
			Register(name, fn)
		},
		RegisterNil: func(name string) { Register(name, nil) },
	})
}

// saturatingConfig returns a scenario that genuinely overloads the paper
// fabric: jobs of 96 ranks arrive every millisecond on 252 terminals, so at
// most two run at once and a real queue forms under every scheduler.
func saturatingConfig(t *testing.T, sched string) Config {
	t.Helper()
	spec, err := ParseSpec("jobs=8,apps=gromacs,size=fixed:96,arrival=fixed:1ms,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Spec:      spec,
		Scheduler: sched,
		Placement: "roundrobin",
		Opt:       workloads.Options{Seed: 42, IterScale: 0.05},
		Replay:    replay.DefaultConfig(),
	}
}

// TestSchedulerInvariants is the cross-policy safety net: under fabric
// saturation, every registered shipped scheduler must complete every job,
// never start a job before it arrives, and never double-book a terminal
// between time-overlapping jobs. fcfs additionally must preserve arrival
// order exactly.
func TestSchedulerInvariants(t *testing.T) {
	for _, sched := range []string{"fcfs", "backfill", "power-aware"} {
		t.Run(sched, func(t *testing.T) {
			res, err := Run(saturatingConfig(t, sched))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != 8 {
				t.Fatalf("%d job records, want 8", len(res.Jobs))
			}
			if res.WaitMax <= 0 {
				t.Fatal("no job ever waited; the scenario does not saturate and the test proves nothing")
			}
			for i, j := range res.Jobs {
				if j.ID != i {
					t.Errorf("job record %d carries ID %d; results must be in arrival order", i, j.ID)
				}
				if j.Start < j.Arrival {
					t.Errorf("job %d started at %v before arriving at %v", j.ID, j.Start, j.Arrival)
				}
				if j.Wait != j.Start-j.Arrival {
					t.Errorf("job %d wait %v != start-arrival %v", j.ID, j.Wait, j.Start-j.Arrival)
				}
				if j.Finish <= j.Start {
					t.Errorf("job %d finished at %v, not after its start %v", j.ID, j.Finish, j.Start)
				}
				if len(j.Terminals) != j.NP {
					t.Errorf("job %d holds %d terminals, want %d", j.ID, len(j.Terminals), j.NP)
				}
			}
			// No terminal shared between time-overlapping jobs.
			for i := range res.Jobs {
				for k := i + 1; k < len(res.Jobs); k++ {
					a, b := res.Jobs[i], res.Jobs[k]
					if a.Start >= b.Finish || b.Start >= a.Finish {
						continue
					}
					used := make(map[int]bool, len(a.Terminals))
					for _, term := range a.Terminals {
						used[term] = true
					}
					for _, term := range b.Terminals {
						if used[term] {
							t.Fatalf("jobs %d and %d overlap in time and share terminal %d",
								a.ID, b.ID, term)
						}
					}
				}
			}
			// fcfs never reorders: arrivals are non-decreasing in ID order, so
			// starts must be too — equal-arrival jobs included.
			if sched == "fcfs" {
				for i := 1; i < len(res.Jobs); i++ {
					if res.Jobs[i].Start < res.Jobs[i-1].Start {
						t.Errorf("fcfs started job %d at %v before job %d at %v",
							res.Jobs[i].ID, res.Jobs[i].Start,
							res.Jobs[i-1].ID, res.Jobs[i-1].Start)
					}
				}
			}
		})
	}
}

// TestPowerAwarePrefersWokenSwitches pins the power-aware policy's whole
// point at the decision level: with part of the fabric busy, it admits the
// queued job that wakes the fewest fully-idle first-hop switches, while fcfs
// takes the queue head regardless.
func TestPowerAwarePrefersWokenSwitches(t *testing.T) {
	fabric, err := replay.DefaultConfig().Fabric()
	if err != nil {
		t.Fatal(err)
	}
	order, err := multijob.Ordering("linear", fabric, 0)
	if err != nil {
		t.Fatal(err)
	}
	free, err := multijob.NewFreeList(fabric, order)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy most of the first leaf switch (18 terminals on the paper
	// fabric): a 2-rank job fits the woken switch, a 32-rank job must wake
	// fresh switches.
	busy := free.Alloc(16)
	ctx := &multijob.SchedContext{
		Queue: []multijob.QueuedJob{
			{ID: 0, Spec: multijob.JobSpec{App: "gromacs", NP: 32}},
			{ID: 1, Spec: multijob.JobSpec{App: "gromacs", NP: 2}},
		},
		Free:   free,
		Fabric: fabric,
	}
	pa, err := Named("power-aware")
	if err != nil {
		t.Fatal(err)
	}
	picks := pa(ctx)
	if len(picks) != 2 || picks[0] != 1 {
		t.Errorf("power-aware picked %v, want the small job (queue index 1) first", picks)
	}
	fcfs, err := Named("fcfs")
	if err != nil {
		t.Fatal(err)
	}
	if picks := fcfs(ctx); len(picks) != 2 || picks[0] != 0 {
		t.Errorf("fcfs picked %v, want strict queue order", picks)
	}
	free.Release(busy)
}
