package multijob

import (
	"reflect"
	"testing"
	"time"

	"ibpower/internal/topology"
)

// TestChurnClusterInvariants steps the churn cluster one instant at a time
// through the fault shapes of the RunChurn fault tests and checks its
// occupancy bookkeeping after every instant (checkCluster). At the end every
// job must have completed or been abandoned, never both, and the stepped
// result must equal RunChurn's.
func TestChurnClusterInvariants(t *testing.T) {
	gromacs := func(np int, at time.Duration) Arrival {
		return Arrival{Job: JobSpec{App: "gromacs", NP: np}, At: at}
	}
	exec8 := healthyExec(t, []Arrival{gromacs(8, 0)})
	exec18 := healthyExec(t, []Arrival{gromacs(18, 0)})
	leaf0 := topology.HostSwitch(topology.Paper(), 0)
	retry := RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond}

	// Attempt k lands on terminals [k, k+8) once terminals 0..k-1 failed;
	// killing terminal k mid-attempt drains a budget of two retries.
	var budget []FaultEvent
	for k, clock := 0, exec8/2; k < 3; k++ {
		budget = append(budget, FaultEvent{At: clock, Kind: FaultTerminal, Index: int32(k)})
		clock += time.Millisecond + exec8/2
	}

	cases := []struct {
		name      string
		arrivals  []Arrival
		faults    []FaultEvent
		retry     RetryPolicy
		killed    int
		abandoned int
	}{
		{"terminal fault with retry", []Arrival{gromacs(8, 0)}, []FaultEvent{
			{At: exec8 / 2, Kind: FaultTerminal, Index: 0},
			{At: exec8/2 + 10*exec8, Kind: FaultTerminal, Repair: true, Index: 0},
		}, retry, 1, 0},
		// 235 = 252 - 18 + 1: the wide job only fits once leaf 0 is back.
		{"switch fault then repair", []Arrival{gromacs(18, 0), gromacs(235, exec18/2)}, []FaultEvent{
			{At: exec18 / 2, Kind: FaultSwitch, Index: leaf0},
			{At: exec18/2 + exec18/4, Kind: FaultSwitch, Repair: true, Index: leaf0},
		}, retry, 1, 0},
		// Two jobs share leaf 0: one switch fault kills both.
		{"switch fault kills two jobs", []Arrival{gromacs(8, 0), {Job: JobSpec{App: "alya", NP: 8}}}, []FaultEvent{
			{At: exec8 / 4, Kind: FaultSwitch, Index: leaf0},
			{At: exec8, Kind: FaultSwitch, Repair: true, Index: leaf0},
		}, retry, 2, 0},
		{"retry budget exhausted", []Arrival{gromacs(8, 0)}, budget,
			RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}, 3, 1},
		// Three terminals fail for good before the job arrives: 249 < 250.
		{"stranded job", []Arrival{gromacs(250, 0)}, []FaultEvent{
			{At: 0, Kind: FaultTerminal, Index: 0},
			{At: 0, Kind: FaultTerminal, Index: 1},
			{At: 0, Kind: FaultTerminal, Index: 2},
		}, RetryPolicy{MaxRetries: 1, Backoff: time.Millisecond}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			config := func() ChurnConfig {
				cfg := testChurnConfig(tc.arrivals)
				cfg.Faults = &sliceFaults{evs: tc.faults}
				cfg.Retry = tc.retry
				return cfg
			}
			cfg := config()
			fabric, err := cfg.Replay.Fabric()
			if err != nil {
				t.Fatal(err)
			}
			c, err := newCluster(cfg, fabric)
			if err != nil {
				t.Fatal(err)
			}
			instants := 0
			for {
				now, ok := c.nextInstant()
				if !ok {
					break
				}
				if err := c.step(now); err != nil {
					t.Fatal(err)
				}
				instants++
				checkCluster(t, c, now)
			}
			res, err := c.result()
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.jobs {
				j := &c.jobs[i]
				if completed := j.acct != nil; completed == j.Abandoned {
					t.Errorf("job %d: completed %v, abandoned %v; want exactly one", i, completed, j.Abandoned)
				}
			}
			if res.Killed != tc.killed || res.Abandoned != tc.abandoned {
				t.Errorf("%d kills, %d jobs abandoned; want %d, %d", res.Killed, res.Abandoned, tc.killed, tc.abandoned)
			}
			want, err := RunChurn(config())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("stepped result differs from RunChurn's over %d instants", instants)
			}
		})
	}
}

// checkCluster asserts the cluster's occupancy bookkeeping at the end of an
// instant:
//   - free + held + down = terminals, and no held terminal is down;
//   - every held terminal's owner is a job whose running slice lists it, and
//     no terminal is listed by two jobs;
//   - a running job has exactly one live release pending, an idle job none.
func checkCluster(t *testing.T, c *cluster, now time.Duration) {
	t.Helper()
	fl := c.free
	listed := make(map[int]int) // terminal -> the job whose running slice lists it
	for id := range c.jobs {
		for _, term := range c.jobs[id].running {
			if other, dup := listed[term]; dup {
				t.Fatalf("at %v: terminal %d listed by jobs %d and %d", now, term, other, id)
			}
			listed[term] = id
		}
	}
	held := 0
	for term, owner := range fl.owner {
		if owner == noOwner {
			if id, ok := listed[term]; ok {
				t.Fatalf("at %v: terminal %d listed by running job %d but unclaimed", now, term, id)
			}
			continue
		}
		held++
		if id, ok := listed[term]; !ok || int32(id) != owner {
			t.Fatalf("at %v: terminal %d owned by %d, listed by a running job: %v (job %d)", now, term, owner, ok, id)
		}
		if fl.down[term] > 0 {
			t.Fatalf("at %v: terminal %d is down but still held by job %d", now, term, owner)
		}
	}
	if n := fl.NumTerminals(); fl.Free()+held+fl.Down() != n {
		t.Fatalf("at %v: free %d + held %d + down %d != %d terminals", now, fl.Free(), held, fl.Down(), n)
	}
	live := make([]int, len(c.jobs))
	for _, ev := range c.releases {
		if ev.attempt == c.jobs[ev.id].attempt {
			live[ev.id]++
		}
	}
	for id := range c.jobs {
		want := 0
		if c.jobs[id].running != nil {
			want = 1
		}
		if live[id] != want {
			t.Fatalf("at %v: job %d (running %v) has %d live releases pending, want %d",
				now, id, c.jobs[id].running != nil, live[id], want)
		}
	}
}
