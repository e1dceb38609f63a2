package multijob

import (
	"reflect"
	"strings"
	"testing"

	"ibpower/internal/registry"
	"ibpower/internal/registrytest"
	"ibpower/internal/topology"
)

// TestPlacementInvariants runs every registered policy over every registered
// fabric and checks the contract Place enforces: every rank mapped, all
// terminals in range, no terminal shared between ranks or jobs.
func TestPlacementInvariants(t *testing.T) {
	sizes := []int{16, 9, 32, 8}
	for _, fname := range topology.Names() {
		f, err := topology.Named(fname)
		if err != nil {
			t.Fatal(err)
		}
		for _, pname := range Names() {
			terms, err := Place(pname, f, sizes, 7)
			if err != nil {
				t.Errorf("%s on %s: %v", pname, fname, err)
				continue
			}
			seen := make(map[int]bool)
			for j, ts := range terms {
				if len(ts) != sizes[j] {
					t.Errorf("%s on %s: job %d got %d terminals, want %d",
						pname, fname, j, len(ts), sizes[j])
				}
				for _, term := range ts {
					if term < 0 || term >= f.NumTerminals() {
						t.Errorf("%s on %s: terminal %d out of range", pname, fname, term)
					}
					if seen[term] {
						t.Errorf("%s on %s: terminal %d assigned twice", pname, fname, term)
					}
					seen[term] = true
				}
			}
		}
	}
}

// TestRandomPlacementDeterministicPerSeed pins the "random" policy's
// reproducibility contract: same seed, same placement; different seed,
// different placement.
func TestRandomPlacementDeterministicPerSeed(t *testing.T) {
	f := topology.Paper()
	sizes := []int{64, 16}
	a, err := Place("random", f, sizes, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place("random", f, sizes, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("random placement differs for identical seeds")
	}
	c, err := Place("random", f, sizes, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("random placement identical across different seeds")
	}
}

// TestLinearPlacementIsContiguous asserts linear hands out contiguous
// terminal blocks in job order — the identity placement replay.RunSource
// uses when a single job has the fabric to itself.
func TestLinearPlacementIsContiguous(t *testing.T) {
	f := topology.Paper()
	terms, err := Place("linear", f, []int{8, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for j, ts := range terms {
		for r, term := range ts {
			if term != next {
				t.Fatalf("job %d rank %d on terminal %d, want %d", j, r, term, next)
			}
			next++
		}
	}
}

// TestRoundRobinSpreadsAcrossSwitches asserts consecutive ranks land on
// distinct first-hop switches (while distinct switches remain), the whole
// point of the interleaving policy.
func TestRoundRobinSpreadsAcrossSwitches(t *testing.T) {
	f := topology.Paper() // 14 leaf switches, 18 terminals each
	terms, err := Place("roundrobin", f, []int{14}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for r, term := range terms[0] {
		sw := topology.HostSwitch(f, term)
		if seen[sw] {
			t.Errorf("rank %d landed on already-used switch %d before all switches were visited", r, sw)
		}
		seen[sw] = true
	}
	if len(seen) != 14 {
		t.Errorf("14 interleaved ranks span %d switches, want 14", len(seen))
	}
}

// TestPlaceErrors covers the Place-specific error paths the shared registry
// contract does not reach (the unknown-name path goes through Place itself,
// and capacity checking is unique to placements).
func TestPlaceErrors(t *testing.T) {
	f := topology.Paper()
	if _, err := Place("nosuch", f, []int{8}, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown placement") ||
		!strings.Contains(err.Error(), "roundrobin") {
		t.Errorf("unknown policy: error %v, want the registry listed", err)
	}
	if _, err := Place("linear", f, []int{200, 200}, 0); err == nil ||
		!strings.Contains(err.Error(), "exceed") {
		t.Errorf("overcommit: error %v, want capacity complaint", err)
	}
}

// TestRegistryContract runs the shared registry property test. The
// throwaway entries it registers delegate to the linear policy, so
// TestPlacementInvariants keeps passing over them.
func TestRegistryContract(t *testing.T) {
	registrytest.Run(t, registrytest.Registry{
		Kind:    "placement",
		Default: DefaultPlacement,
		Names:   Names,
		Check:   CheckRegistered,
		RegisterValid: func(name string) {
			Register(name, func(f topology.Fabric, seed int64) ([]int, error) {
				return Ordering("linear", f, seed)
			})
		},
		RegisterNil: func(name string) { Register(name, nil) },
	})
}

// TestOrderingRejectsBrokenPolicies covers the one contract Ordering
// enforces on every policy (and NewFreeList on every caller-built order):
// each terminal named exactly once. A registered policy that breaks it
// fails Ordering, and so Place and every churn run, with its name.
func TestOrderingRejectsBrokenPolicies(t *testing.T) {
	for name, tc := range map[string]struct {
		order []int
		want  string
	}{
		"ok":           {[]int{2, 0, 1}, ""},
		"short":        {[]int{0, 1}, "covers 2 of 3"},
		"out of range": {[]int{0, 1, 3}, "terminal 3"},
		"negative":     {[]int{0, -1, 2}, "terminal -1"},
		"twice":        {[]int{0, 1, 1}, "twice"},
	} {
		err := checkPermutation(tc.order, 3)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", name, err, tc.want)
		}
	}

	// Registered in a registry swapped in for this test only, so the policy
	// loops of the other tests never see it.
	saved := placements
	placements = registry.New[PlaceFunc]("multijob", "placement", DefaultPlacement)
	t.Cleanup(func() { placements = saved })
	const broken = "broken-for-test"
	Register(broken, func(f topology.Fabric, _ int64) ([]int, error) {
		return make([]int, f.NumTerminals()), nil // terminal 0, every time
	})
	f := topology.Paper()
	if _, err := Ordering(broken, f, 0); err == nil || !strings.Contains(err.Error(), `policy "broken-for-test" broke its contract`) {
		t.Errorf("Ordering: error %v, want the broken contract named", err)
	}
	if _, err := Place(broken, f, []int{8}, 0); err == nil || !strings.Contains(err.Error(), "broke its contract") {
		t.Errorf("Place: error %v, want the broken contract named", err)
	}
}
