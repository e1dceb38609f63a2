package multijob

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"ibpower/internal/topology"
)

// PlaceFunc assigns fabric terminals to jobs: given the fabric and the
// per-job rank counts, it returns one terminal slice per job
// (result[j][r] is the terminal of job j's rank r). Implementations may
// assume sum(sizes) <= f.NumTerminals() — Place checks it — and must be
// deterministic for a given (fabric, sizes, seed): placement is part of the
// simulation's reproducibility contract.
type PlaceFunc func(f topology.Fabric, sizes []int, seed int64) ([][]int, error)

// DefaultPlacement is the registry entry used when no policy is named:
// contiguous terminal blocks, the way batch schedulers fill an idle machine.
const DefaultPlacement = "linear"

var (
	plMu  sync.RWMutex
	plReg = make(map[string]PlaceFunc)
)

// Register adds a placement policy under name. It panics on an empty name, a
// nil policy, or a duplicate registration, mirroring the predictor and
// fabric registries: registry collisions are programmer errors and must fail
// loudly at init time.
func Register(name string, fn PlaceFunc) {
	if name == "" {
		panic("multijob: Register with empty name")
	}
	if fn == nil {
		panic("multijob: Register with nil policy for " + name)
	}
	plMu.Lock()
	defer plMu.Unlock()
	if _, dup := plReg[name]; dup {
		panic("multijob: duplicate registration of " + name)
	}
	plReg[name] = fn
}

// Registered reports whether name resolves in the registry; the empty string
// resolves to DefaultPlacement.
func Registered(name string) bool {
	if name == "" {
		name = DefaultPlacement
	}
	plMu.RLock()
	defer plMu.RUnlock()
	_, ok := plReg[name]
	return ok
}

// Names returns the registered placement policy names, sorted.
func Names() []string {
	plMu.RLock()
	defer plMu.RUnlock()
	names := make([]string, 0, len(plReg))
	for n := range plReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CheckRegistered returns a descriptive error naming the whole registry when
// name does not resolve (the empty name resolves to DefaultPlacement), so a
// typo'd -placement flag tells the user what would have worked.
func CheckRegistered(name string) error {
	if Registered(name) {
		return nil
	}
	return fmt.Errorf("unknown placement %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// Place resolves the named policy and maps the jobs onto the fabric. It
// enforces the invariants every policy must deliver: the job set fits the
// fabric, every rank gets a terminal, and no two ranks — of any job — share
// one.
func Place(name string, f topology.Fabric, sizes []int, seed int64) ([][]int, error) {
	if name == "" {
		name = DefaultPlacement
	}
	plMu.RLock()
	fn, ok := plReg[name]
	plMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("multijob: %w", CheckRegistered(name))
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total > f.NumTerminals() {
		return nil, fmt.Errorf("multijob: %d ranks exceed the %d terminals of fabric %s",
			total, f.NumTerminals(), f.Name())
	}
	terms, err := fn(f, sizes, seed)
	if err != nil {
		return nil, err
	}
	if err := checkPlacement(f, sizes, terms); err != nil {
		return nil, fmt.Errorf("multijob: policy %q broke its contract: %w", name, err)
	}
	return terms, nil
}

// checkPlacement verifies the placement invariants (the same ones
// replay.Churn.AdmitAt checks on every admission before simulating).
func checkPlacement(f topology.Fabric, sizes []int, terms [][]int) error {
	if len(terms) != len(sizes) {
		return fmt.Errorf("placed %d jobs, want %d", len(terms), len(sizes))
	}
	seen := make(map[int]bool)
	for j, ts := range terms {
		if len(ts) != sizes[j] {
			return fmt.Errorf("job %d: %d terminals for %d ranks", j, len(ts), sizes[j])
		}
		for r, t := range ts {
			if t < 0 || t >= f.NumTerminals() {
				return fmt.Errorf("job %d rank %d: terminal %d out of range", j, r, t)
			}
			if seen[t] {
				return fmt.Errorf("terminal %d assigned twice", t)
			}
			seen[t] = true
		}
	}
	return nil
}

// blocks cuts a terminal ordering into per-job slices.
func blocks(order []int, sizes []int) [][]int {
	terms := make([][]int, len(sizes))
	next := 0
	for j, n := range sizes {
		terms[j] = append([]int(nil), order[next:next+n]...)
		next += n
	}
	return terms
}

// The preset registry.
func init() {
	// linear: contiguous terminal blocks in fabric order. Jobs pack onto as
	// few first-hop switches as possible, so each job mostly keeps its
	// switch neighborhood to itself — the friendliest sharing for the idle
	// predictor, and the policy a slurm-style scheduler approximates on an
	// empty machine.
	Register("linear", func(f topology.Fabric, sizes []int, _ int64) ([][]int, error) {
		order := make([]int, f.NumTerminals())
		for t := range order {
			order[t] = t
		}
		return blocks(order, sizes), nil
	})
	// random: a seeded shuffle of all terminals, consumed in job order — the
	// fragmented machine after months of job churn. Deterministic per seed.
	Register("random", func(f topology.Fabric, sizes []int, seed int64) ([][]int, error) {
		order := rand.New(rand.NewSource(seed)).Perm(f.NumTerminals())
		return blocks(order, sizes), nil
	})
	// roundrobin: terminals are consumed by cycling over the first-hop
	// switches, so consecutive ranks — and the jobs themselves — interleave
	// across the whole edge of the fabric. Every switch hosts a slice of
	// every job: maximum neighbor diversity, the adversarial case for
	// idle-window prediction.
	Register("roundrobin", func(f topology.Fabric, sizes []int, _ int64) ([][]int, error) {
		groups := make(map[int32][]int)
		var sw []int32 // first-hop switch node IDs in first-appearance order
		for t := 0; t < f.NumTerminals(); t++ {
			s := topology.HostSwitch(f, t)
			if _, ok := groups[s]; !ok {
				sw = append(sw, s)
			}
			groups[s] = append(groups[s], t)
		}
		order := make([]int, 0, f.NumTerminals())
		for round := 0; len(order) < f.NumTerminals(); round++ {
			for _, s := range sw {
				if g := groups[s]; round < len(g) {
					order = append(order, g[round])
				}
			}
		}
		return blocks(order, sizes), nil
	})
}
