package multijob

import (
	"fmt"
	"math/rand"

	"ibpower/internal/registry"
	"ibpower/internal/topology"
)

// PlaceFunc is a placement policy: it returns the policy's preference order
// over every terminal of the fabric, a permutation of [0, f.NumTerminals()).
// Jobs take terminals from the front of that order, so a static mix is cut
// into consecutive blocks and a churn scenario's free-list hands out the
// first free terminals in it. Implementations must be deterministic for a
// given (fabric, seed): placement is part of the simulation's
// reproducibility contract.
type PlaceFunc func(f topology.Fabric, seed int64) ([]int, error)

// DefaultPlacement is the registry entry used when no policy is named:
// contiguous terminal blocks, the way batch schedulers fill an idle machine.
const DefaultPlacement = "linear"

var placements = registry.New[PlaceFunc]("multijob", "placement", DefaultPlacement)

// Register adds a placement policy under name. It panics on an empty name, a
// nil policy, or a duplicate registration.
func Register(name string, fn PlaceFunc) { placements.Register(name, fn) }

// Names returns the registered placement policy names, sorted.
func Names() []string { return placements.Names() }

// CheckRegistered returns a descriptive error naming the whole registry when
// name does not resolve (the empty name resolves to DefaultPlacement), so a
// typo'd -placement flag tells the user what would have worked.
func CheckRegistered(name string) error { return placements.Check(name) }

// Ordering resolves the named placement policy and returns its preference
// order over every terminal of the fabric. It enforces the one contract
// every policy must deliver: the order is a permutation of the fabric's
// terminals, so no terminal is skipped or handed out twice.
func Ordering(name string, f topology.Fabric, seed int64) ([]int, error) {
	fn, err := placements.Get(name)
	if err != nil {
		return nil, err
	}
	order, err := fn(f, seed)
	if err != nil {
		return nil, err
	}
	if err := checkPermutation(order, f.NumTerminals()); err != nil {
		return nil, fmt.Errorf("multijob: policy %q broke its contract: %w", placements.Resolve(name), err)
	}
	return order, nil
}

// Place maps a static job mix onto the fabric: the named policy's ordering
// cut into consecutive blocks, one per job in mix order (result[j][r] is the
// terminal of job j's rank r). It fails when the mix does not fit.
func Place(name string, f topology.Fabric, sizes []int, seed int64) ([][]int, error) {
	order, err := Ordering(name, f, seed)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	if err := checkCapacity(f, total); err != nil {
		return nil, err
	}
	return blocks(order, sizes), nil
}

// checkCapacity fails when total ranks exceed the fabric's terminals.
func checkCapacity(f topology.Fabric, total int) error {
	if total > f.NumTerminals() {
		return fmt.Errorf("multijob: %d ranks exceed the %d terminals of fabric %s",
			total, f.NumTerminals(), f.Name())
	}
	return nil
}

// checkPermutation verifies that order names each of the nt terminals
// exactly once.
func checkPermutation(order []int, nt int) error {
	if len(order) != nt {
		return fmt.Errorf("ordering covers %d of %d terminals", len(order), nt)
	}
	seen := make([]bool, nt)
	for _, t := range order {
		if t < 0 || t >= nt {
			return fmt.Errorf("ordering names terminal %d, fabric has [0,%d)", t, nt)
		}
		if seen[t] {
			return fmt.Errorf("ordering names terminal %d twice", t)
		}
		seen[t] = true
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
	Register("linear", func(f topology.Fabric, _ int64) ([]int, error) {
		order := make([]int, f.NumTerminals())
		for t := range order {
			order[t] = t
		}
		return order, nil
	})
	// random: a seeded shuffle of all terminals, consumed in job order — the
	// fragmented machine after months of job churn. Deterministic per seed.
	Register("random", func(f topology.Fabric, seed int64) ([]int, error) {
		return rand.New(rand.NewSource(seed)).Perm(f.NumTerminals()), nil
	})
	// roundrobin: terminals are consumed by cycling over the first-hop
	// switches, so consecutive ranks — and the jobs themselves — interleave
	// across the whole edge of the fabric. Every switch hosts a slice of
	// every job: maximum neighbor diversity, the adversarial case for
	// idle-window prediction.
	Register("roundrobin", func(f topology.Fabric, _ int64) ([]int, error) {
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
		return order, nil
	})
}
