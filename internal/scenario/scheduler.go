package scenario

import (
	"ibpower/internal/multijob"
	"ibpower/internal/registry"
)

// DefaultScheduler is the registry entry used when no policy is named:
// first-come-first-served, the reference batch discipline.
const DefaultScheduler = "fcfs"

var schedulers = registry.New[multijob.SchedFunc]("scenario", "scheduler", DefaultScheduler)

// Register adds a scheduling policy under name. It panics on an empty name,
// a nil policy, or a duplicate registration.
func Register(name string, fn multijob.SchedFunc) { schedulers.Register(name, fn) }

// Names returns the registered scheduler names, sorted.
func Names() []string { return schedulers.Names() }

// CheckRegistered returns a descriptive error naming the whole registry when
// name does not resolve (the empty name resolves to DefaultScheduler), so a
// typo'd -sched flag tells the user what would have worked.
func CheckRegistered(name string) error { return schedulers.Check(name) }

// Named resolves a scheduler by name; the empty name selects the default.
func Named(name string) (multijob.SchedFunc, error) { return schedulers.Get(name) }

// The preset registry.
func init() {
	// fcfs: strict first-come-first-served — admit from the queue head while
	// jobs fit, stop at the first that does not. Never reorders jobs, so
	// equal-arrival jobs start in arrival order and a wide job at the head
	// blocks everything behind it (head-of-line blocking, the cost of
	// fairness).
	Register("fcfs", func(ctx *multijob.SchedContext) []int {
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
	})
	// backfill: fcfs, plus any later job that fits the terminals the blocked
	// head cannot use — EASY-style backfilling without reservations, so a
	// stream of small jobs can starve a wide head under sustained load.
	Register("backfill", func(ctx *multijob.SchedContext) []int {
		var picks []int
		free := ctx.Free.Free()
		blocked := false
		for i, q := range ctx.Queue {
			if q.Spec.NP > free {
				blocked = true
				continue
			}
			if blocked {
				// Backfilling past the head: still in queue scan order, so
				// among backfill candidates the earliest arrival wins.
				picks = append(picks, i)
				free -= q.Spec.NP
				continue
			}
			picks = append(picks, i)
			free -= q.Spec.NP
		}
		return picks
	})
	// power-aware: among fitting jobs, repeatedly admit the one whose
	// allocation wakes the fewest fully-idle first-hop switches, so sleeping
	// edge links stay asleep and the prediction mechanism keeps whole
	// switches in low power. Ties break by arrival order. Planning runs on a
	// clone of the free-list; the engine performs the real allocations in
	// the returned order, which reproduces the plan exactly because both
	// draw from the same policy ordering.
	Register("power-aware", func(ctx *multijob.SchedContext) []int {
		var picks []int
		plan := ctx.Free.Clone()
		taken := make([]bool, len(ctx.Queue))
		for {
			best, bestCost := -1, 0
			for i, q := range ctx.Queue {
				if taken[i] || q.Spec.NP > plan.Free() {
					continue
				}
				terms := plan.PeekAlloc(q.Spec.NP)
				cost := plan.IdleSwitches(terms)
				if best == -1 || cost < bestCost {
					best, bestCost = i, cost
				}
			}
			if best == -1 {
				return picks
			}
			taken[best] = true
			picks = append(picks, best)
			plan.Alloc(ctx.Queue[best].Spec.NP)
		}
	})
}
