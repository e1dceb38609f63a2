// Package scenario turns a compact textual spec into a reproducible stream
// of job arrivals and drives the multijob churn engine under a named
// scheduling policy — the online-cluster view of the paper's energy
// question: jobs arriving, queueing, running, and freeing terminals on one
// shared fabric over simulated days.
//
// A Spec ("jobs=200,size=zipf:16:256,arrival=poisson:30s,seed=7", or the
// same keys one-per-line in a file) describes job count, application mix,
// a size distribution (fixed, uniform, choices, normal, Zipf), an arrival
// process (Poisson or fixed-interval, with a speed multiplier), and a seed;
// Generate expands it deterministically. Schedulers live behind a named
// registry of the same internal/registry type as the predictor, fabric, and
// placement registries:
// "fcfs" (strict arrival order, the default), "backfill" (EASY-style, no
// reservations), and "power-aware" (admits jobs onto already-woken first-hop
// switches first, preserving the fabric's idle-link coverage).
//
// Everything is deterministic for a given Config: the spec expansion is a
// pure function of the seed, the event loop is serial, and parallelism only
// spreads per-(app, NP) preparation over the worker pool in first-appearance
// order — results are bit-identical at any -parallel setting.
package scenario

import (
	"context"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/replay"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// Config parameterises one scenario run.
type Config struct {
	// Spec is the arrival stream description; zero-valued fields of a
	// partially built spec fail validation, so build via DefaultSpec,
	// ParseSpec, or ParseSpecFile.
	Spec Spec
	// Scheduler selects the policy from the scheduler registry ("fcfs",
	// "backfill", "power-aware", or anything registered by the embedding
	// program); empty selects DefaultScheduler.
	Scheduler string
	// Placement orders the terminal free-list (the placement registry);
	// empty selects multijob.DefaultPlacement. The spec's seed feeds the
	// "random" policy via Opt.Seed when Opt.Seed is zero.
	Placement string
	// Opt, Displacement, Replay, and the hooks: exactly as on
	// multijob.ChurnConfig.
	Opt          workloads.Options
	Displacement float64
	Replay       replay.Config
	SelectGT     func(src trace.Source) (time.Duration, error)
	Generate     func(app string, np int) (trace.Source, error)
	Dedicated    func(src trace.Source, gt time.Duration, displacement float64) (*replay.Result, error)

	// Ctx stops the event loop early when cancelled.
	Ctx context.Context
}

// Run expands the spec and simulates the scenario. The result is
// deterministic for a given Config at any Replay.Parallelism setting.
func Run(cfg Config) (*multijob.ChurnResult, error) {
	fn, err := Named(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	arrivals, err := cfg.Spec.Generate()
	if err != nil {
		return nil, err
	}
	opt := cfg.Opt
	if opt.Seed == 0 {
		opt.Seed = cfg.Spec.Seed
	}
	// The fault stream draws from RNGs derived from the spec seed, entirely
	// separate from the arrival stream's, so "the same spec plus faults"
	// sees the same jobs arrive at the same times. A fault-killed job is
	// requeued at most three times, with 1s exponential backoff.
	var faults multijob.FaultSource
	var retry multijob.RetryPolicy
	if len(cfg.Spec.Faults) > 0 {
		fabric, err := cfg.Replay.Fabric()
		if err != nil {
			return nil, err
		}
		fs, err := NewFaultStream(cfg.Spec.Faults, fabric, cfg.Spec.Seed)
		if err != nil {
			return nil, err
		}
		faults = fs
		retry = multijob.RetryPolicy{MaxRetries: 3, Backoff: time.Second}
	}
	return multijob.RunChurn(multijob.ChurnConfig{
		Arrivals:     arrivals,
		Schedule:     fn,
		Scheduler:    schedulers.Resolve(cfg.Scheduler),
		Placement:    cfg.Placement,
		Opt:          opt,
		Displacement: cfg.Displacement,
		Replay:       cfg.Replay,
		SelectGT:     cfg.SelectGT,
		Generate:     cfg.Generate,
		Dedicated:    cfg.Dedicated,
		Ctx:          cfg.Ctx,
		Faults:       faults,
		Retry:        retry,
	})
}
