package replay

import (
	"fmt"
	"time"

	"ibpower/internal/network"
	"ibpower/internal/predictor"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
)

// Job is one placed workload of a multi-job replay: a trace plus the fabric
// terminals its ranks occupy. Rank r of the job runs on Terminals[r]; op
// peers stay job-local, so the same trace replays unchanged whether the job
// has the fabric to itself or shares it.
type Job struct {
	// Trace is the in-memory form of the job's op streams. Exactly one of
	// Trace and Source must be set; Trace is the materialized shorthand
	// (*trace.Trace implements trace.Source, so the two paths replay
	// bit-identically).
	Trace *trace.Trace
	// Source streams the job's op streams through cursors — a packed trace
	// file or an on-the-fly generator — so the engine holds O(window) of the
	// trace per rank instead of all of it.
	Source trace.Source
	// Terminals maps job-local rank -> fabric terminal. Terminals of all
	// jobs in one RunJobs call must be disjoint (one MPI process per
	// terminal). nil places the job's ranks contiguously after the previous
	// job's block (the linear placement); for a single job that is the
	// identity mapping RunSource uses.
	Terminals []int
	// Power overrides the run-level Config.Power for this job when non-nil,
	// so each job can carry its own grouping threshold and predictor (the
	// multi-tenant scenario: every tenant tunes its own mechanism).
	Power *PowerConfig
}

// src resolves the job's op stream: Source when set, else the in-memory
// Trace; nil when the job has neither.
func (j Job) src() trace.Source {
	if j.Source != nil {
		return j.Source
	}
	if j.Trace != nil {
		return j.Trace
	}
	return nil
}

// MultiResult is the outcome of a shared-fabric multi-job replay.
type MultiResult struct {
	// Jobs holds one Result per job, in input order. Each Result is scoped
	// to its own job: exec time and RankFinish over the job's ranks, power
	// accounting for the job's host links, transfer counters for the job's
	// own traffic.
	Jobs []*Result

	// MakeSpan is the completion time of the slowest job.
	MakeSpan time.Duration

	// Fabric-wide counters: the union of all jobs' traffic.
	Transfers  int
	BytesMoved int64
	// LinkBusy is the accumulated busy time per directed link (indexed by
	// topology link ID), observing every job's messages — the signal that
	// distinguishes fabric sharing from dedicated runs.
	LinkBusy []time.Duration

	// Series is the streaming telemetry recorder, non-nil only when
	// Config.Telemetry was enabled. It is fabric-wide: all jobs' activity
	// lands on one timeline.
	Series *stats.TimeSeries
}

// RunJobs replays several independent jobs concurrently on one shared
// fabric. Every job advances through the same event timeline and every
// message is timed by one network instance, so links observe the union of
// all jobs' traffic: a switch neighbor's communication phase can shrink or
// displace the idle windows another job's predictor is trying to exploit.
//
// The engine is single-threaded and processes ranks in deterministic order,
// so results are a pure function of (jobs, cfg) — bit-identical across
// repeated runs and unaffected by Config.Parallelism, which only harness
// sweeps consume.
func RunJobs(jobs []Job, cfg Config) (*MultiResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("replay: no jobs")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topo == nil {
		if err := topology.CheckRegistered(cfg.FabricName); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	topo, err := cfg.Fabric()
	if err != nil {
		return nil, err
	}
	nt := topo.NumTerminals()

	// Validate traces and placements: every rank on a distinct terminal.
	owner := make(map[int]int) // terminal -> job index
	total := 0
	srcs := make([]trace.Source, len(jobs))
	metas := make([]trace.Meta, len(jobs))
	for j := range jobs {
		src := jobs[j].src()
		if src == nil {
			return nil, fmt.Errorf("replay: job %d has no trace", j)
		}
		if err := trace.ValidateSource(src); err != nil {
			return nil, err
		}
		srcs[j], metas[j] = src, src.Meta()
		total += metas[j].NP
		if jobs[j].Terminals == nil {
			continue // placed linearly below, after total is known
		}
		if len(jobs[j].Terminals) != metas[j].NP {
			return nil, fmt.Errorf("replay: job %d (%s): %d terminals for %d ranks",
				j, metas[j].App, len(jobs[j].Terminals), metas[j].NP)
		}
	}
	if total > nt {
		return nil, fmt.Errorf("replay: fabric %s has %d terminals, need %d",
			topo.Name(), nt, total)
	}
	// Two passes: explicitly placed jobs claim their terminals first, then
	// nil-Terminals jobs fill the lowest free terminals in job order — so a
	// mix of explicit and automatic placement never collides and never runs
	// out of terminals while free ones remain (the capacity check above
	// already guaranteed the mix fits).
	terms := make([][]int, len(jobs))
	for j := range jobs {
		if jobs[j].Terminals == nil {
			continue
		}
		terms[j] = jobs[j].Terminals
		for r, t := range terms[j] {
			if t < 0 || t >= nt {
				return nil, fmt.Errorf("replay: job %d (%s) rank %d: terminal %d out of range [0,%d)",
					j, metas[j].App, r, t, nt)
			}
			if prev, taken := owner[t]; taken {
				if prev == j {
					return nil, fmt.Errorf("replay: job %d (%s) places two ranks on terminal %d",
						j, metas[j].App, t)
				}
				return nil, fmt.Errorf("replay: jobs %d and %d both placed on terminal %d",
					prev, j, t)
			}
			owner[t] = j
		}
	}
	next := 0 // lowest candidate free terminal for automatic placement
	for j := range jobs {
		if jobs[j].Terminals != nil {
			continue
		}
		terms[j] = make([]int, metas[j].NP)
		for r := range terms[j] {
			for {
				if _, taken := owner[next]; !taken {
					break
				}
				next++
			}
			terms[j][r] = next
			owner[next] = j
			next++
		}
	}

	// Resolve each job's effective power configuration.
	pws := make([]PowerConfig, len(jobs))
	for j := range jobs {
		pw, err := resolvePower(cfg, jobs[j])
		if err != nil {
			return nil, err
		}
		pws[j] = pw
	}

	net, err := network.New(topo, cfg.Net)
	if err != nil {
		return nil, err
	}
	e := &engine{net: net, rk: make([]*rankState, 0, total)}
	if cfg.Telemetry.Enabled {
		e.tele = newTelemetry(cfg.Telemetry, topo)
		net.Observe(e.tele)
	}
	for j := range jobs {
		j, app := j, metas[j].App
		_, err := e.addJob(srcs[j], pws[j], terms[j], 0, func(r int) string {
			return timelineLabel(len(jobs), j, app, r)
		})
		if err != nil {
			return nil, err
		}
	}
	e.enqueue()
	return e.run()
}

// resolvePower returns the job's effective power block — its own override or
// the run-level default — after validating predictor config and registry
// name.
func resolvePower(cfg Config, job Job) (PowerConfig, error) {
	pw := cfg.Power
	if job.Power != nil {
		pw = *job.Power
	}
	if pw.Enabled {
		if err := pw.Predictor.Validate(); err != nil {
			return PowerConfig{}, err
		}
		if err := predictor.CheckRegistered(pw.PredictorName); err != nil {
			return PowerConfig{}, fmt.Errorf("replay: %w", err)
		}
	}
	return pw, nil
}

// timelineLabel names a recorded per-rank timeline; single-job runs keep the
// historical "rank N" labels so rendered output is unchanged, multi-job runs
// carry the job index so two tenants of the same application stay
// distinguishable.
func timelineLabel(njobs, j int, app string, r int) string {
	if njobs == 1 {
		return fmt.Sprintf("rank %d", r)
	}
	return fmt.Sprintf("job %d %s rank %d", j, app, r)
}
