package replay

import (
	"fmt"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/stats"
	"ibpower/internal/trace"
)

// Job is one placed workload of a multi-job replay: a trace plus the fabric
// terminals its ranks occupy. Rank r of the job runs on Terminals[r]; op
// peers stay job-local, so the same trace replays unchanged whether the job
// has the fabric to itself or shares it.
type Job struct {
	// Trace is the in-memory form of the job's op streams. Exactly one of
	// Trace and Source must be set (Churn.AdmitAt rejects a job with both);
	// Trace is the materialized shorthand (*trace.Trace implements
	// trace.Source, so the two paths replay bit-identically).
	Trace *trace.Trace
	// Source streams the job's op streams through cursors — a packed trace
	// file or an on-the-fly generator — so the engine holds O(window) of the
	// trace per rank instead of all of it.
	Source trace.Source
	// Terminals maps job-local rank -> fabric terminal. Terminals of all
	// jobs in one admission must be disjoint (one MPI process per terminal)
	// and free at its start time. nil places the job's ranks on the lowest
	// free terminals no other job of the admission claims (the linear
	// placement); for a single job on a fresh session that is the identity
	// mapping RunSource uses.
	Terminals []int
	// Power overrides the run-level Config.Power for this job when non-nil,
	// so each job can carry its own grouping threshold and predictor (the
	// multi-tenant scenario: every tenant tunes its own mechanism).
	Power *PowerConfig
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
// It is one admission at time 0 on a fresh Churn session: AdmitAt validates
// and places the jobs, and the session's Stats supply the fabric-wide
// totals. The engine is single-threaded and processes ranks in
// deterministic order, so results are a pure function of (jobs, cfg) —
// bit-identical across repeated runs and unaffected by Config.Parallelism,
// which only harness sweeps consume.
func RunJobs(jobs []Job, cfg Config) (*MultiResult, error) {
	c, err := NewChurn(cfg)
	if err != nil {
		return nil, err
	}
	res, err := c.AdmitAt(0, jobs...)
	if err != nil {
		return nil, err
	}
	m := c.Stats()
	m.Jobs = res
	for _, r := range res {
		m.MakeSpan = max(m.MakeSpan, r.ExecTime)
	}
	return m, nil
}

// RunSource replays one trace source under cfg and returns the measured
// result. The source may be an in-memory *trace.Trace, generated on the fly,
// or read from a packed trace file through bounded windows. It is the
// one-job RunJobs, so the job occupies terminals 0..NP-1 of the fabric. All
// validation (trace, network, registries, capacity) happens in NewChurn and
// Churn.AdmitAt.
func RunSource(src trace.Source, cfg Config) (*Result, error) {
	mr, err := RunJobs([]Job{{Source: src}}, cfg)
	if err != nil {
		return nil, err
	}
	res := mr.Jobs[0]
	res.Series = mr.Series
	return res, nil
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
