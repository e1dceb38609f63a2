package replay

import (
	"fmt"
	"slices"
	"time"

	"ibpower/internal/network"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
)

// Churn is an incremental shared-fabric replay session and the replay
// engine's one front door: jobs are admitted onto one live network timeline
// at non-decreasing simulated start times, run to completion, and leave their
// link occupancy behind for every job admitted after them. RunJobs is a
// single admission at time 0 on a fresh session; the scenario engine
// (internal/multijob.RunChurn) admits many, as its scheduler decides when
// each queued job claims terminals.
//
// A rank admitted at time T starts its clock at T, so its whole replay —
// computation, messaging, power accounting — happens in the window
// [T, finish]. Because op peers are job-local, an admitted batch always
// drains to completion in one pass, which is what lets the caller learn
// exact finish times before making its next scheduling decision.
//
// Contention is admission-ordered: a job's transfers observe the link busy
// intervals accumulated by every earlier-admitted job (including ones whose
// lifetime overlaps its own), while earlier jobs are unaffected by later
// arrivals — the one-pass analogue of a batch system in which running jobs
// have priority over newcomers. Jobs admitted in the same batch interleave
// on the work list and contend bidirectionally.
//
// The session is single-threaded and deterministic: the result sequence is
// a pure function of the admission sequence and Config.
type Churn struct {
	cfg  Config
	topo topology.Fabric
	e    *engine
	now  time.Duration
	// finish is the session's one terminal-occupancy record: the absolute
	// completion of each placed terminal's last occupant. A terminal is free
	// at time T when its finish is <= T, so an absent terminal (finish 0) is
	// free. While AdmitAt validates a batch, a terminal explicitly claimed
	// by batch job j holds -(j+1), which is how a second claim within the
	// batch is caught; draining the batch overwrites every claim with the
	// occupant's finish. Keyed by terminal, it is sized by the terminals
	// ever placed, not by the fabric.
	finish map[int]time.Duration
	jobN   int // jobs admitted so far, for timeline labels
}

// NewChurn opens a session on the configured fabric. Network parameters and
// the fabric registry name fail fast, before any job is admitted.
func NewChurn(cfg Config) (*Churn, error) {
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
	net, err := network.New(topo, cfg.Net)
	if err != nil {
		return nil, err
	}
	e := &engine{net: net}
	if cfg.Telemetry.Enabled {
		e.tele = newTelemetry(cfg.Telemetry, topo)
		net.Observe(e.tele)
	}
	return &Churn{cfg: cfg, topo: topo, e: e, finish: make(map[int]time.Duration)}, nil
}

// Stats returns the fabric-wide totals accumulated so far — the union of
// every admitted job's traffic, a snapshot of per-link busy time, and the
// telemetry recorder. Jobs and MakeSpan are left unset: the caller knows
// which job results and which end time its summary covers. The recorder is
// settled first, so every record made so far is applied before the result
// leaves the engine.
func (c *Churn) Stats() *MultiResult {
	m := &MultiResult{LinkBusy: make([]time.Duration, c.e.net.NumLinks()), Series: c.Telemetry()}
	if m.Series != nil {
		m.Series.Buckets() // every TimeSeries reader settles pending records
	}
	m.Transfers, m.BytesMoved = c.e.net.Stats()
	for i := range m.LinkBusy {
		m.LinkBusy[i] = c.e.net.LinkBusy(topology.LinkID(i))
	}
	return m
}

// Telemetry returns the session's streaming recorder, or nil when
// Config.Telemetry is off. The session records its engine-level series on
// it; callers (the churn scenario engine) may register and record
// additional series on the same recorder, sharing one bucket timeline.
func (c *Churn) Telemetry() *stats.TimeSeries {
	if c.e.tele == nil {
		return nil
	}
	return c.e.tele.ts
}

// SetFaults attaches a live fault set to the session's network: subsequent
// admissions route around blocked links (see network.SetFaults). The caller
// keeps ownership of the set and mutates it between admissions as fault
// events fire.
func (c *Churn) SetFaults(fs *topology.FaultSet) error { return c.e.net.SetFaults(fs) }

// Unroutable returns the number of transfers so far that had no healthy
// path and fell back to healthy-route timing.
func (c *Churn) Unroutable() int { return c.e.net.Unroutable() }

// ReleaseTerminals truncates the recorded occupancy of the given terminals
// to at, freeing them for re-admission from that instant. The churn engine
// calls this when a fault kills a running job: the job's remaining replay
// stays on the link timeline (its ranks were already drained in one pass —
// the residue models abort/drain traffic), but the terminals themselves may
// host a new job immediately.
func (c *Churn) ReleaseTerminals(at time.Duration, terms []int) {
	for _, t := range terms {
		if c.finish[t] > at {
			c.finish[t] = at
		}
	}
}

// AdmitAt starts the given jobs at simulated time start — which must not
// precede any earlier admission — and drains them to completion, returning
// one job-scoped Result per job in input order. Each Result's ExecTime and
// RankFinish are relative to start; the job's absolute finish is
// start + ExecTime, and its power accounting closes there.
//
// AdmitAt is the engine's only job validation. Each job needs exactly one
// of Trace and Source, and a valid power block. A job with Terminals set
// must map every rank to a distinct in-range terminal that is free at start
// (its previous occupant's finish is <= start) and not claimed by another
// job of the batch. A job with nil Terminals is placed, in job order, on the
// lowest terminals free at start that no explicitly placed job of the batch
// claims. On error the session state is undefined and must be discarded.
func (c *Churn) AdmitAt(start time.Duration, jobs ...Job) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("replay: no jobs")
	}
	if start < c.now {
		return nil, fmt.Errorf("replay: admission time going backwards: %v < %v", start, c.now)
	}
	c.now = start
	nt := c.topo.NumTerminals()
	srcs := make([]trace.Source, len(jobs))
	metas := make([]trace.Meta, len(jobs))
	pws := make([]PowerConfig, len(jobs))
	terms := make([][]int, len(jobs))
	ranks := 0
	// Validate every job; explicitly placed jobs claim their terminals.
	for j, job := range jobs {
		src := job.Source
		switch {
		case job.Trace != nil && src != nil:
			return nil, fmt.Errorf("replay: job %d sets both Trace and Source", j)
		case job.Trace != nil:
			src = job.Trace
		case src == nil:
			return nil, fmt.Errorf("replay: job %d has no trace", j)
		}
		if err := trace.ValidateSource(src); err != nil {
			return nil, err
		}
		m := src.Meta()
		srcs[j], metas[j] = src, m
		ranks += m.NP
		pw, err := resolvePower(c.cfg, job)
		if err != nil {
			return nil, err
		}
		pws[j] = pw
		if job.Terminals == nil {
			continue // placed below, once every explicit claim is known
		}
		if len(job.Terminals) != m.NP {
			return nil, fmt.Errorf("replay: job %d (%s): %d terminals for %d ranks",
				j, m.App, len(job.Terminals), m.NP)
		}
		for r, t := range job.Terminals {
			if t < 0 || t >= nt {
				return nil, fmt.Errorf("replay: job %d (%s) rank %d: terminal %d out of range [0,%d)",
					j, m.App, r, t, nt)
			}
			switch f := c.finish[t]; {
			case f == claimed(j):
				return nil, fmt.Errorf("replay: job %d (%s) places two ranks on terminal %d", j, m.App, t)
			case f < 0:
				return nil, fmt.Errorf("replay: jobs %d and %d both placed on terminal %d", int(-1-f), j, t)
			case f > start:
				return nil, fmt.Errorf("replay: job %d (%s) rank %d: terminal %d busy until %v at admission time %v",
					j, m.App, r, t, f, start)
			}
			c.finish[t] = claimed(j)
		}
		terms[j] = job.Terminals
	}
	// Place the rest on the lowest free, unclaimed terminals in job order, so
	// a mix of explicit and automatic placement never collides and never
	// runs out while free terminals remain.
	next := 0
	for j, job := range jobs {
		if job.Terminals != nil {
			continue
		}
		terms[j] = make([]int, metas[j].NP)
		for r := range terms[j] {
			for ; next < nt; next++ {
				if f := c.finish[next]; f >= 0 && f <= start {
					break
				}
			}
			if next == nt {
				return nil, fmt.Errorf("replay: fabric %s has too few free terminals at %v for job %d (%s, %d ranks)",
					c.topo.Name(), start, j, metas[j].App, metas[j].NP)
			}
			terms[j][r] = next
			next++
		}
	}

	// Every earlier batch drained to completion and was collected (its
	// Results hold copies), so the batch starts on an emptied rank table:
	// enqueue and drain cost O(batch), and addJob resets the drained ranks'
	// step buffers, predictors and controllers instead of building new ones.
	c.e.release()
	c.e.rk = slices.Grow(c.e.rk, ranks)
	// A session's lone first job keeps the historical single-job timeline
	// labels; otherwise the session-wide job number tells tenants apart.
	lone := c.jobN == 0 && len(jobs) == 1
	for j := range jobs {
		id, app := c.jobN+j, metas[j].App
		// addJob opens fresh cursors, so re-admitting a job (a fault retry)
		// replays its source from the first op.
		err := c.e.addJob(srcs[j], pws[j], terms[j], start, func(r int) string {
			if lone {
				return fmt.Sprintf("rank %d", r)
			}
			return fmt.Sprintf("job %d %s rank %d", id, app, r)
		})
		if err != nil {
			return nil, err
		}
	}
	c.jobN += len(jobs)
	c.e.enqueue()
	if err := c.e.drain(); err != nil {
		return nil, err
	}

	results := make([]*Result, len(jobs))
	for j, js := range c.e.jobs {
		res := c.e.collectJob(js, start)
		results[j] = res
		for _, t := range terms[j] {
			c.finish[t] = start + res.ExecTime
		}
	}
	return results, nil
}

// claimed is the occupancy a terminal holds while AdmitAt validates a batch
// in which job j claimed it explicitly: negative, so no finish time matches.
func claimed(j int) time.Duration { return time.Duration(-1 - j) }
