package multijob

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/stats"
	"ibpower/internal/sweep"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// Arrival is one job of a churn scenario: a workload spec entering the
// system at a trace-relative time.
type Arrival struct {
	Job JobSpec
	At  time.Duration
}

// QueuedJob is one waiting job as scheduling policies see it.
type QueuedJob struct {
	ID      int // arrival index, stable across the whole scenario
	Spec    JobSpec
	Arrival time.Duration
}

// SchedContext is the system state a scheduling policy sees at one decision
// point: the waiting queue in arrival order and the live terminal free-list.
// Policies must treat both as read-only — Clone the free-list for what-if
// planning — and must be deterministic functions of the context. Down is the
// number of currently failed terminals, so policies see degraded capacity
// explicitly (Free.Free() already excludes them).
type SchedContext struct {
	Now    time.Duration
	Queue  []QueuedJob
	Free   *FreeList
	Fabric topology.Fabric
	Down   int
}

// SchedFunc decides which waiting jobs start now, returning their queue
// indices in admission order. Every pick must fit the free terminals when
// allocated in that order; RunChurn re-checks and fails loudly on a broken
// contract. Returning nothing defers the whole queue to the next event.
type SchedFunc func(ctx *SchedContext) []int

// ChurnConfig parameterises one shared-fabric simulation: a job stream, the
// policy admitting it, and the settings every job shares. A static job mix
// is the stream whose arrivals all sit at time 0 under a nil Schedule.
type ChurnConfig struct {
	// Arrivals is the job stream; RunChurn processes it in time order
	// (equal-time arrivals keep their slice order).
	Arrivals []Arrival
	// Schedule picks jobs off the queue at each event; the scenario
	// package's registry provides fcfs, backfill, and power-aware. Nil
	// admits every job as it arrives, after RunChurn has checked once that
	// the whole stream fits the fabric at once; results then name the
	// scheduler "static".
	Schedule SchedFunc
	// Scheduler names the policy in results.
	Scheduler string
	// Placement selects the policy ordering the terminal free-list from the
	// placement registry ("linear", "random", "roundrobin", or anything
	// registered by the embedding program); empty selects DefaultPlacement.
	Placement string
	// Opt tunes trace generation; Opt.Seed also seeds the "random"
	// placement, so one seed pins the whole scenario.
	Opt workloads.Options
	// Displacement is the Algorithm 3 safety factor, applied to every job.
	// Zero is a valid (maximally aggressive) setting, as on every other
	// experiment; the CLI default is the paper's conservative 1 %.
	Displacement float64
	// Replay carries the network parameters, fabric and predictor selection,
	// and the Parallelism bound for the per-job preparation (trace, GT
	// choice, dedicated baseline), which runs on the worker pool.
	// Each job runs with Replay.Power re-armed at the job's own grouping
	// threshold and Displacement; any other mechanism settings in the block
	// (deep sleep, custom overheads, timeline recording, predictor tuning)
	// are preserved per job.
	Replay replay.Config
	// SelectGT chooses the grouping threshold for one job's trace; nil uses
	// the minimum admissible threshold 2·Treact. The harness and CLI install
	// the Table III selection here (harness.ChooseGT). The hook receives a
	// trace.Source — an in-memory *Trace, a generator, or a packed trace
	// file — so threshold selection works without materializing the trace.
	SelectGT func(src trace.Source) (time.Duration, error)
	// Generate overrides trace delivery, letting callers reuse cached
	// traces or serve streaming sources from a packed file (harness.Runner
	// does both); nil generates fresh in-memory traces with Opt.
	Generate func(app string, np int) (trace.Source, error)
	// Dedicated overrides the dedicated-fabric baseline replay of one job
	// (the denominator of the sharing overhead). The baseline is
	// placement-independent, so callers sweeping placements cache it per
	// (job, GT) — harness.Runner does, through RunDedicated; nil replays
	// fresh.
	Dedicated func(src trace.Source, gt time.Duration, displacement float64) (*replay.Result, error)

	// Ctx, when non-nil, is checked between events: a cancelled context
	// stops the scenario with ctx.Err() instead of running it out.
	Ctx context.Context
	// Faults, when non-nil, injects hardware failures into the event loop:
	// link faults degrade routing, switch and terminal faults kill the jobs
	// running on the affected terminals (see FaultSource).
	Faults FaultSource
	// Retry governs requeueing of fault-killed jobs. The zero value
	// abandons on first kill.
	Retry RetryPolicy
}

// ChurnJob is the outcome of one scenario job. With fault injection active a
// job may run several attempts: Start/Finish/Terminals describe the final
// one, Kills and Wasted sum over the attempts a fault cut short, and
// Abandoned marks a job whose retry budget ran out (its stats then describe
// the last killed attempt, with Finish at the kill instant).
type ChurnJob struct {
	JobStats
	ID        int
	Arrival   time.Duration // when the job entered the queue
	Start     time.Duration // when the scheduler admitted it
	Wait      time.Duration // Start - Arrival
	Finish    time.Duration // absolute completion time
	Terminals []int         // the fabric terminals it ran on

	Kills     int           // attempts cut short by a fault
	Wasted    time.Duration // wall time lost to killed attempts
	Abandoned bool          // retry budget exhausted, job never completed
}

// ChurnResult is the outcome of a churn scenario.
type ChurnResult struct {
	Scheduler string
	Placement string
	Jobs      []ChurnJob // in arrival order (by ID)
	Fabric    FabricStats

	// Queue-wait distribution over all jobs.
	WaitMean time.Duration
	WaitP50  time.Duration
	WaitP95  time.Duration
	WaitMax  time.Duration

	// Util is fabric utilization over time: the mean percentage of
	// terminals occupied within each of UtilBuckets equal slices of the
	// makespan.
	Util []float64

	// Resilience metrics, populated when fault injection is active.
	FaultsActive      bool
	Killed            int       // fault-kill events across all jobs
	Retried           int       // requeues after a kill
	Abandoned         int       // jobs that never completed
	GoodputPct        float64   // useful terminal-seconds / (useful + wasted)
	WastedTermSeconds float64   // terminal-seconds lost to killed attempts
	Unroutable        int       // transfers with no healthy path left
	Capacity          []float64 // % of terminals up per UtilBuckets slice

	// Series is the scenario's streaming telemetry recorder (replay-level
	// power/utilization/hit-rate series plus queue.depth, fabric.occupied
	// and capacity.up), non-nil only when Replay.Telemetry was enabled.
	Series *stats.TimeSeries
}

// UtilBuckets is how many equal time slices the utilization-over-time
// profile divides the makespan into.
const UtilBuckets = 8

// maxChurnFaultEvents bounds how many fault events one scenario will
// process — a backstop against a custom FaultSource that never dries up.
const maxChurnFaultEvents = 1 << 20

// RunChurn simulates the configured arrival stream on one shared fabric:
// jobs queue on arrival, a scheduler admits them when terminals suffice, the
// incremental replay session (replay.Churn) runs each admission batch to
// completion on the live timeline, and completions free terminals for the
// jobs still waiting.
//
// Determinism contract: the scenario advances one event instant at a time.
// Each instant runs the same phases in order: releases of attempts finishing
// by then, fault events, due retries, fresh arrivals in (time, index) order,
// and the scheduler, invoked until it stops picking; a telemetry sample
// closes the instant. The event loop itself is serial; Replay.Parallelism
// only spreads the preparation of distinct (app, NP) pairs — trace
// generation, GT choice, dedicated baseline — over the worker pool, the
// largest NP first; the prepared pairs keep their first-appearance order,
// and a Parallelism: 1 run walks the same largest-first order. Results are
// therefore bit-identical at any parallelism for a given config.
//
// Fidelity note: the underlying session resolves contention in admission
// order — a job observes the link occupancy of every earlier-admitted job,
// while running jobs are never slowed retroactively by later arrivals (see
// replay.Churn).
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	if len(cfg.Arrivals) == 0 {
		return nil, fmt.Errorf("multijob: no arrivals configured")
	}
	if cfg.Retry.Backoff > maxBackoff {
		return nil, fmt.Errorf("multijob: retry backoff %v exceeds %v: its longest delay would overflow scenario time",
			cfg.Retry.Backoff, maxBackoff)
	}
	if err := CheckRegistered(cfg.Placement); err != nil {
		return nil, fmt.Errorf("multijob: %w", err)
	}
	if err := predictor.CheckRegistered(cfg.Replay.Power.PredictorName); err != nil {
		return nil, fmt.Errorf("multijob: %w", err)
	}
	fabric, err := cfg.Replay.Fabric()
	if err != nil {
		return nil, err
	}
	if cfg.Schedule == nil {
		total := 0
		for _, a := range cfg.Arrivals {
			total += a.Job.NP
		}
		if err := checkCapacity(fabric, total); err != nil {
			return nil, err
		}
		cfg.Schedule, cfg.Scheduler = admitAll, "static"
	}
	nt := fabric.NumTerminals()
	for i, a := range cfg.Arrivals {
		if a.At < 0 {
			return nil, fmt.Errorf("multijob: arrival %d (%s) at negative time %v", i, a.Job, a.At)
		}
		if a.Job.NP < 2 {
			return nil, fmt.Errorf("multijob: arrival %d (%s): np must be >= 2", i, a.Job)
		}
		if a.Job.NP > nt {
			return nil, fmt.Errorf("multijob: arrival %d (%s) needs %d terminals, fabric %s has %d",
				i, a.Job, a.Job.NP, fabric.Name(), nt)
		}
	}
	c, err := newCluster(cfg, fabric)
	if err != nil {
		return nil, err
	}
	for {
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
		now, ok := c.nextInstant()
		if !ok {
			return c.result()
		}
		if err := c.step(now); err != nil {
			return nil, err
		}
	}
}

// admitAll is the static policy a nil Schedule selects: it admits every
// waiting job that fits the free terminals, in queue order. RunChurn has
// checked that the whole stream fits the fabric at once, so on a healthy
// fabric each job starts as it arrives; a job that faults squeeze out waits.
func admitAll(ctx *SchedContext) []int {
	var picks []int
	free := ctx.Free.Free()
	for i, q := range ctx.Queue {
		if q.Spec.NP <= free {
			picks = append(picks, i)
			free -= q.Spec.NP
		}
	}
	return picks
}

// cluster is the state of one RunChurn invocation: the terminal free-list,
// which also records the job holding each terminal; the replay session; the
// arrival stream and waiting queue; one event heap each for releases and
// retries; and one record per job.
type cluster struct {
	cfg      ChurnConfig
	ctx      context.Context
	fabric   topology.Fabric
	predName string
	preps    []churnPrep
	prepOf   map[JobSpec]int // index into preps
	free     *FreeList
	session  *replay.Churn

	jobs     []jobRec    // by arrival ID
	pending  []QueuedJob // arrivals in (time, index) order
	next     int         // first pending arrival not yet queued
	queue    []QueuedJob // waiting jobs in queue order
	releases eventHeap   // the end of every running attempt
	retries  eventHeap   // requeues of fault-killed jobs

	// Fault plumbing: the live fault set feeds the session's fault-aware
	// routing, and swTerms maps a switch to the terminals it strands.
	faultSet    *topology.FaultSet
	swTerms     map[int32][]int
	faultEvents int
	capSteps    []capStep // capacity timeline

	// The accounting and terminals of every attempt a fault cut short:
	// killed attempts did run on the fabric, so their energy stays in the
	// fabric summary, apart from each job's completed attempt.
	killedAccts []*replay.Result
	killedTerms [][]int
	retried     int
	goodputTS   float64 // terminal-seconds of completed work
	wastedTS    float64 // terminal-seconds of killed work

	tele                     *stats.TimeSeries
	sidQueue, sidOcc, sidCap stats.SeriesID
}

// jobRec is one job's record: the ChurnJob the result reports, written in
// place as its attempts start, die and finish, plus the engine's
// bookkeeping of the current attempt.
type jobRec struct {
	ChurnJob
	attempt  int            // admission generation: a kill bumps it, invalidating the pending release
	running  []int          // the free-list's pooled terminal slice while an attempt runs, nil when idle
	acct     *replay.Result // the latest attempt's accounting; nil once a fault kills it
	admitted bool           // some attempt was admitted
}

// capStep is one point of the capacity-over-time step function: from at on,
// down terminals are failed.
type capStep struct {
	at   time.Duration
	down int
}

// event is one timed entry of an eventHeap for job id: the end of its
// attempt numbered attempt, or its requeue after a kill.
type event struct {
	at      time.Duration
	id      int
	attempt int
}

// eventHeap orders events by time and breaks ties by job ID, so event
// processing stays deterministic.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old) - 1; x := old[n]; *h = old[:n]; return x }

// churnPrep is the once-per-distinct-(app, NP) preparation every admission
// of that shape reuses: the trace source, its grouping threshold, and the
// dedicated-fabric baseline. Each admission — including a fault retry —
// opens fresh cursors on src, so the source is shared but never consumed.
type churnPrep struct {
	src trace.Source
	gt  time.Duration
	ded *replay.Result
}

// newCluster prepares a validated scenario for its first instant.
func newCluster(cfg ChurnConfig, fabric topology.Fabric) (*cluster, error) {
	if cfg.Scheduler == "" {
		cfg.Scheduler = "(custom)"
	}
	c := &cluster{
		cfg:      cfg,
		ctx:      cfg.Ctx,
		fabric:   fabric,
		predName: predictor.Resolve(cfg.Replay.Power.PredictorName),
		prepOf:   make(map[JobSpec]int),
	}
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	// Prepare every distinct (app, NP) pair once, on the worker pool, the
	// largest NP first: trace, grouping threshold, dedicated baseline. preps
	// stays in first-appearance order.
	// Telemetry records the scenario's shared timeline only. The dedicated
	// baselines below never record: RunDedicated, which builds both the
	// default baseline and the harness's cached one (Runner.dedicated),
	// clears Replay.Telemetry.
	var specs []JobSpec
	for _, a := range cfg.Arrivals {
		if _, ok := c.prepOf[a.Job]; !ok {
			c.prepOf[a.Job] = len(specs)
			specs = append(specs, a.Job)
		}
	}
	workers := sweep.Workers(cfg.Replay.Parallelism, len(specs))
	var err error
	c.preps, err = sweep.MapLargestFirst(c.ctx, workers, specs,
		func(js JobSpec) int { return js.NP },
		func(_ context.Context, _ int, js JobSpec) (churnPrep, error) {
			src, err := cfg.generate(js)
			if err != nil {
				return churnPrep{}, err
			}
			gt, err := cfg.selectGT(src)
			if err != nil {
				return churnPrep{}, err
			}
			ded, err := cfg.runDedicated(src, gt)
			if err != nil {
				return churnPrep{}, err
			}
			return churnPrep{src: src, gt: gt, ded: ded}, nil
		})
	if err != nil {
		return nil, err
	}

	order, err := Ordering(cfg.Placement, fabric, cfg.Opt.Seed)
	if err != nil {
		return nil, err
	}
	if c.free, err = NewFreeList(fabric, order); err != nil {
		return nil, err
	}
	if c.session, err = replay.NewChurn(cfg.Replay); err != nil {
		return nil, err
	}
	// Scenario-level telemetry rides on the session's recorder (same bucket
	// timeline as the replay engine's power/utilization series). Recording
	// happens once per event instant, inside the serial loop, so the series
	// are bit-identical at any Replay.Parallelism.
	if c.tele = c.session.Telemetry(); c.tele != nil {
		c.sidQueue = c.tele.AddSeries("queue.depth", "jobs")
		c.sidOcc = c.tele.AddSeries("fabric.occupied", "terminals")
		c.sidCap = c.tele.AddSeries("capacity.up", "%")
	}

	c.jobs = make([]jobRec, len(cfg.Arrivals))
	c.pending = make([]QueuedJob, len(cfg.Arrivals))
	for i, a := range cfg.Arrivals {
		c.jobs[i].ID, c.jobs[i].Arrival = i, a.At
		c.pending[i] = QueuedJob{ID: i, Spec: a.Job, Arrival: a.At}
	}
	sort.SliceStable(c.pending, func(i, j int) bool { return c.pending[i].Arrival < c.pending[j].Arrival })

	if cfg.Faults != nil {
		c.faultSet = topology.NewFaultSet(fabric)
		if err := c.session.SetFaults(c.faultSet); err != nil {
			return nil, fmt.Errorf("multijob: %w", err)
		}
		c.swTerms = make(map[int32][]int)
		for t := 0; t < fabric.NumTerminals(); t++ {
			sw := topology.HostSwitch(fabric, t)
			c.swTerms[sw] = append(c.swTerms[sw], t)
		}
		c.capSteps = []capStep{{at: 0, down: 0}}
	}
	return c, nil
}

// nextInstant returns the earliest time any event stream — arrivals,
// releases, retries, faults — has something due. Fault events only count
// while work remains or a repair may yet unstick the queue; ok is false once
// nothing can change the cluster any more.
func (c *cluster) nextInstant() (now time.Duration, ok bool) {
	hasWork := c.next < len(c.pending) || len(c.releases) > 0 || len(c.retries) > 0
	if !hasWork && len(c.queue) == 0 {
		return 0, false
	}
	now = math.MaxInt64
	if c.next < len(c.pending) {
		now, ok = min(now, c.pending[c.next].Arrival), true
	}
	if len(c.releases) > 0 {
		now, ok = min(now, c.releases[0].at), true
	}
	if len(c.retries) > 0 {
		now, ok = min(now, c.retries[0].at), true
	}
	if c.cfg.Faults != nil {
		if ev, more := c.cfg.Faults.Peek(); more && (hasWork || c.cfg.Faults.RepairPending()) {
			now, ok = min(now, ev.At), true
		}
	}
	return now, ok
}

// step runs one event instant, phase by phase.
func (c *cluster) step(now time.Duration) error {
	c.release(now)
	if err := c.fault(now); err != nil {
		return err
	}
	c.retry(now)
	c.arrive(now)
	if err := c.schedule(now); err != nil {
		return err
	}
	c.endInstant(now)
	return nil
}

// release frees the terminals of every attempt ending by now. It runs
// first, so a job finishing at the very instant its hardware dies counts as
// completed. Entries of attempts a fault killed are skipped.
func (c *cluster) release(now time.Duration) {
	for len(c.releases) > 0 && c.releases[0].at <= now {
		ev := heap.Pop(&c.releases).(event)
		j := &c.jobs[ev.id]
		if ev.attempt != j.attempt {
			continue
		}
		c.free.Release(j.running)
		j.running = nil
		c.goodputTS += j.Exec.Seconds() * float64(j.NP)
	}
}

// fault fires every fault event due by now, killing the occupants of downed
// terminals, and extends the capacity timeline.
func (c *cluster) fault(now time.Duration) error {
	if c.cfg.Faults == nil {
		return nil
	}
	for {
		ev, ok := c.cfg.Faults.Peek()
		if !ok || ev.At > now {
			break
		}
		c.cfg.Faults.Pop()
		if c.faultEvents++; c.faultEvents > maxChurnFaultEvents {
			return fmt.Errorf("multijob: fault source exceeded %d events", maxChurnFaultEvents)
		}
		c.applyFault(ev, now)
	}
	if d := c.free.Down(); c.capSteps[len(c.capSteps)-1].down != d {
		c.capSteps = append(c.capSteps, capStep{at: now, down: d})
	}
	return nil
}

// applyFault mutates the fault set and free-list for one event, killing the
// occupants of any terminal the event downs.
func (c *cluster) applyFault(ev FaultEvent, now time.Duration) {
	switch ev.Kind {
	case FaultLink:
		if ev.Repair {
			c.faultSet.RepairLink(topology.LinkID(ev.Index))
		} else {
			c.faultSet.FailLink(topology.LinkID(ev.Index))
		}
	case FaultSwitch:
		if ev.Repair {
			c.faultSet.RepairNode(ev.Index)
			for _, t := range c.swTerms[ev.Index] {
				c.free.Repair(t)
			}
		} else {
			c.faultSet.FailNode(ev.Index)
			for _, t := range c.swTerms[ev.Index] {
				c.free.Fail(t)
				c.kill(t, now)
			}
		}
	case FaultTerminal:
		t := int(ev.Index)
		host := c.fabric.HostLinkID(t)
		if ev.Repair {
			c.faultSet.RepairLink(host)
			c.free.Repair(t)
		} else {
			c.faultSet.FailLink(host)
			c.free.Fail(t)
			c.kill(t, now)
		}
	}
}

// kill terminates the job holding terminal t, if any: its terminals are
// released on the session and the free-list, its partial work is charged as
// wasted, and it is requeued after backoff or abandoned. An abandoned job's
// Finish stays at this kill, so the makespan never extends past real
// activity.
func (c *cluster) kill(t int, now time.Duration) {
	id := c.free.owner[t]
	if id < 0 {
		return
	}
	j := &c.jobs[id]
	terms := j.running
	c.session.ReleaseTerminals(now, terms)
	c.killedAccts = append(c.killedAccts, j.acct)
	c.killedTerms = append(c.killedTerms, j.Terminals)
	c.free.Release(terms)
	lost := now - j.Start
	c.wastedTS += lost.Seconds() * float64(len(terms))
	j.running, j.acct = nil, nil
	j.attempt++
	j.Kills++
	j.Wasted += lost
	j.Finish = now
	if j.Kills <= c.cfg.Retry.MaxRetries {
		heap.Push(&c.retries, event{at: now + c.cfg.Retry.Delay(j.Kills), id: int(id)})
	} else {
		j.Abandoned = true
	}
}

// retry requeues the fault-killed jobs whose backoff has run out, ahead of
// same-instant fresh arrivals.
func (c *cluster) retry(now time.Duration) {
	for len(c.retries) > 0 && c.retries[0].at <= now {
		ev := heap.Pop(&c.retries).(event)
		a := c.cfg.Arrivals[ev.id]
		c.queue = append(c.queue, QueuedJob{ID: ev.id, Spec: a.Job, Arrival: a.At})
		c.retried++
	}
}

// arrive queues the fresh arrivals due by now.
func (c *cluster) arrive(now time.Duration) {
	for c.next < len(c.pending) && c.pending[c.next].Arrival <= now {
		c.queue = append(c.queue, c.pending[c.next])
		c.next++
	}
}

// schedule lets the scheduler pick from the queue until it stops, admitting
// each batch of picks on the session at now.
func (c *cluster) schedule(now time.Duration) error {
	for len(c.queue) > 0 {
		picks := c.cfg.Schedule(&SchedContext{Now: now, Queue: c.queue, Free: c.free, Fabric: c.fabric, Down: c.free.Down()})
		if len(picks) == 0 {
			return nil
		}
		picked := make(map[int]bool, len(picks))
		batch := make([]replay.Job, len(picks))
		pws := make([]replay.PowerConfig, len(picks))
		for k, qi := range picks {
			if qi < 0 || qi >= len(c.queue) || picked[qi] {
				return fmt.Errorf("multijob: scheduler %s picked invalid queue index %d", c.cfg.Scheduler, qi)
			}
			picked[qi] = true
			q := c.queue[qi]
			ts := c.free.allocTo(q.Spec.NP, int32(q.ID))
			if ts == nil {
				return fmt.Errorf("multijob: scheduler %s admitted %s with only %d terminals free",
					c.cfg.Scheduler, q.Spec, c.free.Free())
			}
			c.jobs[q.ID].running = ts
			p := c.preps[c.prepOf[q.Spec]]
			pws[k] = JobPower(c.cfg.Replay, p.gt, c.cfg.Displacement)
			batch[k] = replay.Job{Source: p.src, Terminals: ts, Power: &pws[k]}
		}
		results, err := c.session.AdmitAt(now, batch...)
		if err != nil {
			return err
		}
		for k, res := range results {
			c.start(c.queue[picks[k]].ID, now, res)
		}
		// Drop admitted jobs from the queue, preserving order.
		kept := c.queue[:0]
		for qi, q := range c.queue {
			if !picked[qi] {
				kept = append(kept, q)
			}
		}
		c.queue = kept
	}
	return nil
}

// start records job id's attempt admitted at now and schedules its release.
// Kills and Wasted carry over from earlier attempts.
func (c *cluster) start(id int, now time.Duration, res *replay.Result) {
	j := &c.jobs[id]
	a := c.cfg.Arrivals[id]
	p := c.preps[c.prepOf[a.Job]]
	j.acct, j.admitted = res, true
	j.Terminals = append([]int(nil), j.running...)
	j.JobStats = jobStats(c.fabric, a.Job.App, c.predName, p.gt, p.ded.ExecTime, res, j.Terminals)
	j.Start, j.Wait, j.Finish = now, now-a.At, now+res.ExecTime
	heap.Push(&c.releases, event{at: j.Finish, id: id, attempt: j.attempt})
}

// endInstant closes an instant after the scheduler has settled: it samples
// the waiting queue depth, the occupied terminals, and the fabric capacity
// faults have left up.
func (c *cluster) endInstant(now time.Duration) {
	if c.tele == nil {
		return
	}
	nt := c.free.NumTerminals()
	c.tele.Record(c.sidQueue, now, float64(len(c.queue)))
	c.tele.Record(c.sidOcc, now, float64(nt-c.free.Free()-c.free.Down()))
	c.tele.Record(c.sidCap, now, 100*float64(nt-c.free.Down())/float64(nt))
}

// result assembles the scenario summary once no event can change the
// cluster any more. Jobs still waiting then are a broken scheduler contract
// on a healthy fabric; under faults, degraded capacity can legitimately
// strand them (e.g. NP larger than the surviving fabric), so they are
// reported abandoned, never dropped.
func (c *cluster) result() (*ChurnResult, error) {
	if len(c.queue) > 0 && c.cfg.Faults == nil {
		q := c.queue[0]
		return nil, fmt.Errorf("multijob: scheduler %s left %d jobs waiting on an idle fabric (first: %s, arrived %v)",
			c.cfg.Scheduler, len(c.queue), q.Spec, q.Arrival)
	}
	for _, q := range c.queue {
		j := &c.jobs[q.ID]
		j.Abandoned = true
		if !j.admitted {
			j.JobStats = JobStats{App: q.Spec.App, NP: q.Spec.NP, Predictor: c.predName}
		}
	}
	res := &ChurnResult{
		Scheduler:         c.cfg.Scheduler,
		Placement:         placements.Resolve(c.cfg.Placement),
		Jobs:              make([]ChurnJob, len(c.jobs)),
		FaultsActive:      c.cfg.Faults != nil,
		Killed:            len(c.killedAccts),
		Retried:           c.retried,
		WastedTermSeconds: c.wastedTS,
		Unroutable:        c.session.Unroutable(),
	}
	if res.FaultsActive {
		res.GoodputPct = 100
		if c.goodputTS+c.wastedTS > 0 {
			res.GoodputPct = 100 * c.goodputTS / (c.goodputTS + c.wastedTS)
		}
	}
	// The fabric summary takes each job's completed attempt in job order,
	// then the killed attempts in kill order: a terminal occupied by several
	// attempts over the scenario contributes each one's own accounting.
	var makespan time.Duration
	waits := make([]float64, len(c.jobs))
	accts := make([]*replay.Result, 0, len(c.jobs)+len(c.killedAccts))
	terms := make([][]int, 0, len(c.jobs)+len(c.killedAccts))
	for i := range c.jobs {
		j := &c.jobs[i]
		res.Jobs[i] = j.ChurnJob
		if j.Abandoned {
			res.Abandoned++
		}
		makespan = max(makespan, j.Finish)
		waits[i] = j.Wait.Seconds()
		res.WaitMax = max(res.WaitMax, j.Wait)
		if j.acct != nil {
			accts = append(accts, j.acct)
			terms = append(terms, j.Terminals)
		}
	}
	accts = append(accts, c.killedAccts...)
	terms = append(terms, c.killedTerms...)
	res.WaitMean = time.Duration(stats.Mean(waits) * float64(time.Second))
	res.WaitP50 = time.Duration(stats.Percentile(waits, 50) * float64(time.Second))
	res.WaitP95 = time.Duration(stats.Percentile(waits, 95) * float64(time.Second))

	m := c.session.Stats()
	m.MakeSpan = makespan
	m.Jobs = accts
	res.Fabric = fabricStats(c.fabric, m, terms)
	nt := c.fabric.NumTerminals()
	res.Util = utilization(res.Jobs, nt, makespan)
	if res.FaultsActive {
		res.Capacity = capacityProfile(c.capSteps, nt, makespan)
	}
	res.Series = m.Series
	return res, nil
}

// capacityProfile integrates the up-terminal step function over UtilBuckets
// equal slices of the makespan, returning the mean percentage of terminals
// up in each.
func capacityProfile(steps []capStep, nt int, makespan time.Duration) []float64 {
	span := makespan.Seconds()
	return integrateBuckets(nt, makespan, len(steps), func(i int) (s0, s1, down float64) {
		s1 = span
		if i+1 < len(steps) {
			s1 = steps[i+1].at.Seconds()
		}
		return steps[i].at.Seconds(), s1, float64(steps[i].down)
	}, func(downSec, termSec float64) float64 {
		return 100 * (1 - downSec/termSec)
	})
}

// utilization integrates the terminal-occupancy step function over
// UtilBuckets equal slices of the makespan, returning mean busy percentages.
func utilization(jobs []ChurnJob, nt int, makespan time.Duration) []float64 {
	return integrateBuckets(nt, makespan, len(jobs), func(i int) (s, f, np float64) {
		return jobs[i].Start.Seconds(), jobs[i].Finish.Seconds(), float64(jobs[i].NP)
	}, func(occSec, termSec float64) float64 {
		return 100 * occSec / termSec
	})
}

// integrateBuckets integrates n weighted intervals over UtilBuckets equal
// slices of the makespan: piece(i) holds weight w (a terminal count) over
// [s, f) seconds. Each slice sums, in index order, every piece's weight
// times its overlap with the slice, and reports final(sum, termSec), where
// termSec is the slice's length times nt.
func integrateBuckets(nt int, makespan time.Duration, n int,
	piece func(i int) (s, f, w float64), final func(sum, termSec float64) float64) []float64 {
	if makespan <= 0 || nt == 0 {
		return nil
	}
	out := make([]float64, UtilBuckets)
	span := makespan.Seconds()
	for b := range out {
		t0 := span * float64(b) / UtilBuckets
		t1 := span * float64(b+1) / UtilBuckets
		sum := 0.0
		for i := 0; i < n; i++ {
			s, f, w := piece(i)
			if s, f = max(s, t0), min(f, t1); f > s {
				sum += (f - s) * w
			}
		}
		out[b] = final(sum, (t1-t0)*float64(nt))
	}
	return out
}

// WriteChurn renders a churn scenario outcome: one row per job in arrival
// order, then the queue-wait distribution, utilization profile, and fabric
// summary. The layout is fully determined by the result, so output is
// bit-identical whenever the simulation is.
func WriteChurn(w io.Writer, r *ChurnResult) error {
	fmt.Fprintf(w, "%d jobs churned through fabric %s, scheduler %s, placement %s\n",
		len(r.Jobs), r.Fabric.Fabric, r.Scheduler, r.Placement)
	var t *stats.Table
	if r.FaultsActive {
		t = stats.NewTable("id", "job", "predictor", "arrival", "wait", "exec",
			"dedicated", "sharing dT[%]", "saving[%]", "hit[%]", "switches", "kills", "state")
	} else {
		t = stats.NewTable("id", "job", "predictor", "arrival", "wait", "exec",
			"dedicated", "sharing dT[%]", "saving[%]", "hit[%]", "switches")
	}
	for _, j := range r.Jobs {
		cells := []any{j.ID, fmt.Sprintf("%s:%d", j.App, j.NP), j.Predictor,
			j.Arrival.Round(time.Millisecond), j.Wait.Round(time.Millisecond),
			j.Exec.Round(time.Microsecond), j.Dedicated.Round(time.Microsecond),
			j.SharingOverheadPct, j.SavingPct, j.HitRatePct, j.Switches}
		if r.FaultsActive {
			state := "done"
			switch {
			case j.Abandoned:
				state = "abandoned"
			case j.Kills > 0:
				state = "retried"
			}
			cells = append(cells, j.Kills, state)
		}
		t.Row(cells...)
	}
	if err := t.Write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nqueue wait: mean %v, p50 %v, p95 %v, max %v\n",
		r.WaitMean.Round(time.Millisecond), r.WaitP50.Round(time.Millisecond),
		r.WaitP95.Round(time.Millisecond), r.WaitMax.Round(time.Millisecond))
	fmt.Fprintf(w, "terminal occupancy over makespan:")
	for _, u := range r.Util {
		fmt.Fprintf(w, " %.1f%%", u)
	}
	fmt.Fprintln(w)
	f := r.Fabric
	fmt.Fprintf(w, "fabric: makespan %v, %d transfers, %d bytes, %d links used (mean util %.2f%%, max %.2f%%), fabric saving %.2f%%\n",
		f.MakeSpan.Round(time.Microsecond), f.Transfers, f.BytesMoved,
		f.LinksUsed, f.MeanUtilPct, f.MaxUtilPct, f.SavingPct)
	if r.FaultsActive {
		fmt.Fprintf(w, "resilience: %d kills, %d retries, %d abandoned, goodput %.2f%%, wasted %.3f term-s, %d unroutable transfers\n",
			r.Killed, r.Retried, r.Abandoned, r.GoodputPct, r.WastedTermSeconds, r.Unroutable)
		fmt.Fprintf(w, "capacity over makespan:")
		for _, c := range r.Capacity {
			fmt.Fprintf(w, " %.1f%%", c)
		}
		fmt.Fprintln(w)
	}
	return nil
}
