package multijob

import (
	"container/heap"
	"context"
	"fmt"
	"io"
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

// ChurnConfig parameterises an event-driven churn scenario.
type ChurnConfig struct {
	// Arrivals is the job stream; RunChurn processes it in time order
	// (equal-time arrivals keep their slice order).
	Arrivals []Arrival
	// Schedule picks jobs off the queue at each event; the scenario
	// package's registry provides fcfs, backfill, and power-aware.
	Schedule SchedFunc
	// Scheduler names the policy in results.
	Scheduler string
	// Placement orders the terminal free-list (see Config.Placement).
	Placement string
	// Opt, Displacement, Replay, SelectGT, Generate, Dedicated: exactly as
	// on Config.
	Opt          workloads.Options
	Displacement float64
	Replay       replay.Config
	SelectGT     func(src trace.Source) (time.Duration, error)
	Generate     func(app string, np int) (trace.Source, error)
	Dedicated    func(src trace.Source, gt time.Duration, displacement float64) (*replay.Result, error)

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

// release orders job completions; the heap breaks finish-time ties by
// arrival ID so event processing stays deterministic. attempt snapshots the
// job's attempt counter at admission: a fault kill bumps the counter, lazily
// invalidating the stale entry instead of deleting it from the heap.
type release struct {
	finish  time.Duration
	id      int
	attempt int
	terms   []int
}

type releaseHeap []release

func (h releaseHeap) Len() int { return len(h) }
func (h releaseHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].id < h[j].id
}
func (h releaseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)   { *h = append(*h, x.(release)) }
func (h *releaseHeap) Pop() any     { old := *h; n := len(old) - 1; x := old[n]; *h = old[:n]; return x }

// retry orders requeues of fault-killed jobs; ties break by arrival ID.
type retry struct {
	at time.Duration
	id int
}

type retryHeap []retry

func (h retryHeap) Len() int { return len(h) }
func (h retryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h retryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)   { *h = append(*h, x.(retry)) }
func (h *retryHeap) Pop() any     { old := *h; n := len(old) - 1; x := old[n]; *h = old[:n]; return x }

// maxChurnFaultEvents bounds how many fault events one scenario will
// process — a backstop against a custom FaultSource that never dries up.
const maxChurnFaultEvents = 1 << 20

// RunChurn simulates the configured arrival stream on one shared fabric:
// jobs queue on arrival, a scheduler admits them when terminals suffice, the
// incremental replay session (replay.Churn) runs each admission batch to
// completion on the live timeline, and completions free terminals for the
// jobs still waiting.
//
// Determinism contract: arrivals are processed in (time, index) order,
// releases before arrivals at equal instants, and the scheduler is invoked
// once per state change until it stops picking. The event loop itself is
// serial; Replay.Parallelism only spreads the preparation of distinct
// (app, NP) pairs — trace generation, GT choice, dedicated baseline — over
// the worker pool in first-appearance order. Results are therefore
// bit-identical at any parallelism for a given config.
//
// Fidelity note: the underlying session resolves contention in admission
// order — a job observes the link occupancy of every earlier-admitted job,
// while running jobs are never slowed retroactively by later arrivals (see
// replay.Churn).
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	if len(cfg.Arrivals) == 0 {
		return nil, fmt.Errorf("multijob: no arrivals configured")
	}
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("multijob: no scheduler configured")
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

	// Prepare every distinct (app, NP) pair once, on the worker pool in
	// first-appearance order: trace, grouping threshold, dedicated baseline.
	// Telemetry records the scenario's shared timeline only. The dedicated
	// baselines below never record: runDedicated clears Replay.Telemetry
	// itself, and the harness's Dedicated hook (Runner.dedicated) does the
	// same for its cached runs.
	var specs []JobSpec
	index := make(map[JobSpec]int)
	for _, a := range cfg.Arrivals {
		if _, ok := index[a.Job]; !ok {
			index[a.Job] = len(specs)
			specs = append(specs, a.Job)
		}
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := sweep.Workers(cfg.Replay.Parallelism, len(specs))
	preps, err := sweep.Map(ctx, workers, specs,
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
	free, err := NewFreeList(fabric, order)
	if err != nil {
		return nil, err
	}
	session, err := replay.NewChurn(cfg.Replay)
	if err != nil {
		return nil, err
	}
	// Scenario-level telemetry rides on the session's recorder (same bucket
	// timeline as the replay engine's power/utilization series). Recording
	// happens once per event instant, inside the serial loop, so the series
	// are bit-identical at any Replay.Parallelism.
	tele := session.Telemetry()
	var sidQueue, sidOcc, sidCap stats.SeriesID
	if tele != nil {
		sidQueue = tele.AddSeries("queue.depth", "jobs")
		sidOcc = tele.AddSeries("fabric.occupied", "terminals")
		sidCap = tele.AddSeries("capacity.up", "%")
	}

	// Pending arrivals in (time, index) order; index ties keep input order.
	pending := make([]QueuedJob, len(cfg.Arrivals))
	for i, a := range cfg.Arrivals {
		pending[i] = QueuedJob{ID: i, Spec: a.Job, Arrival: a.At}
	}
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })

	schedName := cfg.Scheduler
	if schedName == "" {
		schedName = "(custom)"
	}
	predName := predictorName(cfg.Replay.Power.PredictorName)
	jobs := make([]ChurnJob, len(cfg.Arrivals))
	jobTerms := make([][]int, len(cfg.Arrivals))
	jobAccts := make([]*replay.Result, len(cfg.Arrivals))
	var (
		queue []QueuedJob
		rel   releaseHeap
		rq    retryHeap
		pi    int
	)

	// Fault plumbing: the live fault set feeds the session's fault-aware
	// routing, swTerms maps a switch to the terminals it strands, and the
	// per-job attempt counters implement lazy release invalidation.
	st := churnState{
		attempt:  make([]int, len(cfg.Arrivals)),
		kills:    make([]int, len(cfg.Arrivals)),
		wasted:   make([]time.Duration, len(cfg.Arrivals)),
		lastKill: make([]time.Duration, len(cfg.Arrivals)),
		gaveUp:   make([]bool, len(cfg.Arrivals)),
		runTerms: make([][]int, len(cfg.Arrivals)),
		started:  make([]time.Duration, len(cfg.Arrivals)),
		runJob:   make([]int, nt),
	}
	for i := range st.runJob {
		st.runJob[i] = -1
	}
	st.jobAccts, st.jobTerms = jobAccts, jobTerms
	var fs *topology.FaultSet
	var swTerms map[int32][]int
	if cfg.Faults != nil {
		fs = topology.NewFaultSet(fabric)
		if err := session.SetFaults(fs); err != nil {
			return nil, fmt.Errorf("multijob: %w", err)
		}
		swTerms = make(map[int32][]int)
		for t := 0; t < nt; t++ {
			sw := topology.HostSwitch(fabric, t)
			swTerms[sw] = append(swTerms[sw], t)
		}
		st.capSteps = append(st.capSteps, capStep{at: 0, down: 0})
	}

	faultEvents := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Find the next event instant across the four streams. Fault events
		// only matter while work remains: once the queue, arrival stream,
		// release heap, and retry heap are all empty the scenario is over,
		// whatever the fault stream still holds.
		hasWork := pi < len(pending) || rel.Len() > 0 || rq.Len() > 0
		if !hasWork && len(queue) == 0 {
			break
		}
		now, haveNow := time.Duration(0), false
		consider := func(t time.Duration) {
			if !haveNow || t < now {
				now, haveNow = t, true
			}
		}
		if pi < len(pending) {
			consider(pending[pi].Arrival)
		}
		if rel.Len() > 0 {
			consider(rel[0].finish)
		}
		if rq.Len() > 0 {
			consider(rq[0].at)
		}
		if cfg.Faults != nil {
			if ev, ok := cfg.Faults.Peek(); ok && (hasWork || cfg.Faults.RepairPending()) {
				consider(ev.At)
			}
		}
		if !haveNow {
			// Jobs are waiting but no event can ever free capacity again.
			break
		}

		// 1. Completions free terminals first: a job finishing at the very
		// instant its hardware dies counts as completed. Stale entries
		// (their job was fault-killed mid-run) are skipped.
		for rel.Len() > 0 && rel[0].finish <= now {
			r := heap.Pop(&rel).(release)
			if r.attempt != st.attempt[r.id] {
				continue
			}
			for _, t := range r.terms {
				st.runJob[t] = -1
			}
			free.Release(r.terms)
			st.runTerms[r.id] = nil
			st.goodputTS += jobs[r.id].Exec.Seconds() * float64(jobs[r.id].NP)
		}
		// 2. Fault events fire, killing occupants of downed terminals and
		// requeueing them under the retry policy.
		if cfg.Faults != nil {
			for {
				ev, ok := cfg.Faults.Peek()
				if !ok || ev.At > now {
					break
				}
				cfg.Faults.Pop()
				faultEvents++
				if faultEvents > maxChurnFaultEvents {
					return nil, fmt.Errorf("multijob: fault source exceeded %d events", maxChurnFaultEvents)
				}
				st.applyFault(ev, now, fs, free, session, fabric, swTerms, cfg.Retry, &rq)
			}
			if d := free.Down(); len(st.capSteps) > 0 && st.capSteps[len(st.capSteps)-1].down != d {
				st.capSteps = append(st.capSteps, capStep{at: now, down: d})
			}
		}
		// 3. Due retries rejoin the queue before same-instant fresh arrivals.
		for rq.Len() > 0 && rq[0].at <= now {
			r := heap.Pop(&rq).(retry)
			queue = append(queue, QueuedJob{ID: r.id, Spec: cfg.Arrivals[r.id].Job, Arrival: cfg.Arrivals[r.id].At})
			st.retried++
		}
		// 4. Fresh arrivals join the queue.
		for pi < len(pending) && pending[pi].Arrival <= now {
			queue = append(queue, pending[pi])
			pi++
		}
		// 5. Let the scheduler pick until it stops.
		for len(queue) > 0 {
			picks := cfg.Schedule(&SchedContext{Now: now, Queue: queue, Free: free, Fabric: fabric, Down: free.Down()})
			if len(picks) == 0 {
				break
			}
			picked := make(map[int]bool, len(picks))
			batch := make([]replay.Job, 0, len(picks))
			pws := make([]replay.PowerConfig, len(picks))
			ids := make([]int, 0, len(picks))
			terms := make([][]int, 0, len(picks))
			for k, qi := range picks {
				if qi < 0 || qi >= len(queue) || picked[qi] {
					return nil, fmt.Errorf("multijob: scheduler %s picked invalid queue index %d", schedName, qi)
				}
				picked[qi] = true
				q := queue[qi]
				ts := free.Alloc(q.Spec.NP)
				if ts == nil {
					return nil, fmt.Errorf("multijob: scheduler %s admitted %s with only %d terminals free",
						schedName, q.Spec, free.Free())
				}
				p := preps[index[q.Spec]]
				pws[k] = JobPower(cfg.Replay, p.gt, cfg.Displacement)
				batch = append(batch, replay.Job{Source: p.src, Terminals: ts, Power: &pws[k]})
				ids = append(ids, q.ID)
				terms = append(terms, ts)
			}
			results, err := session.AdmitAt(now, batch...)
			if err != nil {
				return nil, err
			}
			for k, res := range results {
				id := ids[k]
				finish := now + res.ExecTime
				heap.Push(&rel, release{finish: finish, id: id, attempt: st.attempt[id], terms: terms[k]})
				st.runTerms[id] = terms[k]
				st.started[id] = now
				for _, t := range terms[k] {
					st.runJob[t] = id
				}
				jobTerms[id] = append([]int(nil), terms[k]...)
				jobAccts[id] = res
				a := cfg.Arrivals[id]
				p := preps[index[a.Job]]
				jobs[id] = ChurnJob{
					JobStats: jobStats(fabric, a.Job.App, predName, p.gt, p.ded.ExecTime, res, jobTerms[id]),
					ID:       id, Arrival: a.At, Start: now, Wait: now - a.At, Finish: finish,
					Terminals: jobTerms[id],
				}
			}
			// Drop admitted jobs from the queue, preserving order.
			kept := queue[:0]
			for qi, q := range queue {
				if !picked[qi] {
					kept = append(kept, q)
				}
			}
			queue = kept
		}
		// 6. Sample scenario state at the event instant, after the
		// scheduler settles: waiting queue depth, occupied terminals, and
		// the fabric capacity faults have left up.
		if tele != nil {
			tele.Record(sidQueue, now, float64(len(queue)))
			tele.Record(sidOcc, now, float64(nt-free.Free()-free.Down()))
			tele.Record(sidCap, now, 100*float64(nt-free.Down())/float64(nt))
		}
	}
	if len(queue) > 0 {
		if cfg.Faults == nil {
			q := queue[0]
			return nil, fmt.Errorf("multijob: scheduler %s left %d jobs waiting on an idle fabric (first: %s, arrived %v)",
				schedName, len(queue), q.Spec, q.Arrival)
		}
		// Degraded capacity can legitimately strand jobs (e.g. NP larger
		// than the surviving fabric). Report them abandoned, never drop.
		for _, q := range queue {
			st.gaveUp[q.ID] = true
			if jobs[q.ID].ID == 0 && jobs[q.ID].App == "" {
				jobs[q.ID] = ChurnJob{
					JobStats: JobStats{App: q.Spec.App, NP: q.Spec.NP, Predictor: predName},
					ID:       q.ID, Arrival: q.Arrival,
				}
			}
		}
	}

	return churnResult(cfg, fabric, schedName, jobs, jobTerms, jobAccts, session, &st)
}

// capStep is one point of the capacity-over-time step function: from at on,
// down terminals are failed.
type capStep struct {
	at   time.Duration
	down int
}

// churnState is the fault-handling bookkeeping of one RunChurn invocation.
type churnState struct {
	attempt  []int           // per job: admission generation, for lazy release invalidation
	kills    []int           // per job: attempts cut short
	wasted   []time.Duration // per job: wall time lost to kills
	lastKill []time.Duration // per job: instant of the latest kill
	gaveUp   []bool          // per job: abandoned
	runTerms [][]int         // per job: live pooled terminal slice while running
	started  []time.Duration // per job: admission time of the current attempt
	runJob   []int           // per terminal: occupant job ID or -1
	capSteps []capStep       // capacity timeline

	// jobAccts/jobTerms alias RunChurn's per-job record slices so a kill
	// can move the dead attempt's accounting aside: killed attempts did run
	// on the fabric, so their energy stays in the fabric summary, separate
	// from the completed attempt recorded under the job's ID.
	jobAccts    []*replay.Result
	jobTerms    [][]int
	killedAccts []*replay.Result
	killedTerms [][]int

	killed    int
	retried   int
	goodputTS float64 // terminal-seconds of completed work
	wastedTS  float64 // terminal-seconds of killed work
}

// applyFault mutates the fault set, free-list, and session for one event,
// killing the occupants of any terminal the event downs.
func (st *churnState) applyFault(ev FaultEvent, now time.Duration, fs *topology.FaultSet,
	free *FreeList, session *replay.Churn, fabric topology.Fabric,
	swTerms map[int32][]int, retryPol RetryPolicy, rq *retryHeap) {
	switch ev.Kind {
	case FaultLink:
		if ev.Repair {
			fs.RepairLink(topology.LinkID(ev.Index))
		} else {
			fs.FailLink(topology.LinkID(ev.Index))
		}
	case FaultSwitch:
		if ev.Repair {
			fs.RepairNode(ev.Index)
			for _, t := range swTerms[ev.Index] {
				free.Repair(t)
			}
		} else {
			fs.FailNode(ev.Index)
			for _, t := range swTerms[ev.Index] {
				free.Fail(t)
				st.kill(t, now, free, session, retryPol, rq)
			}
		}
	case FaultTerminal:
		t := int(ev.Index)
		host := fabric.HostLinkID(t)
		if ev.Repair {
			fs.RepairLink(host)
			free.Repair(t)
		} else {
			fs.FailLink(host)
			free.Fail(t)
			st.kill(t, now, free, session, retryPol, rq)
		}
	}
}

// kill terminates the job occupying terminal t (if any): its terminals are
// released on the free-list and the session, its partial work is charged as
// wasted, and it is requeued after backoff or abandoned.
func (st *churnState) kill(t int, now time.Duration, free *FreeList,
	session *replay.Churn, retryPol RetryPolicy, rq *retryHeap) {
	id := st.runJob[t]
	if id < 0 {
		return
	}
	terms := st.runTerms[id]
	for _, tt := range terms {
		st.runJob[tt] = -1
	}
	session.ReleaseTerminals(now, terms)
	np := len(terms)
	if st.jobAccts[id] != nil {
		st.killedAccts = append(st.killedAccts, st.jobAccts[id])
		st.killedTerms = append(st.killedTerms, st.jobTerms[id])
		st.jobAccts[id] = nil
	}
	free.Release(terms)
	st.runTerms[id] = nil
	st.attempt[id]++
	st.kills[id]++
	st.killed++
	st.lastKill[id] = now
	lost := now - st.started[id]
	st.wasted[id] += lost
	st.wastedTS += lost.Seconds() * float64(np)
	if st.kills[id] <= retryPol.MaxRetries {
		heap.Push(rq, retry{at: now + retryPol.Delay(st.kills[id]), id: id})
	} else {
		st.gaveUp[id] = true
	}
}

// churnPrep is the once-per-distinct-(app, NP) preparation every admission
// of that shape reuses: the trace source, its grouping threshold, and the
// dedicated-fabric baseline. Each admission — including a fault retry —
// opens fresh cursors on src, so the source is shared but never consumed.
type churnPrep struct {
	src trace.Source
	gt  time.Duration
	ded *replay.Result
}

// churnResult assembles the scenario-wide summary from the per-job records.
func churnResult(cfg ChurnConfig, fabric topology.Fabric, schedName string,
	jobs []ChurnJob, jobTerms [][]int, jobAccts []*replay.Result, session *replay.Churn,
	st *churnState) (*ChurnResult, error) {
	res := &ChurnResult{
		Scheduler:    schedName,
		Placement:    placementName(cfg.Placement),
		Jobs:         jobs,
		FaultsActive: cfg.Faults != nil,
	}
	// Fold the fault bookkeeping into the per-job records: kill counts,
	// wasted time, and abandonment (an abandoned job's Finish is the kill
	// that ended it, so the makespan never extends past real activity).
	for i := range jobs {
		jobs[i].Kills = st.kills[i]
		jobs[i].Wasted = st.wasted[i]
		jobs[i].Abandoned = st.gaveUp[i]
		if st.gaveUp[i] {
			jobs[i].Finish = st.lastKill[i]
			res.Abandoned++
		}
	}
	res.Killed = st.killed
	res.Retried = st.retried
	res.WastedTermSeconds = st.wastedTS
	res.Unroutable = session.Unroutable()
	if res.FaultsActive {
		if st.goodputTS+st.wastedTS > 0 {
			res.GoodputPct = 100 * st.goodputTS / (st.goodputTS + st.wastedTS)
		} else {
			res.GoodputPct = 100
		}
	}
	var makespan time.Duration
	waits := make([]float64, len(jobs))
	for i, j := range jobs {
		if j.Finish > makespan {
			makespan = j.Finish
		}
		waits[i] = j.Wait.Seconds()
		if j.Wait > res.WaitMax {
			res.WaitMax = j.Wait
		}
	}
	res.WaitMean = time.Duration(stats.Mean(waits) * float64(time.Second))
	res.WaitP50 = time.Duration(stats.Percentile(waits, 50) * float64(time.Second))
	res.WaitP95 = time.Duration(stats.Percentile(waits, 95) * float64(time.Second))

	// Fabric summary from the session's fabric-wide counters and every job's
	// accounting, grouped by first-hop switch. A terminal occupied by several jobs over the
	// scenario contributes each job's own accounting window; killed attempts
	// ran too, so their accounting rides along after the completed jobs.
	m := session.Stats()
	m.MakeSpan = makespan
	accts := make([]*replay.Result, 0, len(jobAccts)+len(st.killedAccts))
	terms := make([][]int, 0, len(jobAccts)+len(st.killedAccts))
	for i, a := range jobAccts {
		if a != nil {
			accts = append(accts, a)
			terms = append(terms, jobTerms[i])
		}
	}
	accts = append(accts, st.killedAccts...)
	terms = append(terms, st.killedTerms...)
	m.Jobs = accts
	res.Fabric = fabricStats(fabric, m, terms)
	res.Util = utilization(jobs, fabric.NumTerminals(), makespan)
	if res.FaultsActive {
		res.Capacity = capacityProfile(st.capSteps, fabric.NumTerminals(), makespan)
	}
	res.Series = m.Series
	return res, nil
}

// capacityProfile integrates the up-terminal step function over UtilBuckets
// equal slices of the makespan, returning the mean percentage of terminals
// up in each.
func capacityProfile(steps []capStep, nt int, makespan time.Duration) []float64 {
	if makespan <= 0 || nt == 0 {
		return nil
	}
	out := make([]float64, UtilBuckets)
	span := makespan.Seconds()
	for b := range out {
		t0 := span * float64(b) / UtilBuckets
		t1 := span * float64(b+1) / UtilBuckets
		downSec := 0.0 // down terminal-seconds within [t0, t1)
		for i, s := range steps {
			s0 := s.at.Seconds()
			s1 := span
			if i+1 < len(steps) {
				s1 = steps[i+1].at.Seconds()
			}
			if s0 < t0 {
				s0 = t0
			}
			if s1 > t1 {
				s1 = t1
			}
			if s1 > s0 {
				downSec += (s1 - s0) * float64(s.down)
			}
		}
		out[b] = 100 * (1 - downSec/((t1-t0)*float64(nt)))
	}
	return out
}

// utilization integrates the terminal-occupancy step function over
// UtilBuckets equal slices of the makespan, returning mean busy percentages.
func utilization(jobs []ChurnJob, nt int, makespan time.Duration) []float64 {
	if makespan <= 0 || nt == 0 {
		return nil
	}
	util := make([]float64, UtilBuckets)
	span := makespan.Seconds()
	for b := range util {
		t0 := span * float64(b) / UtilBuckets
		t1 := span * float64(b+1) / UtilBuckets
		occ := 0.0 // terminal-seconds occupied within [t0, t1)
		for _, j := range jobs {
			s, f := j.Start.Seconds(), j.Finish.Seconds()
			if s < t0 {
				s = t0
			}
			if f > t1 {
				f = t1
			}
			if f > s {
				occ += (f - s) * float64(j.NP)
			}
		}
		util[b] = 100 * occ / ((t1 - t0) * float64(nt))
	}
	return util
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
