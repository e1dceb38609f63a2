package predictor

import (
	"context"
	"sync/atomic"
	"time"

	"ibpower/internal/power"
	"ibpower/internal/sweep"
	"ibpower/internal/trace"
)

// OfflineResult carries per-rank predictor statistics plus the realized link
// power accounting of the network-free mechanism simulation.
type OfflineResult struct {
	Stats []Stats
	Acct  []power.Accounting
	Delay time.Duration // total reactivation delay suffered
	Exec  time.Duration // max rank finish time
}

// AvgHitRatePct averages the per-rank MPI call hit rates.
func (o *OfflineResult) AvgHitRatePct() float64 { return AvgHitRatePct(o.Stats) }

// TotalLow returns the summed realized low-power time across ranks.
func (o *OfflineResult) TotalLow() time.Duration {
	var l time.Duration
	for _, a := range o.Acct {
		l += a.Low
	}
	return l
}

// RunOfflineGrid drives one predictor (any registered name) per rank over
// the trace without any network simulation, at every grouping threshold of
// gts (cfg.GT is ignored), and returns one result per threshold in grid
// order. A one-point grid is the plain offline run. Call timestamps are
// reconstructed from the recorded computation durations plus the
// mechanism's own modelled overheads ov, which is exactly the information
// the grouping threshold and PPA consume. The overhead insertion matters: a
// PPA invocation stretches the gap that follows it, which can push a
// gram-internal gap across the grouping threshold, so GT selection must see
// the same timing as the full replay. Predictors that never set
// Action.PPAInvoked are charged only the interception overhead per call.
// Each rank's stream drives a predictor and a link power controller:
// shutdown actions program the wake timer and early calls pay the
// reactivation delay, exactly as in the full replay minus network effects.
// Trace-aware predictors (oracle, offline) are primed with each rank's op
// stream before it is replayed; every other predictor streams one op at a
// time. This is the fast path used for the GT sweeps of Table III and
// Figure 10.
//
// A rank is not simulated once per threshold: after each n-gram rank run
// the gram builder reports the interval of thresholds that would have taken
// every branch the run took, and the run stands in for every grid point
// inside it, bit-identically. Only points no earlier run of the rank covers
// are simulated. Every other predictor covers exactly its own threshold.
//
// Ranks run on a pool of at most workers goroutines (0 selects GOMAXPROCS,
// 1 is serial) and are reduced in rank order, so results do not depend on
// the pool size.
func RunOfflineGrid(src trace.Source, name string, gts []time.Duration, cfg Config, ov OverheadModel, workers int) ([]*OfflineResult, error) {
	// A shared run must not stand in for a threshold the predictor would
	// have rejected.
	for _, gt := range gts {
		c := cfg
		c.GT = gt
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	m := src.Meta()
	ranks := make([]int, m.NP)
	for r := range ranks {
		ranks[r] = r
	}
	perRank, err := sweep.Map(context.Background(), workers, ranks,
		func(_ context.Context, _ int, r int) ([]rankRun, error) {
			return runRankGrid(src, name, r, gts, cfg, ov)
		})
	if err != nil {
		return nil, err
	}
	out := make([]*OfflineResult, len(gts))
	for i := range gts {
		res := &OfflineResult{
			Stats: make([]Stats, m.NP),
			Acct:  make([]power.Accounting, m.NP),
		}
		for r, runs := range perRank {
			run := runs[i]
			res.Stats[r] = run.stats
			res.Acct[r] = run.acct
			res.Delay += run.delay
			if run.exec > res.Exec {
				res.Exec = run.exec
			}
		}
		out[i] = res
	}
	return out, nil
}

// rankRuns counts the rank simulations the offline grid runner has executed.
var rankRuns atomic.Int64

// RankRuns returns the number of rank simulations the offline grid runner
// has executed in this process. RunOfflineGrid's sharing shows up as fewer
// runs than ranks × grid points.
func RankRuns() int64 { return rankRuns.Load() }

// rankRun is the outcome of one rank's simulation at one threshold.
type rankRun struct {
	stats Stats
	acct  power.Accounting
	delay time.Duration // reactivation delay suffered
	exec  time.Duration // rank finish time
}

// runRankGrid simulates rank r at every grid point that no earlier run of
// the rank covers and returns one run per point. A trace-aware predictor's
// op stream is materialized once and primes every run.
func runRankGrid(src trace.Source, name string, r int, gts []time.Duration, cfg Config, ov OverheadModel) ([]rankRun, error) {
	runs := make([]rankRun, len(gts))
	done := make([]bool, len(gts))
	var ops []trace.Op
	for i, gt := range gts {
		if done[i] {
			continue
		}
		c := cfg
		c.GT = gt
		p, err := NewNamed(name, c)
		if err != nil {
			return nil, err
		}
		if ta, ok := p.(TraceAware); ok {
			if ops == nil {
				if ops, err = trace.RankOps(src, r); err != nil {
					return nil, err
				}
			}
			ta.Prime(ops)
		}
		rankRuns.Add(1)
		run, err := runRank(p, src.Open(r), c.Treact, ov)
		if err != nil {
			return nil, err
		}
		// The n-gram mechanism reads GT only in its gram builder's grouping
		// comparison (the detector, Algorithm 3, the overhead model and the
		// controller never see it), so the builder's interval bounds every
		// threshold that reproduces this run. Any other predictor covers
		// exactly its own threshold.
		lo, hi := gt-1, gt
		if n, ok := p.(*NGram); ok {
			lo, hi = n.builder.GTInterval()
		}
		for j := i; j < len(gts); j++ {
			if !done[j] && gts[j] > lo && gts[j] <= hi {
				runs[j], done[j] = run, true
			}
		}
	}
	return runs, nil
}

// runRank drives p and a link power controller over one rank's op stream:
// shutdown actions program the wake timer and early calls pay the
// reactivation delay.
func runRank(p Predictor, cur trace.Cursor, treact time.Duration, ov OverheadModel) (rankRun, error) {
	ctrl := power.NewController(treact)
	var t time.Duration
	for {
		op, ok := cur.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case trace.OpCompute:
			t += op.Duration
		case trace.OpCall:
			t = ctrl.Acquire(t + ov.Interception)
			t, _ = Exit(p, ctrl, ov, op.Call, t, t)
		}
	}
	if err := cur.Err(); err != nil {
		return rankRun{}, err
	}
	p.Flush()
	ctrl.Finish(t)
	return rankRun{stats: p.Stats(), acct: ctrl.Accounting(), delay: ctrl.TotalDelay, exec: t}, nil
}

// OverheadReport holds wall-clock measurements of the mechanism's software
// cost, mirroring the paper's Table IV (which used gettimeofday around the
// PMPI interposition).
type OverheadReport struct {
	Calls            int           // MPI calls observed
	PPAInvoked       int           // calls on which the full PPA ran
	PPAInvokedPct    float64       // percentage of calls invoking PPA
	PerInvokedCall   time.Duration // mean wall time of a PPA-invoked call
	PerCallAmortized time.Duration // total mechanism time / all calls
	Total            time.Duration
}

// MeasureOverheads runs the named predictor over every rank of the trace
// through the offline runner, with a zero overhead model, and measures the
// real wall-clock cost of each OnCall invocation, attributing it to
// PPA-invoked calls versus plain interceptions. For predictors that never
// invoke the PPA the per-invoked-call column stays zero and only the
// amortized per-call cost is meaningful.
func MeasureOverheads(name string, src trace.Source, cfg Config) (OverheadReport, error) {
	tm := &timed{}
	for r := 0; r < src.Meta().NP; r++ {
		p, err := ForRank(name, cfg, src, r)
		if err != nil {
			return OverheadReport{}, err
		}
		tm.Predictor = p
		if _, err := runRank(tm, src.Open(r), cfg.Treact, OverheadModel{}); err != nil {
			return OverheadReport{}, err
		}
	}
	rep := tm.rep
	if rep.Calls > 0 {
		rep.PPAInvokedPct = 100 * float64(rep.PPAInvoked) / float64(rep.Calls)
		rep.PerCallAmortized = rep.Total / time.Duration(rep.Calls)
	}
	if rep.PPAInvoked > 0 {
		rep.PerInvokedCall = tm.invoked / time.Duration(rep.PPAInvoked)
	}
	return rep, nil
}

// timed wraps a predictor and times every OnCall into a report.
type timed struct {
	Predictor
	rep     OverheadReport
	invoked time.Duration // wall time of the PPA-invoked calls
}

func (w *timed) OnCall(id EventID, start, end time.Duration) Action {
	t0 := time.Now()
	act := w.Predictor.OnCall(id, start, end)
	el := time.Since(t0)
	w.rep.Calls++
	w.rep.Total += el
	if act.PPAInvoked {
		w.rep.PPAInvoked++
		w.invoked += el
	}
	return act
}

// AvgHitRatePct averages the per-rank MPI call hit rates.
func AvgHitRatePct(stats []Stats) float64 {
	if len(stats) == 0 {
		return 0
	}
	s := 0.0
	for _, st := range stats {
		s += st.HitRatePct()
	}
	return s / float64(len(stats))
}
