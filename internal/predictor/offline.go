package predictor

import (
	"context"
	"time"

	"ibpower/internal/power"
	"ibpower/internal/sweep"
	"ibpower/internal/trace"
)

// OfflineResult carries the per-rank outcomes of one grid point plus their
// reductions over the ranks.
type OfflineResult struct {
	// Ranks holds each rank's outcome at this point, in rank order. Every
	// point of one RunOfflineGrid call slices the same arena.
	Ranks []RankOutcome
	Delay time.Duration // total reactivation delay suffered
	// Runs counts the rank runs simulated at this grid point; the other
	// ranks' results are shared from a run at an earlier point. Summed over
	// the grid it is the total number of rank simulations.
	Runs int
}

// RankOutcome is what one rank's offline run leaves behind: the predictor's
// hit rate, the link's realized power accounting, whose total is the rank's
// finish time, and the reactivation delay.
type RankOutcome struct {
	HitRatePct float64 // Stats.HitRatePct of the rank's predictor
	Acct       power.Accounting
	Delay      time.Duration // reactivation delay suffered
}

// AvgHitRatePct averages the per-rank MPI call hit rates.
func (o *OfflineResult) AvgHitRatePct() float64 {
	if len(o.Ranks) == 0 {
		return 0
	}
	s := 0.0
	for _, ro := range o.Ranks {
		s += ro.HitRatePct
	}
	return s / float64(len(o.Ranks))
}

// TotalLow returns the summed realized low-power time across ranks.
func (o *OfflineResult) TotalLow() time.Duration {
	var l time.Duration
	for _, ro := range o.Ranks {
		l += ro.Acct.Low
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
// The primers (oracle, offline) are primed with each rank's call stream
// before it is replayed; every other predictor sees the calls one by one.
// This is the fast path used for the GT sweeps of Table III and Figure 10.
//
// A rank is not simulated once per threshold: after each n-gram rank run
// the gram builder reports the interval of thresholds that would have taken
// every branch the run took, and the run stands in for every grid point
// inside it, bit-identically. Only points no earlier run of the rank covers
// are simulated. Every other predictor covers exactly its own threshold.
//
// Ranks run on a pool of at most workers goroutines (0 selects GOMAXPROCS,
// 1 is serial) and are reduced in rank order, so results do not depend on
// the pool size. Each pool worker keeps one scratch for the whole call: a
// rank is decoded once into the worker's call buffer, every grid run of the
// rank loops over it, and every n-gram run resets the worker's predictor
// (Reuse) instead of building a new one.
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
	np := src.Meta().NP
	g := &offlineGrid{
		src: src, name: name, gts: gts, cfg: cfg, ov: ov, np: np,
		ranks: make([]RankOutcome, len(gts)*np),
		ran:   make([]bool, len(gts)*np),
	}
	ranks := make([]int, np)
	for r := range ranks {
		ranks[r] = r
	}
	// Map never runs more ranks at once than this many workers, so a
	// worker always finds a free scratch.
	pool := make(chan *gridScratch, sweep.Workers(workers, np))
	for range cap(pool) {
		pool <- &gridScratch{done: make([]bool, len(gts))}
	}
	_, err := sweep.Map(context.Background(), workers, ranks,
		func(_ context.Context, _ int, r int) (struct{}, error) {
			s := <-pool
			defer func() { pool <- s }()
			return struct{}{}, g.runRank(s, r)
		})
	if err != nil {
		return nil, err
	}
	res := make([]OfflineResult, len(gts))
	out := make([]*OfflineResult, len(gts))
	for j := range res {
		o := &res[j]
		// Capped, so an append to one point's outcomes cannot write over
		// the next point's.
		o.Ranks = g.ranks[j*np : (j+1)*np : (j+1)*np]
		for r, ro := range o.Ranks {
			o.Delay += ro.Delay
			if g.ran[j*np+r] {
				o.Runs++
			}
		}
		out[j] = o
	}
	return out, nil
}

// offlineGrid is one RunOfflineGrid call: its inputs and the results every
// rank run writes into. Ranks write disjoint slots, so the pool's workers
// share it without locking.
type offlineGrid struct {
	src   trace.Source
	name  string
	gts   []time.Duration
	cfg   Config
	ov    OverheadModel
	np    int
	ranks []RankOutcome // ranks[j*np+r] is rank r's outcome at grid point j
	ran   []bool        // ran[j*np+r]: rank r was simulated at grid point j
}

// gridScratch is one pool worker's reusable state: the decoded call stream
// of the rank in hand, which grid points its runs already cover, and the
// predictor of the worker's last run, which Reuse resets for the next run
// when it is the n-gram mechanism.
type gridScratch struct {
	calls []trace.CallGap
	done  []bool
	pred  Predictor
}

// runRank simulates rank r at every grid point that no earlier run of the
// rank covers and writes each run into every point it covers. The rank is
// decoded once; its call stream primes every primer run and drives every
// run.
func (g *offlineGrid) runRank(s *gridScratch, r int) error {
	clear(s.done)
	var tail time.Duration
	var err error
	if s.calls, tail, err = trace.Calls(s.calls, g.src.Open(r)); err != nil {
		return rankErr(g.src, r, err)
	}
	for i, gt := range g.gts {
		if s.done[i] {
			continue
		}
		c := g.cfg
		c.GT = gt
		p := Reuse(s.pred, g.name, c)
		if p == nil {
			if p, err = NewNamed(g.name, c); err != nil {
				return err
			}
			s.pred = p
		}
		if pr, ok := p.(primer); ok {
			pr.prime(s.calls, tail)
		}
		run := runCalls(p, s.calls, tail, c.Treact, g.ov)
		g.ran[i*g.np+r] = true
		// The n-gram mechanism reads GT only in its gram builder's grouping
		// comparison (the detector, Algorithm 3, the overhead model and the
		// controller never see it), so the builder's interval bounds every
		// threshold that reproduces this run. Any other predictor covers
		// exactly its own threshold.
		lo, hi := gt-1, gt
		if n, ok := p.(*NGram); ok {
			lo, hi = n.builder.GTInterval()
		}
		for j := i; j < len(g.gts); j++ {
			if !s.done[j] && g.gts[j] > lo && g.gts[j] <= hi {
				g.ranks[j*g.np+r] = run
				s.done[j] = true
			}
		}
	}
	return nil
}

// runCalls drives p and a link power controller over one rank's decoded
// call stream and its trailing computation: shutdown actions program the
// wake timer and early calls pay the reactivation delay.
func runCalls(p Predictor, calls []trace.CallGap, tail, treact time.Duration, ov OverheadModel) RankOutcome {
	ctrl := power.NewController(treact)
	var t time.Duration
	for _, c := range calls {
		t = ctrl.Acquire(t + c.Gap + ov.Interception)
		t, _ = Exit(p, ctrl, ov, c.Call, t, t)
	}
	t += tail
	p.Flush()
	ctrl.Finish(t)
	return RankOutcome{HitRatePct: p.Stats().HitRatePct(), Acct: ctrl.Accounting(), Delay: ctrl.TotalDelay}
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
	var calls []trace.CallGap
	for r := 0; r < src.Meta().NP; r++ {
		p, err := NewNamed(name, cfg)
		if err != nil {
			return OverheadReport{}, err
		}
		var tail time.Duration
		if calls, tail, err = trace.Calls(calls, src.Open(r)); err != nil {
			return OverheadReport{}, rankErr(src, r, err)
		}
		if pr, ok := p.(primer); ok {
			pr.prime(calls, tail)
		}
		tm.Predictor = p
		runCalls(tm, calls, tail, cfg.Treact, OverheadModel{})
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
