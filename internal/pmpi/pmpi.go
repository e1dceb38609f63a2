// Package pmpi is the power saving mechanism packaged as a profiling layer
// for the mini-MPI runtime (internal/mpi): the online predictor and the link
// power controller are driven from the Before/After interposition hooks, so
// any SPMD program running on the runtime gets the paper's mechanism without
// source modification — the deployment story of Section III ("our system is
// adaptable to be run within the PMPI profile layer of MPI").
//
// Because the runtime executes in real time on one host, the "link" is
// virtual: the controller tracks the power state the HCA link would be in
// against the wall clock. With delay emulation enabled, demand wakes insert
// real sleeps, reproducing the reactivation penalty an application would
// observe.
package pmpi

import (
	"fmt"
	"io"
	"sync"
	"time"

	"ibpower/internal/mpi"
	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/stats"
	"ibpower/internal/trace"
)

// Layer owns one profiler per rank and aggregates their reports.
type Layer struct {
	cfg     predictor.Config
	emulate bool

	mu    sync.Mutex
	ranks map[int]*RankProfiler
}

// Option configures the layer.
type Option func(*Layer)

// WithDelayEmulation makes demand wakes sleep for the remaining reactivation
// time, so the measured application slowdown is real.
func WithDelayEmulation() Option {
	return func(l *Layer) { l.emulate = true }
}

// New builds a layer with the given mechanism configuration.
func New(cfg predictor.Config, opts ...Option) (*Layer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Layer{cfg: cfg, ranks: make(map[int]*RankProfiler)}
	for _, o := range opts {
		o(l)
	}
	return l, nil
}

// Factory returns the profiler factory to install with mpi.WithProfiler.
func (l *Layer) Factory() func(rank int) mpi.Profiler {
	return func(rank int) mpi.Profiler {
		p := &RankProfiler{
			rank:    rank,
			pred:    predictor.MustNew(l.cfg),
			ctrl:    power.NewController(l.cfg.Treact),
			emulate: l.emulate,
		}
		l.mu.Lock()
		l.ranks[rank] = p
		l.mu.Unlock()
		return p
	}
}

// RankProfiler is the per-rank mechanism instance; it runs on the rank's
// goroutine, so no locking is needed on the hot path.
type RankProfiler struct {
	rank    int
	pred    predictor.Predictor
	ctrl    *power.Controller
	emulate bool
	slept   time.Duration
}

// Before wakes the virtual link if the call needs it earlier than predicted.
func (p *RankProfiler) Before(call trace.CallID, t time.Duration) {
	ready := p.ctrl.Acquire(t)
	if ready > t && p.emulate {
		time.Sleep(ready - t)
		p.slept += ready - t
	}
}

// After feeds the completed call to the predictor and executes any shutdown.
// The overhead model is zero: the mechanism's costs here are real wall time,
// which the runtime's clock already sees.
func (p *RankProfiler) After(call trace.CallID, start, end time.Duration) {
	predictor.Exit(p.pred, p.ctrl, predictor.OverheadModel{}, call, start, end)
}

// Report is the aggregated outcome of a profiled run.
type Report struct {
	Wall       time.Duration
	PerRank    []RankReport
	AvgSaving  float64 // percent, averaged over ranks
	AvgLowFrac float64
	AvgHitPct  float64
}

// RankReport is one rank's outcome.
type RankReport struct {
	Rank        int
	Acct        power.Accounting
	Stats       predictor.Stats
	DemandWakes int
	TimerWakes  int
	Slept       time.Duration
}

// Report closes all controllers at wall-clock time end and aggregates.
func (l *Layer) Report(end time.Duration) *Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := &Report{Wall: end}
	for r := 0; r < len(l.ranks); r++ {
		p, ok := l.ranks[r]
		if !ok {
			continue
		}
		p.pred.Flush()
		p.ctrl.Finish(end)
		rr := RankReport{
			Rank:        p.rank,
			Acct:        p.ctrl.Accounting(),
			Stats:       p.pred.Stats(),
			DemandWakes: p.ctrl.DemandWakes,
			TimerWakes:  p.ctrl.TimerWakes,
			Slept:       p.slept,
		}
		rep.PerRank = append(rep.PerRank, rr)
		rep.AvgSaving += rr.Acct.SavingPct()
		rep.AvgLowFrac += rr.Acct.LowFraction()
		rep.AvgHitPct += rr.Stats.HitRatePct()
	}
	if n := float64(len(rep.PerRank)); n > 0 {
		rep.AvgSaving /= n
		rep.AvgLowFrac /= n
		rep.AvgHitPct /= n
	}
	return rep
}

// Write renders the report.
func (r *Report) Write(w io.Writer) error {
	fmt.Fprintf(w, "wall time %v; avg switch power saving %.2f%% (low-power fraction %.3f, MPI call hit rate %.1f%%)\n",
		r.Wall.Round(time.Millisecond), r.AvgSaving, r.AvgLowFrac, r.AvgHitPct)
	t := stats.NewTable("rank", "saving[%]", "low", "full", "shift", "timer wakes", "demand wakes", "slept")
	for _, rr := range r.PerRank {
		t.Row(rr.Rank, rr.Acct.SavingPct(),
			rr.Acct.Low.Round(time.Millisecond),
			rr.Acct.Full.Round(time.Millisecond),
			rr.Acct.Shift.Round(time.Millisecond),
			rr.TimerWakes, rr.DemandWakes, rr.Slept.Round(time.Millisecond))
	}
	return t.Write(w)
}
