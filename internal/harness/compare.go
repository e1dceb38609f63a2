package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/stats"
	"ibpower/internal/sweep"
)

// CompareRow is one (application, process count, predictor) cell of the
// predictor comparison sweep (experiment E14): every registered idle
// predictor replayed over the paper's evaluation grid at one displacement
// factor, against the shared power-unaware baseline. This is the experiment
// the pluggable predictor registry exists for: it quantifies what the
// n-gram PPA buys over the last-value/EWMA/static baselines and how far it
// sits from the clairvoyant oracle and the trace-trained offline profile.
type CompareRow struct {
	App       string
	Predictor string
	NP        int
	GT        time.Duration

	SavingPct       float64 // switch power saving, averaged over processes
	TimeIncreasePct float64 // execution time increase vs power-unaware run
	HitRatePct      float64 // predictor-reported correct-prediction rate
	TimerWakePct    float64 // % of wakes triggered by the timer (not demand)
	Shutdowns       int
	DemandWakes     int
}

// Compare evaluates each named predictor over every (application, process
// count) point — restricted to the given applications when any are named.
// All predictors run at the workload's Table III grouping threshold — the
// operating point the paper's GT selection produces — and against one
// cached baseline replay per workload, so rows differ only in the
// prediction component. Cells run on the Cfg.Parallelism-bounded pool,
// largest process count first; rows keep (application, process count,
// predictor) enumeration order, so output is bit-identical at every pool
// size.
func (r *Runner) Compare(displacement float64, names []string, apps ...string) ([]CompareRow, error) {
	if len(names) == 0 {
		names = predictor.Names()
	}
	for _, n := range names {
		if err := predictor.CheckRegistered(n); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	if err := checkApps(apps); err != nil {
		return nil, err
	}
	pts := allPoints(apps...)
	type cell struct {
		p    point
		name string
	}
	var cells []cell
	for _, p := range pts {
		for _, n := range names {
			cells = append(cells, cell{p: p, name: n})
		}
	}
	return sweep.MapLargestFirst(context.Background(), r.workers(len(cells)), cells,
		func(c cell) int { return c.p.np },
		func(_ context.Context, _ int, c cell) (CompareRow, error) {
			src, err := r.source(c.p.app, c.p.np)
			if err != nil {
				return CompareRow{}, err
			}
			gt, _, err := r.chooseGT(c.p.app, c.p.np, r.Opt, 1)
			if err != nil {
				return CompareRow{}, err
			}
			base, err := r.baseline(c.p.app, c.p.np, r.Opt)
			if err != nil {
				return CompareRow{}, err
			}
			res, err := replay.RunSource(src, r.Cfg.WithPredictor(c.name).WithPower(gt, displacement))
			if err != nil {
				return CompareRow{}, fmt.Errorf("%s %s np=%d: %w", c.name, c.p.app, c.p.np, err)
			}
			row := CompareRow{
				App:             c.p.app,
				Predictor:       c.name,
				NP:              c.p.np,
				GT:              gt,
				SavingPct:       res.AvgSavingPct(),
				TimeIncreasePct: res.TimeIncreasePct(base),
				HitRatePct:      res.AvgHitRatePct(),
				Shutdowns:       res.Shutdowns,
				DemandWakes:     res.DemandWakes,
			}
			if wakes := res.TimerWakes + res.DemandWakes; wakes > 0 {
				row.TimerWakePct = 100 * float64(res.TimerWakes) / float64(wakes)
			}
			return row, nil
		})
}

// WriteCompare renders the comparison: the full per-cell table followed by
// per-predictor averages over the whole grid (the Table-I-style summary).
func WriteCompare(w io.Writer, displacement float64, rows []CompareRow) error {
	fmt.Fprintf(w, "predictor comparison, displacement factor = %.0f%% (savings/overhead vs shared power-unaware baseline)\n",
		displacement*100)
	t := stats.NewTable("app", "Nproc", "predictor", "GT[us]",
		"saving[%]", "time incr[%]", "hit[%]", "timer wake[%]", "shutdowns", "demand wakes")
	for _, r := range rows {
		t.Row(r.App, r.NP, r.Predictor, int(r.GT/time.Microsecond),
			r.SavingPct, fmt.Sprintf("%.2f", r.TimeIncreasePct),
			r.HitRatePct, r.TimerWakePct, r.Shutdowns, r.DemandWakes)
	}
	if err := t.Write(w); err != nil {
		return err
	}

	// Per-predictor averages, in first-appearance order.
	type agg struct {
		n                      int
		saving, incr, hit, twk float64
	}
	aggs := map[string]*agg{}
	var order []string
	for _, r := range rows {
		a, ok := aggs[r.Predictor]
		if !ok {
			a = &agg{}
			aggs[r.Predictor] = a
			order = append(order, r.Predictor)
		}
		a.n++
		a.saving += r.SavingPct
		a.incr += r.TimeIncreasePct
		a.hit += r.HitRatePct
		a.twk += r.TimerWakePct
	}
	fmt.Fprintln(w)
	at := stats.NewTable("predictor", "avg saving[%]", "avg time incr[%]", "avg hit[%]", "avg timer wake[%]")
	for _, name := range order {
		a := aggs[name]
		n := float64(a.n)
		at.Row(name, a.saving/n, fmt.Sprintf("%.2f", a.incr/n), a.hit/n, a.twk/n)
	}
	return at.Write(w)
}
