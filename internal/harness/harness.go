// Package harness regenerates every table and figure of the paper's
// evaluation (Section IV). Each experiment has one entry point returning
// structured rows plus a text renderer producing the same rows/series the
// paper reports. DESIGN.md carries the experiment index.
package harness

import (
	"fmt"
	"io"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/stats"
	"ibpower/internal/trace"
)

// Displacements evaluated in the paper (Figures 7, 8, 9).
var Displacements = []float64{0.10, 0.05, 0.01}

// GTMin is the smallest admissible grouping threshold, 2·Treact.
const GTMin = 20 * time.Microsecond

// TableIRow is one (application, process count) row of Table I.
type TableIRow struct {
	App  string
	NP   int
	Dist trace.IdleDist
}

// WriteTableI renders Table I rows in the paper's layout.
func WriteTableI(w io.Writer, rows []TableIRow) error {
	t := stats.NewTable("app", "Nproc",
		"N<20us", "%ivl", "%time",
		"N20-200us", "%ivl", "%time",
		"N>200us", "%ivl", "%time")
	for _, r := range rows {
		d := r.Dist
		t.Row(r.App, r.NP,
			d.Count[0], pct(d.CountPct(0)), pct3(d.TimePct(0)),
			d.Count[1], pct(d.CountPct(1)), pct3(d.TimePct(1)),
			d.Count[2], pct(d.CountPct(2)), pct3(d.TimePct(2)))
	}
	return t.Write(w)
}

func pct(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct3(v float64) string { return fmt.Sprintf("%.3f", v) }

// GTSweepPoint is one point of Figure 10: hit rate as a function of the
// grouping threshold.
type GTSweepPoint struct {
	GT         time.Duration
	HitRatePct float64
}

// GTSweep evaluates the MPI-call hit rate across grouping thresholds for one
// workload source and any registered predictor (experiment E6). Thresholds
// start at GTMin and must be strictly increasing. The hit rate reported at
// each threshold is the predictor's own quality metric (detector-based for
// the n-gram PPA, resolved-prediction-based for the baselines), evaluated on
// the network-free offline grid runner with ranks spread over a pool of at
// most workers goroutines (0 selects GOMAXPROCS, 1 is serial). Points are
// returned in grid order whatever the pool size.
func GTSweep(src trace.Source, name string, gts []time.Duration, workers int) ([]GTSweepPoint, error) {
	res, err := offlineGrid(src, name, gts, workers)
	if err != nil {
		return nil, err
	}
	pts := make([]GTSweepPoint, len(gts))
	for i, r := range res {
		pts[i] = GTSweepPoint{GT: gts[i], HitRatePct: r.AvgHitRatePct()}
	}
	return pts, nil
}

// offlineGrid validates the grid, then runs the named predictor at every
// grid threshold (displacement 1%, default overheads) with ranks spread
// over a pool of at most workers goroutines.
func offlineGrid(src trace.Source, name string, gts []time.Duration, workers int) ([]*predictor.OfflineResult, error) {
	if err := validateGrid(gts); err != nil {
		return nil, err
	}
	return predictor.RunOfflineGrid(src, name, gts,
		predictor.Config{Displacement: 0.01}, predictor.DefaultOverheads(), workers)
}

// validateGrid rejects sub-minimum thresholds and grids that are not
// strictly increasing before any simulation runs. ChooseGT returns the first
// qualifying point, which is the smallest only on an ascending grid.
func validateGrid(gts []time.Duration) error {
	for i, gt := range gts {
		if gt < GTMin {
			return fmt.Errorf("harness: GT %v below minimum %v", gt, GTMin)
		}
		if i > 0 && gt <= gts[i-1] {
			return fmt.Errorf("harness: GT grid not strictly increasing: %v follows %v", gt, gts[i-1])
		}
	}
	return nil
}

// DefaultGTGrid returns the sweep grid used for GT selection: 20–400 µs in
// the paper's Figure 10 range.
func DefaultGTGrid() []time.Duration {
	var g []time.Duration
	for us := 20; us <= 400; us += 20 {
		g = append(g, time.Duration(us)*time.Microsecond)
	}
	return g
}

// ChooseGT picks the grouping threshold for a workload. The selection
// criterion follows Section IV-C: achieve a high correct-prediction rate on
// MPI calls *while considering* that a large GT value removes idle intervals
// where shifting to low-power mode is possible. We therefore maximise the
// total predicted idle time the mechanism would program into the wake timers
// (the product the two effects trade off), and return the smallest GT within
// tolPct of that optimum. The hit rate at the chosen GT is returned for
// Table III.
//
// Selection always scores the reference n-gram predictor: the threshold is
// treated as a property of the workload's idle-interval distribution, and
// the Compare experiment reuses it unchanged for every predictor so that
// all of them run at the same operating point.
func ChooseGT(src trace.Source, grid []time.Duration, tolPct float64) (time.Duration, float64, error) {
	return chooseGT(src, grid, tolPct, 1)
}

// ChooseGTParallel is ChooseGT with ranks simulated on a pool of at most
// workers goroutines (0 selects GOMAXPROCS). Ranks are reduced in rank order
// and the selection is made over the complete score vector in grid order,
// so the chosen GT is identical at every pool size.
func ChooseGTParallel(src trace.Source, grid []time.Duration, tolPct float64, workers int) (time.Duration, float64, error) {
	return chooseGT(src, grid, tolPct, workers)
}

// gtPoint is the selection criterion evaluated at one grid threshold.
type gtPoint struct {
	gt    time.Duration
	score float64
	hit   float64
}

// gtScores evaluates every grid threshold, with ranks spread over the pool.
func gtScores(src trace.Source, grid []time.Duration, workers int) ([]gtPoint, error) {
	// delayWeight penalises realized reactivation delay: a microsecond of
	// added execution time costs far more than a microsecond of missed
	// low-power opportunity (it propagates between processes).
	const delayWeight = 20
	res, err := offlineGrid(src, predictor.DefaultName, grid, workers)
	if err != nil {
		return nil, err
	}
	pts := make([]gtPoint, len(grid))
	for i, r := range res {
		score := float64(r.TotalLow()) - delayWeight*float64(r.Delay)
		pts[i] = gtPoint{gt: grid[i], score: score, hit: r.AvgHitRatePct()}
	}
	return pts, nil
}

func chooseGT(src trace.Source, grid []time.Duration, tolPct float64, workers int) (time.Duration, float64, error) {
	if len(grid) == 0 {
		return 0, 0, fmt.Errorf("harness: empty GT grid")
	}
	pts, err := gtScores(src, grid, workers)
	if err != nil {
		return 0, 0, err
	}
	best := pts[0].score
	for _, p := range pts {
		if p.score > best {
			best = p.score
		}
	}
	for _, p := range pts {
		if p.score >= best*(1-tolPct/100) && p.score > 0 {
			return p.gt, p.hit, nil
		}
	}
	// No GT yields useful low-power time; fall back to the minimum.
	return grid[0], pts[0].hit, nil
}

// TableIIIRow records the chosen GT and hit rate for one workload.
type TableIIIRow struct {
	App        string
	NP         int
	GT         time.Duration
	HitRatePct float64
}

// WriteTableIII renders Table III.
func WriteTableIII(w io.Writer, rows []TableIIIRow) error {
	t := stats.NewTable("app", "Nproc", "GT[us]", "hit rate[%]")
	for _, r := range rows {
		t.Row(r.App, r.NP, int(r.GT/time.Microsecond), r.HitRatePct)
	}
	return t.Write(w)
}

// FigureRow is one (application, NP) point of Figures 7–9: power savings and
// execution-time increase at one displacement factor.
type FigureRow struct {
	App             string
	NP              int
	GT              time.Duration
	SavingPct       float64
	TimeIncreasePct float64
	HitRatePct      float64
	LowFraction     float64
	BaseExec        time.Duration
	Exec            time.Duration
}

// FigurePoint runs baseline and mechanism replays for one workload source.
// A Runner's figures take the baseline from its cache instead (Runner.Figure).
func FigurePoint(src trace.Source, gt time.Duration, displacement float64, cfg replay.Config) (*FigureRow, error) {
	base, err := replay.RunSource(src, cfg)
	if err != nil {
		return nil, err
	}
	res, err := replay.RunSource(src, cfg.WithPower(gt, displacement))
	if err != nil {
		return nil, err
	}
	m := src.Meta()
	row := figureRow(m.App, m.NP, gt, base, res)
	return &row, nil
}

// figureRow builds the Figures 7–9 row of (app, np) from its power-unaware
// baseline and its mechanism run at grouping threshold gt.
func figureRow(app string, np int, gt time.Duration, base, res *replay.Result) FigureRow {
	return FigureRow{
		App:             app,
		NP:              np,
		GT:              gt,
		SavingPct:       res.AvgSavingPct(),
		TimeIncreasePct: res.TimeIncreasePct(base),
		HitRatePct:      res.AvgHitRatePct(),
		LowFraction:     res.AvgLowFraction(),
		BaseExec:        base.ExecTime,
		Exec:            res.ExecTime,
	}
}

// WriteFigure renders figure rows plus per-size averages (the paper's
// AVERAGE series).
func WriteFigure(w io.Writer, displacement float64, rows []FigureRow) error {
	fmt.Fprintf(w, "displacement factor = %.0f%%\n", displacement*100)
	t := stats.NewTable("app", "Nproc", "GT[us]", "saving[%]", "time incr[%]", "hit[%]", "base exec", "exec")
	for _, r := range rows {
		t.Row(r.App, r.NP, int(r.GT/time.Microsecond), r.SavingPct,
			fmt.Sprintf("%.2f", r.TimeIncreasePct), r.HitRatePct,
			r.BaseExec.Round(time.Microsecond), r.Exec.Round(time.Microsecond))
	}
	if err := t.Write(w); err != nil {
		return err
	}
	// Average series per process-count column (8/9, 16, 32/36, 64, 128/100).
	byCol := map[int][]FigureRow{}
	for _, r := range rows {
		byCol[columnOf(r.NP)] = append(byCol[columnOf(r.NP)], r)
	}
	at := stats.NewTable("column", "avg saving[%]", "avg time incr[%]")
	for col := 0; col < 5; col++ {
		rs := byCol[col]
		if len(rs) == 0 {
			continue
		}
		var s, ti float64
		for _, r := range rs {
			s += r.SavingPct
			ti += r.TimeIncreasePct
		}
		at.Row(columnLabel(col), s/float64(len(rs)), fmt.Sprintf("%.2f", ti/float64(len(rs))))
	}
	fmt.Fprintln(w)
	return at.Write(w)
}

// columnOf maps a process count to the paper's x-axis column index.
func columnOf(np int) int {
	switch np {
	case 8, 9:
		return 0
	case 16:
		return 1
	case 32, 36:
		return 2
	case 64:
		return 3
	default:
		return 4
	}
}

func columnLabel(col int) string {
	return [...]string{"8/9", "16", "32/36", "64", "128/100"}[col]
}
