package harness

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/sweep"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// Runner evaluates harness experiments over one workload configuration and
// is the one entry point for the paper's tables and figures. It carries:
//
//   - a per-run cache so each (application, NP, Options) trace source is
//     resolved once and each Table III grouping threshold is chosen once, no
//     matter how many tables and figures a run regenerates;
//   - a bounded worker pool (Cfg.Parallelism, GOMAXPROCS-sized by default)
//     that sweeps independent experiment points concurrently.
//
// Each point is still simulated by the single-threaded replay and predictor
// engines, and rows keep their serial enumeration order, so output is
// bit-identical to a Parallelism: 1 run. Point and cell sweeps whose items
// differ in size feed the pool largest first (sweep.MapLargestFirst, sized
// by process count or total ranks) so the costliest points never run alone
// at the end; a Parallelism: 1 run walks the same order, so a failing sweep
// reports the same error at every pool size.
//
// The zero value is not usable; construct with NewRunner. A Runner is safe
// for concurrent use.
type Runner struct {
	Opt workloads.Options
	Cfg replay.Config

	// File optionally serves workloads from a packed binary trace file
	// instead of the generator: when an (app, NP) entry exists in the file
	// it is replayed through a bounded streaming window, and only workloads
	// missing from the file fall back to workloads.Generate. The cache then
	// holds the file handle's cursor factory, never the decoded ops. Entries
	// only stand in for the Runner's own Opt — experiments that vary the
	// generation options per point (WeakScaling) always regenerate, since a
	// packed file records one options setting. Set before the first
	// experiment; the caller keeps ownership and closes the file after use.
	File *trace.File

	traces memo[traceKey, trace.Source]
	gts    memo[traceKey, gtChoice]
	bases  memo[traceKey, *replay.Result]
	deds   memo[dedKey, *replay.Result]
}

// NewRunner returns a Runner over the given generation options and replay
// configuration (cfg.Parallelism bounds the sweep pool).
func NewRunner(opt workloads.Options, cfg replay.Config) *Runner {
	return &Runner{Opt: opt, Cfg: cfg}
}

// memo caches one value per key, computing each at most once even under
// concurrent callers: later callers of a key block until the first one's
// computation finishes, then share its value and error.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns the cached value for k, computing it with fn on first use.
func (c *memo[K, V]) get(k K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		if c.m == nil {
			c.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = fn() })
	return e.v, e.err
}

type traceKey struct {
	app string
	np  int
	opt workloads.Options
}

// gtChoice is one cached Table III selection: the threshold and its hit
// rate.
type gtChoice struct {
	gt  time.Duration
	hit float64
}

// dedKey identifies a cached dedicated-fabric mechanism run: one workload
// alone on the Runner's fabric at a specific grouping threshold and
// displacement (the multijob sharing-overhead denominator).
type dedKey struct {
	traceKey
	gt time.Duration
	d  float64
}

// workers sizes the pool for n points.
func (r *Runner) workers(n int) int { return sweep.Workers(r.Cfg.Parallelism, n) }

// source returns the cached trace source for (app, np) under r.Opt. Its
// signature matches the multijob/scenario Generate hook.
func (r *Runner) source(app string, np int) (trace.Source, error) {
	return r.sourceOpt(app, np, r.Opt)
}

// sourceOpt returns the cached trace source for (app, np, opt), resolving it
// at most once per key even under concurrent callers: from the attached
// packed file when it has the entry (and opt is the Runner's own Opt — a
// file records one options setting), otherwise from workloads.Generate.
func (r *Runner) sourceOpt(app string, np int, opt workloads.Options) (trace.Source, error) {
	return r.traces.get(traceKey{app: app, np: np, opt: opt}, func() (trace.Source, error) {
		if r.File != nil && opt == r.Opt && r.File.Has(app, np) {
			return r.File.Source(app, np)
		}
		return workloads.Generate(app, np, opt)
	})
}

// chooseGT returns the cached Table III grouping threshold for
// (app, np, opt): the 1% tolerance choice over the default grid, the only
// one Runner experiments use, so the cache key names neither. Its ranks are
// spread over at most workers goroutines; every sweep passes 1, because its
// point pool already saturates the CPUs and nested parallelism would
// oversubscribe them. The choice is identical at every pool size.
func (r *Runner) chooseGT(app string, np int, opt workloads.Options, workers int) (time.Duration, float64, error) {
	c, err := r.gts.get(traceKey{app: app, np: np, opt: opt}, func() (gtChoice, error) {
		src, err := r.sourceOpt(app, np, opt)
		if err != nil {
			return gtChoice{}, err
		}
		gt, hit, err := ChooseGTParallel(src, DefaultGTGrid(), 1.0, workers)
		return gtChoice{gt: gt, hit: hit}, err
	})
	return c.gt, c.hit, err
}

// baseline returns the cached power-unaware replay for (app, np, opt): the
// denominator of every saving and slowdown figure. Sharing it across
// experiments matters most for Compare, which would otherwise replay the
// same baseline once per predictor, and for the figures, which would replay
// it once per displacement factor. Baselines never record telemetry: only
// the run under study publishes a series, and a cached denominator's
// recorder would be filled and thrown away.
func (r *Runner) baseline(app string, np int, opt workloads.Options) (*replay.Result, error) {
	return r.bases.get(traceKey{app: app, np: np, opt: opt}, func() (*replay.Result, error) {
		src, err := r.sourceOpt(app, np, opt)
		if err != nil {
			return nil, err
		}
		bcfg := r.Cfg
		bcfg.Power = replay.PowerConfig{}
		bcfg.Telemetry = replay.TelemetryConfig{}
		return replay.RunSource(src, bcfg)
	})
}

// dedicated returns the cached dedicated-fabric run for (app, np) at
// (gt, d) under r.Opt and r.Cfg: the same job alone with the mechanism on,
// the denominator of the multijob sharing overhead. The baseline is
// placement-independent, so one replay serves every placement cell of a
// MultijobSweep. multijob.RunDedicated builds it exactly as an uncached
// shared run does, telemetry off included, so the overhead compares like
// with like.
func (r *Runner) dedicated(app string, np int, gt time.Duration, d float64) (*replay.Result, error) {
	k := dedKey{traceKey: traceKey{app: app, np: np, opt: r.Opt}, gt: gt, d: d}
	return r.deds.get(k, func() (*replay.Result, error) {
		src, err := r.sourceOpt(app, np, r.Opt)
		if err != nil {
			return nil, err
		}
		return multijob.RunDedicated(src, r.Cfg, gt, d)
	})
}

// jobGT and jobDedicated are the multijob and scenario SelectGT and
// Dedicated hooks: the cached Table III threshold (at 1% tolerance) and the
// cached dedicated baseline of the job's (app, NP).
func (r *Runner) jobGT(src trace.Source) (time.Duration, error) {
	m := src.Meta()
	gt, _, err := r.chooseGT(m.App, m.NP, r.Opt, 1)
	return gt, err
}

func (r *Runner) jobDedicated(src trace.Source, gt time.Duration, d float64) (*replay.Result, error) {
	m := src.Meta()
	return r.dedicated(m.App, m.NP, gt, d)
}

// point is one (application, process count) cell of a table or figure.
type point struct {
	app string
	np  int
}

// size is a point's feed-order cost proxy: its process count.
func (p point) size() int { return p.np }

// allPoints enumerates the paper's full evaluation set in row order,
// restricted to the named applications when any are given.
func allPoints(apps ...string) []point {
	var pts []point
	for _, app := range workloads.Apps() {
		if len(apps) > 0 && !slices.Contains(apps, app) {
			continue
		}
		for _, np := range workloads.ProcCounts(app) {
			pts = append(pts, point{app: app, np: np})
		}
	}
	return pts
}

// checkApps rejects an application filter naming an unknown workload
// before any point is simulated.
func checkApps(apps []string) error {
	for _, a := range apps {
		if !slices.Contains(workloads.Apps(), a) {
			return fmt.Errorf("harness: unknown application %q (have %s)",
				a, strings.Join(workloads.Apps(), ", "))
		}
	}
	return nil
}

// TableI computes the distribution of link idle intervals for every
// application and process count (experiment E1) on the pool, streaming each
// rank once.
func (r *Runner) TableI() ([]TableIRow, error) {
	pts := allPoints()
	return sweep.MapLargestFirst(context.Background(), r.workers(len(pts)), pts, point.size,
		func(_ context.Context, _ int, p point) (TableIRow, error) {
			src, err := r.source(p.app, p.np)
			if err != nil {
				return TableIRow{}, err
			}
			dist, err := trace.SourceIdleDistribution(src)
			if err != nil {
				return TableIRow{}, err
			}
			return TableIRow{App: p.app, NP: p.np, Dist: dist}, nil
		})
}

// TableIII selects GT for every application and process count
// (experiment E7) on the pool.
func (r *Runner) TableIII() ([]TableIIIRow, error) {
	pts := allPoints()
	return sweep.MapLargestFirst(context.Background(), r.workers(len(pts)), pts, point.size,
		func(_ context.Context, _ int, p point) (TableIIIRow, error) {
			gt, hit, err := r.chooseGT(p.app, p.np, r.Opt, 1)
			if err != nil {
				return TableIIIRow{}, err
			}
			return TableIIIRow{App: p.app, NP: p.np, GT: gt, HitRatePct: hit}, nil
		})
}

// Figure runs the full co-simulation for one displacement factor over all
// applications and process counts (experiments E3–E5) on the pool,
// restricted to the given applications when any are named. GT per workload
// is chosen as in Table III; the Runner reuses traces and GT choices across
// displacement factors.
func (r *Runner) Figure(displacement float64, apps ...string) ([]FigureRow, error) {
	if err := checkApps(apps); err != nil {
		return nil, err
	}
	pts := allPoints(apps...)
	return sweep.MapLargestFirst(context.Background(), r.workers(len(pts)), pts, point.size,
		func(_ context.Context, _ int, p point) (FigureRow, error) {
			row, err := r.figurePoint(p.app, p.np, r.Opt, displacement)
			if err != nil {
				return FigureRow{}, fmt.Errorf("%s np=%d: %w", p.app, p.np, err)
			}
			return row, nil
		})
}

// figurePoint is FigurePoint over the Runner's caches: the source, Table III
// threshold and baseline of (app, np, opt) are each computed once per
// Runner, however many figures share them; only the mechanism run is
// replayed per displacement factor.
func (r *Runner) figurePoint(app string, np int, opt workloads.Options, displacement float64) (FigureRow, error) {
	src, err := r.sourceOpt(app, np, opt)
	if err != nil {
		return FigureRow{}, err
	}
	gt, _, err := r.chooseGT(app, np, opt, 1)
	if err != nil {
		return FigureRow{}, err
	}
	base, err := r.baseline(app, np, opt)
	if err != nil {
		return FigureRow{}, err
	}
	res, err := replay.RunSource(src, r.Cfg.WithPower(gt, displacement))
	if err != nil {
		return FigureRow{}, err
	}
	return figureRow(app, np, gt, base, res), nil
}

// TableIV measures real wall-clock PPA overheads at 16 processes (NAS BT
// uses its square count, also 16), experiment E8. Trace generation and GT
// selection run on the pool; the wall-clock overhead measurement itself
// stays serial, because concurrent measurement would contend for CPUs and
// inflate the reported timings.
func (r *Runner) TableIV() ([]TableIVRow, error) {
	type prep struct {
		src trace.Source
		gt  time.Duration
	}
	apps := workloads.Apps()
	preps, err := sweep.Map(context.Background(), r.workers(len(apps)), apps,
		func(_ context.Context, _ int, app string) (prep, error) {
			src, err := r.source(app, 16)
			if err != nil {
				return prep{}, err
			}
			gt, _, err := r.chooseGT(app, 16, r.Opt, 1)
			if err != nil {
				return prep{}, err
			}
			return prep{src: src, gt: gt}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []TableIVRow
	for i, app := range apps {
		rep, err := predictor.MeasureOverheads(r.Cfg.Power.PredictorName, preps[i].src,
			predictor.Config{GT: preps[i].gt, Displacement: 0.01})
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIVRow{App: app, Report: rep})
	}
	return rows, nil
}

// WeakScaling tests the paper's prediction that the mechanism "would be
// more effective for weak scaling than for strong scaling runs"
// (Section III): the same applications are generated with per-rank work held
// constant and replayed at the given displacement factor (experiment E13).
// Points run on the pool; the strong/weak pair of one point stays together
// so both rows see the same scheduling.
func (r *Runner) WeakScaling(displacement float64) ([]WeakScalingRow, error) {
	var pts []point
	for _, app := range workloads.Apps() {
		counts := workloads.ProcCounts(app)
		for _, np := range []int{counts[0], counts[2], counts[4]} {
			pts = append(pts, point{app: app, np: np})
		}
	}
	return sweep.MapLargestFirst(context.Background(), r.workers(len(pts)), pts, point.size,
		func(_ context.Context, _ int, p point) (WeakScalingRow, error) {
			var pair [2]FigureRow
			for i, weak := range []bool{false, true} {
				o := r.Opt
				o.Weak = weak
				row, err := r.figurePoint(p.app, p.np, o, displacement)
				if err != nil {
					return WeakScalingRow{}, fmt.Errorf("%s np=%d weak=%v: %w", p.app, p.np, weak, err)
				}
				pair[i] = row
			}
			return WeakScalingRow{App: p.app, NP: p.np, Strong: pair[0], Weak: pair[1]}, nil
		})
}

// GTSweep evaluates the Figure 10 hit-rate curve of one workload over the
// default grid (experiment E6) for the Runner's predictor, with ranks
// spread over the pool: a single workload has no point sweep to share it.
func (r *Runner) GTSweep(app string, np int) ([]GTSweepPoint, error) {
	src, err := r.source(app, np)
	if err != nil {
		return nil, err
	}
	return GTSweep(src, r.Cfg.Power.PredictorName, DefaultGTGrid(), r.Cfg.Parallelism)
}

// Timeline replays one workload with the mechanism on at its Table III
// grouping threshold and records every rank's link power timeline
// (Figure 6, experiment E9). GT selection spreads the ranks over the pool.
// It returns the run and the threshold it used.
func (r *Runner) Timeline(app string, np int, displacement float64) (*replay.Result, time.Duration, error) {
	src, err := r.source(app, np)
	if err != nil {
		return nil, 0, err
	}
	gt, _, err := r.chooseGT(app, np, r.Opt, r.Cfg.Parallelism)
	if err != nil {
		return nil, 0, err
	}
	cfg := r.Cfg.WithPower(gt, displacement)
	cfg.Power.RecordTimelines = true
	res, err := replay.RunSource(src, cfg)
	return res, gt, err
}
