package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ibpower/internal/harness"
	"ibpower/internal/multijob"
	"ibpower/internal/replay"
	"ibpower/internal/scenario"
	"ibpower/internal/sweep"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// A workload is one set of benchmark inputs. setup builds them from the seed
// and returns an instance whose run executes one timed iteration. scale
// multiplies the workload's IterScale; the benchmark always uses 1, the tests
// shrink it.
//
// run and setup take the span pass's probe: nil in untraced and profiled
// passes, where each workload makes exactly the public call a CLI user would
// (Runner.Figure, RunJobs, RunSource, Runner.Scenario). With a probe the same
// work is decomposed into timed public calls over wrapped layers; the digest
// check proves both paths simulate the same thing.
type workload struct {
	name     string
	why      string
	settings string // the fixed settings, recorded in the manifest
	setup    func(seed int64, scale float64, dir string, p *probe) (*instance, error)
}

// instance is one set-up workload. run makes the timed call and returns a
// function that summarizes its result, so hashing stays out of the timing.
type instance struct {
	calls   int // MPI calls in the traces one iteration replays
	jobs    int // jobs one iteration simulates
	workers int // sweep pool width of the untraced iteration
	run     func(p *probe) (func() outcome, error)
	close   func()

	// runQuiet, when set, is run with telemetry off; the traced run times it
	// to report what telemetry costs.
	runQuiet func() (func() outcome, error)
}

// outcome is what one iteration simulated: its digest, the headline
// simulated results the workload produces (link power saving, execution-time
// increase, goodput; percent), and event counts.
type outcome struct {
	digest    string
	simulated map[string]float64
	sim       simCounters
}

// simCounters are simulated event counts; a change in any of them is a
// change in the simulation, never a speed-up.
type simCounters struct {
	shutdowns, demandWakes     int // accepted lane shutdowns, early wakes
	transfers, unroutable      int
	killed, retried, abandoned int
}

// Fixed workload settings. They are part of the benchmark definition:
// changing one changes every number it reports.
const (
	fig7Scale   = 0.25
	fig7D       = 0.10
	spreadScale = 0.25
	streamScale = 1.0
	churnScale  = 0.15
	fixedGT     = 20 * time.Microsecond
	fixedD      = 0.01
	churnSpec   = "jobs=100,size=zipf:8:128,arrival=poisson:60ms"
	churnFaults = "link:poisson:500ms:mttr=100ms,switch:poisson:3s:mttr=300ms,term:poisson:2s:mttr=500ms"
	churnSched  = "backfill"
	churnPlace  = "roundrobin"
	// churnSeed fixes the scenario: arrivals, job sizes and the fault
	// timeline. -seed varies the job traces only; a seeded job mix moves the
	// work in an iteration by more than any host-time bound could absorb.
	churnSeed = 42
)

var spreadApps = []string{"gromacs", "alya", "wrf", "nasmg"}

const spreadNP = 128

var allWorkloads = []workload{
	{
		name:     "fig7-paper",
		why:      "the paper's Figure 7 sweep users rerun: GT selection, predictor and replay over 25 points; the only sweep-pool user",
		settings: fmt.Sprintf("Runner.Figure(%g) IterScale=%g Parallelism=0", fig7D, fig7Scale),
		setup:    setupFig7,
	},
	{
		name:     "spread-8k",
		why:      "routing-heavy: four 128-rank jobs scattered over the 8000-terminal fat tree, where the route cache mostly misses",
		settings: fmt.Sprintf("RunJobs %v x%d random on xgft3-big IterScale=%g GT=%v d=%g", spreadApps, spreadNP, spreadScale, fixedGT, fixedD),
		setup:    setupSpread,
	},
	{
		name:     "stream-wrf",
		why:      "the only trace-file decoder; its routes mostly hit the cache, the opposite of spread-8k",
		settings: fmt.Sprintf("RunSource wrf:128 from .ibt IterScale=%g GT=%v d=%g", streamScale, fixedGT, fixedD),
		setup:    setupStream,
	},
	{
		name: "churn-faults",
		why:  "online cluster: scheduler, kill/retry, fault detours that bypass the route cache, and the only telemetry user",
		settings: fmt.Sprintf("Runner.Scenario(%s,seed=%d,faults=%s) %s %s d=%g IterScale=%g Parallelism=1 telemetry",
			churnSpec, churnSeed, churnFaults, churnSched, churnPlace, fixedD, churnScale),
		setup: setupChurn,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

// generate is workloads.Generate, timed as the workloads layer.
func generate(p *probe, app string, np int, opt workloads.Options) (*trace.Trace, error) {
	var tr *trace.Trace
	err := p.span(spanGenerate, func() (err error) {
		tr, err = workloads.Generate(app, np, opt)
		return err
	})
	return tr, err
}

func setupFig7(seed int64, scale float64, _ string, p *probe) (*instance, error) {
	opt := workloads.Options{IterScale: fig7Scale * scale, Seed: seed}
	// Every point is replayed twice per iteration: baseline and mechanism.
	calls, points := 0, 0
	for _, app := range workloads.Apps() {
		for _, np := range workloads.ProcCounts(app) {
			tr, err := generate(p, app, np, opt)
			if err != nil {
				return nil, err
			}
			calls += 2 * tr.NumCalls()
			points++
		}
	}
	cfg := replay.DefaultConfig()
	return &instance{
		calls:   calls,
		jobs:    2 * points,
		workers: sweep.Workers(cfg.Parallelism, points),
		close:   func() {},
		run: func(p *probe) (func() outcome, error) {
			var rows []harness.FigureRow
			var sim simCounters
			var err error
			if p == nil {
				rows, err = harness.NewRunner(opt, cfg).Figure(fig7D)
			} else {
				rows, sim, err = fig7Traced(p, opt)
			}
			if err != nil {
				return nil, err
			}
			return func() outcome {
				var saving, incr float64
				for _, r := range rows {
					saving += r.SavingPct / float64(len(rows))
					incr += r.TimeIncreasePct / float64(len(rows))
				}
				return outcome{digest: digestRows(rows), sim: sim,
					simulated: map[string]float64{"saving_pct": saving, "time_incr_pct": incr}}
			}, nil
		},
	}, nil
}

// fig7Traced is Runner.Figure serially, as its public parts: generation, GT
// selection, and FigurePoint's two replays, whose Results carry the power
// counters FigurePoint's row drops.
func fig7Traced(p *probe, opt workloads.Options) ([]harness.FigureRow, simCounters, error) {
	var rows []harness.FigureRow
	var sim simCounters
	cfg := p.config(replay.DefaultConfig())
	for _, app := range workloads.Apps() {
		for _, np := range workloads.ProcCounts(app) {
			tr, err := generate(p, app, np, opt)
			if err != nil {
				return nil, sim, err
			}
			var gt time.Duration
			if err := p.span(spanChooseGT, func() (err error) {
				gt, _, err = harness.ChooseGT(tr, harness.DefaultGTGrid(), 1.0)
				return err
			}); err != nil {
				return nil, sim, err
			}
			base, err := p.replay(tr, cfg)
			if err != nil {
				return nil, sim, err
			}
			res, err := p.replay(tr, cfg.WithPower(gt, fig7D))
			if err != nil {
				return nil, sim, err
			}
			sim.add(base)
			sim.add(res)
			rows = append(rows, harness.FigureRow{
				App: app, NP: np, GT: gt,
				SavingPct:       res.AvgSavingPct(),
				TimeIncreasePct: res.TimeIncreasePct(base),
				HitRatePct:      res.AvgHitRatePct(),
				LowFraction:     res.AvgLowFraction(),
				BaseExec:        base.ExecTime,
				Exec:            res.ExecTime,
			})
		}
	}
	return rows, sim, nil
}

func (s *simCounters) add(r *replay.Result) {
	s.shutdowns += r.Shutdowns
	s.demandWakes += r.DemandWakes
	s.transfers += r.Transfers
}

func setupSpread(seed int64, scale float64, _ string, p *probe) (*instance, error) {
	fabric, err := topology.Named("xgft3-big")
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(spreadApps))
	for i := range sizes {
		sizes[i] = spreadNP
	}
	terms, err := multijob.Place("random", fabric, sizes, seed)
	if err != nil {
		return nil, err
	}
	opt := workloads.Options{IterScale: spreadScale * scale, Seed: seed}
	jobs := make([]replay.Job, len(spreadApps))
	calls := 0
	for i, app := range spreadApps {
		tr, err := generate(p, app, spreadNP, opt)
		if err != nil {
			return nil, err
		}
		calls += tr.NumCalls()
		jobs[i] = replay.Job{Trace: tr, Terminals: terms[i]}
	}
	cfg := replay.DefaultConfig().WithFabric("xgft3-big").WithPower(fixedGT, fixedD)
	return &instance{
		calls:   calls,
		jobs:    len(jobs),
		workers: 1,
		close:   func() {},
		run: func(p *probe) (func() outcome, error) {
			var mr *replay.MultiResult
			err := p.span(spanReplay, func() (err error) {
				mr, err = replay.RunJobs(jobs, p.config(cfg))
				return err
			})
			if err != nil {
				return nil, err
			}
			return func() outcome {
				out := outcome{digest: digestMulti(mr)}
				saving := 0.0
				for _, r := range mr.Jobs {
					saving += r.AvgSavingPct() / float64(len(mr.Jobs))
					out.sim.add(r)
				}
				out.simulated = map[string]float64{"saving_pct": saving}
				return out
			}, nil
		},
	}, nil
}

func setupStream(seed int64, scale float64, dir string, p *probe) (*instance, error) {
	opt := workloads.Options{IterScale: streamScale * scale, Seed: seed}
	path := filepath.Join(dir, "wrf128.ibt")
	err := p.span(spanGenerate, func() error {
		src, err := workloads.NewSource("wrf", 128, opt)
		if err != nil {
			return err
		}
		return packFile(path, src)
	})
	if err != nil {
		return nil, err
	}
	f, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	src, err := f.Source("wrf", 128)
	if err != nil {
		f.Close()
		return nil, err
	}
	calls, err := countCalls(src)
	if err != nil {
		f.Close()
		return nil, err
	}
	cfg := replay.DefaultConfig().WithPower(fixedGT, fixedD)
	return &instance{
		calls:   calls,
		jobs:    1,
		workers: 1,
		close:   func() { f.Close() },
		run: func(p *probe) (func() outcome, error) {
			res, err := p.replay(p.source(src), p.config(cfg))
			if err != nil {
				return nil, err
			}
			return func() outcome {
				out := outcome{digest: digestResult(res), simulated: map[string]float64{"saving_pct": res.AvgSavingPct()}}
				out.sim.add(res)
				return out
			}, nil
		},
	}, nil
}

// packFile writes src to path in the packed binary trace format.
func packFile(path string, src trace.Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinarySources(f, src); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countCalls streams every rank of src once and counts its MPI calls.
func countCalls(src trace.Source) (int, error) {
	n := 0
	for r := 0; r < src.Meta().NP; r++ {
		c := src.Open(r)
		for {
			op, ok := c.Next()
			if !ok {
				break
			}
			if op.Kind == trace.OpCall {
				n++
			}
		}
		if err := c.Err(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func setupChurn(seed int64, scale float64, _ string, p *probe) (*instance, error) {
	spec, err := scenario.ParseSpec(fmt.Sprintf("%s,seed=%d,faults=%s", churnSpec, churnSeed, churnFaults))
	if err != nil {
		return nil, err
	}
	arrivals, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	opt := workloads.Options{IterScale: churnScale * scale, Seed: seed}
	// Calls of every job's trace: the work the scenario completes when no
	// fault kills a job. Each distinct shape is generated once.
	shapeCalls := map[multijob.JobSpec]int{}
	calls := 0
	for _, a := range arrivals {
		n, ok := shapeCalls[a.Job]
		if !ok {
			tr, err := generate(p, a.Job.App, a.Job.NP, opt)
			if err != nil {
				return nil, err
			}
			n = tr.NumCalls()
			shapeCalls[a.Job] = n
		}
		calls += n
	}
	cfg := replay.DefaultConfig()
	cfg.Parallelism = 1
	cfg.Telemetry.Enabled = true
	return &instance{
		calls:   calls,
		jobs:    len(arrivals),
		workers: sweep.Workers(cfg.Parallelism, len(shapeCalls)),
		close:   func() {},
		run: func(p *probe) (func() outcome, error) {
			return runChurn(p, spec, opt, cfg)
		},
		runQuiet: func() (func() outcome, error) {
			quiet := cfg
			quiet.Telemetry = replay.TelemetryConfig{}
			return runChurn(nil, spec, opt, quiet)
		},
	}, nil
}

func runChurn(p *probe, spec scenario.Spec, opt workloads.Options, cfg replay.Config) (func() outcome, error) {
	var res *multijob.ChurnResult
	var err error
	if p == nil {
		res, err = harness.NewRunner(opt, cfg).Scenario(spec, churnSched, churnPlace, fixedD)
	} else {
		res, err = churnTraced(p, spec, opt, cfg)
	}
	if err != nil {
		return nil, err
	}
	return func() outcome {
		return outcome{
			digest:    digestChurn(res),
			simulated: map[string]float64{"saving_pct": res.Fabric.SavingPct, "goodput_pct": res.GoodputPct},
			sim: simCounters{
				transfers: res.Fabric.Transfers, unroutable: res.Unroutable,
				killed: res.Killed, retried: res.Retried, abandoned: res.Abandoned,
			},
		}
	}, nil
}

// churnTraced is Runner.Scenario with the Runner's per-run caches rebuilt
// from public calls, so generation, GT selection and the dedicated baseline
// replays are timed individually, and with the scheduler wrapped. At
// Parallelism 1 the scenario prepares jobs serially, so the caches need no
// lock.
func churnTraced(p *probe, spec scenario.Spec, opt workloads.Options, cfg replay.Config) (*multijob.ChurnResult, error) {
	cfg = p.config(cfg)
	srcs := map[trace.Meta]*trace.Trace{}
	gts := map[trace.Meta]time.Duration{}
	type dedKey struct {
		m  trace.Meta
		gt time.Duration
		d  float64
	}
	deds := map[dedKey]*replay.Result{}
	var res *multijob.ChurnResult
	err := p.span(spanScenario, func() (err error) {
		res, err = scenario.Run(scenario.Config{
			Spec:         spec,
			Scheduler:    probeScheduler,
			Placement:    churnPlace,
			Opt:          opt,
			Displacement: fixedD,
			Replay:       cfg,
			Generate: func(app string, np int) (trace.Source, error) {
				m := trace.Meta{App: app, NP: np}
				if tr, ok := srcs[m]; ok {
					return tr, nil
				}
				tr, err := generate(p, app, np, opt)
				if err != nil {
					return nil, err
				}
				srcs[m] = tr
				return tr, nil
			},
			SelectGT: func(src trace.Source) (time.Duration, error) {
				m := src.Meta()
				if gt, ok := gts[m]; ok {
					return gt, nil
				}
				var gt time.Duration
				err := p.span(spanChooseGT, func() (err error) {
					gt, _, err = harness.ChooseGT(src, harness.DefaultGTGrid(), 1.0)
					return err
				})
				gts[m] = gt
				return gt, err
			},
			Dedicated: func(src trace.Source, gt time.Duration, d float64) (*replay.Result, error) {
				k := dedKey{src.Meta(), gt, d}
				if r, ok := deds[k]; ok {
					return r, nil
				}
				bcfg := cfg
				bcfg.Power = multijob.JobPower(cfg, gt, d)
				r, err := p.replay(src, bcfg)
				deds[k] = r
				return r, err
			},
		})
		return err
	})
	return res, err
}
