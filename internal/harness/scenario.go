package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/scenario"
	"ibpower/internal/stats"
	"ibpower/internal/sweep"
)

// scenarioConfig assembles the scenario.Config for one cell, wiring in the
// cached hooks multijobConfig's static mix uses too: a sweep over S
// schedulers and P placements generates each distinct (app, NP) trace once,
// selects its grouping threshold once, and replays its dedicated baseline
// once, no matter how many cells churn through the same job shapes.
func (r *Runner) scenarioConfig(spec scenario.Spec, sched, placement string, displacement float64, parallelism int) scenario.Config {
	cfg := scenario.Config{
		Spec:         spec,
		Scheduler:    sched,
		Placement:    placement,
		Opt:          r.Opt,
		Displacement: displacement,
		Replay:       r.Cfg,
		Generate:     r.source,
		SelectGT:     r.jobGT,
		Dedicated:    r.jobDedicated,
	}
	cfg.Replay.Parallelism = parallelism
	return cfg
}

// Scenario simulates one churn scenario under one scheduler and placement on
// the Runner's fabric (experiment E16's single cell).
func (r *Runner) Scenario(spec scenario.Spec, sched, placement string, displacement float64) (*multijob.ChurnResult, error) {
	return scenario.Run(r.scenarioConfig(spec, sched, placement, displacement, r.Cfg.Parallelism))
}

// ScenarioRow is one (scheduler, placement) cell of the churn sweep.
type ScenarioRow struct {
	Scheduler string
	Placement string
	Result    *multijob.ChurnResult
}

// ScenarioSweep evaluates the same arrival stream under every (scheduler,
// placement) pairing on the Cfg.Parallelism-bounded pool (experiment E16).
// Cells keep scheduler-major, placement-minor enumeration order and each
// cell's inner event loop stays serial, so rows are bit-identical at every
// pool size.
func (r *Runner) ScenarioSweep(spec scenario.Spec, schedulers, placements []string, displacement float64) ([]ScenarioRow, error) {
	if len(schedulers) == 0 {
		schedulers = scenario.Names()
	}
	for _, s := range schedulers {
		if err := scenario.CheckRegistered(s); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	if len(placements) == 0 {
		placements = multijob.Names()
	}
	for _, p := range placements {
		if err := multijob.CheckRegistered(p); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	type cell struct {
		sched     string
		placement string
	}
	var cells []cell
	for _, s := range schedulers {
		for _, p := range placements {
			cells = append(cells, cell{sched: s, placement: p})
		}
	}
	return sweep.Map(context.Background(), r.workers(len(cells)), cells,
		func(_ context.Context, _ int, c cell) (ScenarioRow, error) {
			res, err := scenario.Run(r.scenarioConfig(spec, c.sched, c.placement, displacement, 1))
			if err != nil {
				return ScenarioRow{}, fmt.Errorf("%s %s: %w", c.sched, c.placement, err)
			}
			return ScenarioRow{Scheduler: c.sched, Placement: c.placement, Result: res}, nil
		})
}

// ScenarioFaultRow is one (fault spec, scheduler) cell of the resilience
// sweep.
type ScenarioFaultRow struct {
	Faults    string // canonical fault spec; "" = fault-free baseline
	Scheduler string
	Result    *multijob.ChurnResult
}

// ScenarioFaultSweep evaluates the same arrival stream under every (fault
// spec, scheduler) pairing (experiment E17): each fault spec is overlaid on
// the base spec's faults key, an empty string meaning the fault-free
// baseline. Cells keep fault-major, scheduler-minor enumeration order on the
// Cfg.Parallelism-bounded pool; each cell's inner event loop stays serial, so
// rows are bit-identical at every pool size.
func (r *Runner) ScenarioFaultSweep(spec scenario.Spec, faultSpecs, schedulers []string, displacement float64) ([]ScenarioFaultRow, error) {
	if len(faultSpecs) == 0 {
		return nil, fmt.Errorf("harness: fault sweep needs at least one fault spec (\"\" selects the fault-free baseline)")
	}
	if len(schedulers) == 0 {
		schedulers = scenario.Names()
	}
	for _, s := range schedulers {
		if err := scenario.CheckRegistered(s); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	type cell struct {
		faults string
		sched  string
	}
	var cells []cell
	for _, f := range faultSpecs {
		clauses, err := scenario.ParseFaults(f)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		for _, s := range schedulers {
			cells = append(cells, cell{faults: scenario.FormatFaults(clauses), sched: s})
		}
	}
	return sweep.Map(context.Background(), r.workers(len(cells)), cells,
		func(_ context.Context, _ int, c cell) (ScenarioFaultRow, error) {
			cellSpec := spec
			clauses, err := scenario.ParseFaults(c.faults)
			if err != nil {
				return ScenarioFaultRow{}, err
			}
			cellSpec.Faults = clauses
			res, err := scenario.Run(r.scenarioConfig(cellSpec, c.sched, multijob.DefaultPlacement, displacement, 1))
			if err != nil {
				return ScenarioFaultRow{}, fmt.Errorf("faults=%q %s: %w", c.faults, c.sched, err)
			}
			return ScenarioFaultRow{Faults: c.faults, Scheduler: c.sched, Result: res}, nil
		})
}

// WriteScenarioFaultSweep renders the E17 resilience grid: per-cell makespan
// and queue wait alongside the fault layer's kill/retry/abandon counters,
// goodput, wasted terminal-seconds, mean surviving capacity, and unroutable
// transfer count.
func WriteScenarioFaultSweep(w io.Writer, spec scenario.Spec, rows []ScenarioFaultRow) error {
	base := spec
	base.Faults = nil
	fmt.Fprintf(w, "fault churn sweep over %s\n", base)
	t := stats.NewTable("faults", "scheduler", "makespan", "wait mean",
		"killed", "retried", "abandoned", "goodput[%]", "wasted[term-s]", "capacity[%]", "unroutable")
	for _, row := range rows {
		res := row.Result
		faults := row.Faults
		if faults == "" {
			faults = "none"
		}
		goodput := 100.0
		if res.FaultsActive {
			goodput = res.GoodputPct
		}
		var capMean float64
		if len(res.Capacity) > 0 {
			for _, c := range res.Capacity {
				capMean += c
			}
			capMean /= float64(len(res.Capacity))
		} else {
			capMean = 100
		}
		t.Row(faults, row.Scheduler, res.Fabric.MakeSpan.Round(time.Microsecond),
			res.WaitMean.Round(time.Microsecond),
			res.Killed, res.Retried, res.Abandoned,
			goodput, res.WastedTermSeconds, capMean, res.Unroutable)
	}
	return t.Write(w)
}

// WriteScenarioSweep renders the E16 sweep: per-cell makespan, the
// queue-wait distribution, mean sharing overhead over the stream's jobs, and
// the fabric-wide energy figure.
func WriteScenarioSweep(w io.Writer, spec scenario.Spec, rows []ScenarioRow) error {
	fmt.Fprintf(w, "job churn sweep over %s\n", spec)
	t := stats.NewTable("scheduler", "placement", "makespan",
		"wait mean", "wait p95", "wait max", "sharing dT[%]", "fabric saving[%]", "mean util[%]")
	for _, row := range rows {
		var dt float64
		for _, j := range row.Result.Jobs {
			dt += j.SharingOverheadPct
		}
		n := float64(len(row.Result.Jobs))
		f := row.Result.Fabric
		var util float64
		for _, u := range row.Result.Util {
			util += u
		}
		if len(row.Result.Util) > 0 {
			util /= float64(len(row.Result.Util))
		}
		t.Row(row.Scheduler, row.Placement, f.MakeSpan.Round(time.Microsecond),
			row.Result.WaitMean.Round(time.Microsecond),
			row.Result.WaitP95.Round(time.Microsecond),
			row.Result.WaitMax.Round(time.Microsecond),
			dt/n, f.SavingPct, util)
	}
	return t.Write(w)
}
