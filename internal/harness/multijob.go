package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/stats"
	"ibpower/internal/sweep"
)

// multijobConfig assembles the static mix of one cell: a ChurnConfig whose
// jobs all arrive at time 0, admitted by the nil (static) Schedule. It wires
// the Runner's caches in: traces come from the per-run trace cache and
// grouping thresholds from the Table III GT cache, so a sweep over P
// placements never regenerates or re-selects anything P times.
func (r *Runner) multijobConfig(jobs []multijob.JobSpec, placement string, displacement float64, parallelism int) multijob.ChurnConfig {
	arrivals := make([]multijob.Arrival, len(jobs))
	for i, js := range jobs {
		arrivals[i] = multijob.Arrival{Job: js}
	}
	cfg := multijob.ChurnConfig{
		Arrivals:     arrivals,
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

// Multijob simulates one job mix under one placement policy on the Runner's
// fabric (experiment E15's single cell). Traces and GT choices are cached on
// the Runner; the per-job dedicated baselines run on the Cfg.Parallelism
// pool.
func (r *Runner) Multijob(jobs []multijob.JobSpec, placement string, displacement float64) (*multijob.ChurnResult, error) {
	return multijob.RunChurn(r.multijobConfig(jobs, placement, displacement, r.Cfg.Parallelism))
}

// MultijobRow is one (placement, job mix) cell of the sharing sweep.
type MultijobRow struct {
	Placement string
	Mix       string
	Result    *multijob.ChurnResult
}

// DefaultJobMixes returns the job mixes the E15 sweep evaluates: a pair of
// regular iterators, an asymmetric large/small pair, a three-tenant mix, and
// a four-tenant mix filling most of the edge. Every mix totals <= 144 ranks,
// so the sweep runs on every registered fabric preset.
func DefaultJobMixes() [][]multijob.JobSpec {
	return [][]multijob.JobSpec{
		{{App: "gromacs", NP: 16}, {App: "alya", NP: 16}},
		{{App: "gromacs", NP: 64}, {App: "alya", NP: 16}},
		{{App: "alya", NP: 16}, {App: "nasbt", NP: 16}, {App: "wrf", NP: 16}},
		{{App: "gromacs", NP: 32}, {App: "wrf", NP: 32}, {App: "nasmg", NP: 32}, {App: "alya", NP: 32}},
	}
}

// MultijobSweep evaluates every (placement, job mix) cell on the
// Cfg.Parallelism-bounded pool (experiment E15), the mix with the most ranks
// first. Rows keep placement-major, mix-minor enumeration order and each
// cell's inner runs stay serial — the cell sweep above already saturates the
// pool — so rows are bit-identical at every pool size.
func (r *Runner) MultijobSweep(placements []string, mixes [][]multijob.JobSpec, displacement float64) ([]MultijobRow, error) {
	if len(placements) == 0 {
		placements = multijob.Names()
	}
	for _, p := range placements {
		if err := multijob.CheckRegistered(p); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	if len(mixes) == 0 {
		mixes = DefaultJobMixes()
	}
	type cell struct {
		placement string
		mix       []multijob.JobSpec
		ranks     int // the mix's total process count, its feed-order size
	}
	var cells []cell
	for _, p := range placements {
		for _, m := range mixes {
			c := cell{placement: p, mix: m}
			for _, j := range m {
				c.ranks += j.NP
			}
			cells = append(cells, c)
		}
	}
	return sweep.MapLargestFirst(context.Background(), r.workers(len(cells)), cells,
		func(c cell) int { return c.ranks },
		func(_ context.Context, _ int, c cell) (MultijobRow, error) {
			res, err := multijob.RunChurn(r.multijobConfig(c.mix, c.placement, displacement, 1))
			if err != nil {
				return MultijobRow{}, fmt.Errorf("%s %s: %w", c.placement, multijob.FormatJobs(c.mix), err)
			}
			return MultijobRow{
				Placement: c.placement,
				Mix:       multijob.FormatJobs(c.mix),
				Result:    res,
			}, nil
		})
}

// WriteMultijobSweep renders the E15 sweep: per-cell makespan, the mean
// sharing overhead and saving over the mix's jobs, and the fabric-wide
// figures.
func WriteMultijobSweep(w io.Writer, rows []MultijobRow) error {
	fmt.Fprintln(w, "multi-job fabric sharing sweep (per-cell means over the mix's jobs; overhead vs dedicated fabric)")
	t := stats.NewTable("placement", "jobs", "makespan",
		"sharing dT[%]", "saving[%]", "fabric saving[%]", "links used", "mean util[%]")
	for _, row := range rows {
		var dt, sv float64
		for _, j := range row.Result.Jobs {
			dt += j.SharingOverheadPct
			sv += j.SavingPct
		}
		n := float64(len(row.Result.Jobs))
		f := row.Result.Fabric
		t.Row(row.Placement, row.Mix, f.MakeSpan.Round(time.Microsecond),
			dt/n, sv/n, f.SavingPct, f.LinksUsed, f.MeanUtilPct)
	}
	return t.Write(w)
}
