package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/power"
	"ibpower/internal/replay"
	"ibpower/internal/stats"
	"ibpower/internal/sweep"
	"ibpower/internal/topology"
	"ibpower/internal/workloads"
)

// EnergyRow reports fabric-level energy for one workload: the paper's
// whole-switch savings metric next to the decomposed link-share model and
// the Section VI deep-sleep scenario.
type EnergyRow struct {
	App string
	NP  int
	GT  time.Duration

	// PaperSavingPct uses the paper's model: whole switch at 43 % while the
	// link is in WRPS mode, averaged over processes.
	PaperSavingPct float64
	// FabricSavingPct uses the decomposed switch model (links = 64 % of
	// switch power; unmanaged uplinks always on).
	FabricSavingPct float64
	// DeepSavingPct and DeepTimeIncreasePct evaluate the deep-sleep run.
	DeepSavingPct       float64
	DeepTimeIncreasePct float64
	TimeIncreasePct     float64
}

// Energy runs the lanes-only and deep-sleep mechanisms for each named
// application at np processes — every application when none are named, in
// the order given otherwise — and aggregates switch- and fabric-level power
// (extension experiment E11) on the pool. deep configures the Section VI
// scenario; the zero value selects the 1 ms reactivation with the breakeven
// entry threshold. Both runs use the Runner's predictor and fabric at the
// workload's Table III grouping threshold, against its cached baseline.
func (r *Runner) Energy(displacement float64, np int, deep power.DeepConfig, apps ...string) ([]*EnergyRow, error) {
	if err := checkApps(apps); err != nil {
		return nil, err
	}
	if len(apps) == 0 {
		apps = workloads.Apps()
	}
	fabric, err := r.Cfg.Fabric()
	if err != nil {
		return nil, err
	}
	return sweep.Map(context.Background(), r.workers(len(apps)), apps,
		func(_ context.Context, _ int, app string) (*EnergyRow, error) {
			src, err := r.source(app, np)
			if err != nil {
				return nil, err
			}
			gt, _, err := r.chooseGT(app, np, r.Opt, 1)
			if err != nil {
				return nil, err
			}
			base, err := r.baseline(app, np, r.Opt)
			if err != nil {
				return nil, err
			}
			lanes, err := replay.RunSource(src, r.Cfg.WithPower(gt, displacement))
			if err != nil {
				return nil, err
			}
			deepRes, err := replay.RunSource(src, r.Cfg.WithPower(gt, displacement).WithDeepSleep(deep))
			if err != nil {
				return nil, err
			}
			return &EnergyRow{
				App: app, NP: np, GT: gt,
				PaperSavingPct:      lanes.AvgSavingPct(),
				FabricSavingPct:     fabricSaving(fabric, lanes, np),
				TimeIncreasePct:     lanes.TimeIncreasePct(base),
				DeepSavingPct:       deepRes.AvgSavingPct(),
				DeepTimeIncreasePct: deepRes.TimeIncreasePct(base),
			}, nil
		})
}

// fabricSaving applies the decomposed switch power model to a single-job
// run, where rank r occupies terminal r (the identity placement
// replay.RunSource uses). On the paper's XGFT the first-hop switches are the leaf switches
// and the always-on count is their uplinks; on a dragonfly or torus it is
// the routers and their local/global (ring) links — in every fabric, exactly
// the switch-to-switch links the mechanism does not manage. The grouping and
// model live in multijob.FabricSavingPct, shared with the multi-tenant
// fabric summary.
func fabricSaving(topo topology.Fabric, res *replay.Result, np int) float64 {
	n := np
	if len(res.Acct) < n {
		n = len(res.Acct)
	}
	terms := make([]int, n)
	for r := range terms {
		terms[r] = r
	}
	return multijob.FabricSavingPct(topo, terms, res.Acct[:n])
}

// WriteEnergy renders energy rows.
func WriteEnergy(w io.Writer, rows []*EnergyRow) error {
	t := stats.NewTable("app", "Nproc", "GT[us]",
		"paper model[%]", "fabric model[%]", "deep[%]",
		"dT lanes[%]", "dT deep[%]")
	for _, r := range rows {
		t.Row(r.App, r.NP, int(r.GT/time.Microsecond),
			r.PaperSavingPct, r.FabricSavingPct, r.DeepSavingPct,
			fmt.Sprintf("%.2f", r.TimeIncreasePct),
			fmt.Sprintf("%.2f", r.DeepTimeIncreasePct))
	}
	return t.Write(w)
}
