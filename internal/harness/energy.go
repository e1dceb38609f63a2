package harness

import (
	"fmt"
	"io"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/power"
	"ibpower/internal/replay"
	"ibpower/internal/stats"
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

// Energy runs the lanes-only and deep-sleep mechanisms for one workload and
// aggregates switch- and fabric-level power (extension experiment E11).
// deep configures the Section VI scenario; the zero value selects the 1 ms
// reactivation with the breakeven entry threshold. cfg carries the network
// parameters and the predictor selection (cfg.Power.PredictorName); its
// power block is otherwise rebuilt per run.
func Energy(app string, np int, displacement float64, opt workloads.Options, deep power.DeepConfig, cfg replay.Config) (*EnergyRow, error) {
	tr, err := workloads.Generate(app, np, opt)
	if err != nil {
		return nil, err
	}
	gt, _, err := ChooseGT(tr, DefaultGTGrid(), 1.0)
	if err != nil {
		return nil, err
	}
	bcfg := cfg
	bcfg.Power.Enabled = false
	base, err := replay.RunSource(tr, bcfg)
	if err != nil {
		return nil, err
	}
	lanes, err := replay.RunSource(tr, cfg.WithPower(gt, displacement))
	if err != nil {
		return nil, err
	}
	deepRes, err := replay.RunSource(tr, cfg.WithPower(gt, displacement).WithDeepSleep(deep))
	if err != nil {
		return nil, err
	}

	row := &EnergyRow{
		App: app, NP: np, GT: gt,
		PaperSavingPct:      lanes.AvgSavingPct(),
		TimeIncreasePct:     lanes.TimeIncreasePct(base),
		DeepSavingPct:       deepRes.AvgSavingPct(),
		DeepTimeIncreasePct: deepRes.TimeIncreasePct(base),
	}
	fabric, err := cfg.Fabric()
	if err != nil {
		return nil, err
	}
	row.FabricSavingPct = fabricSaving(fabric, lanes, np)
	return row, nil
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
