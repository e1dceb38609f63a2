package harness

import (
	"context"
	"io"
	"time"

	"ibpower/internal/dvs"
	"ibpower/internal/replay"
	"ibpower/internal/stats"
	"ibpower/internal/sweep"
	"ibpower/internal/workloads"
)

// DVSRow compares the WRPS on/off mechanism with the history-based link DVS
// baseline of the related work (Section V) on host-link power for one
// application.
type DVSRow struct {
	App string
	NP  int

	WRPSSavingPct float64       // mechanism at the workload's Table III GT
	DVSSavingPct  float64       // DVS baseline, default levels and window
	DVSAdded      time.Duration // serialization DVS adds per rank
}

// DVS runs the mechanism and the DVS baseline over every application at np
// processes (experiment E12) on the pool.
func (r *Runner) DVS(displacement float64, np int) ([]DVSRow, error) {
	apps := workloads.Apps()
	return sweep.Map(context.Background(), r.workers(len(apps)), apps,
		func(_ context.Context, _ int, app string) (DVSRow, error) {
			src, err := r.source(app, np)
			if err != nil {
				return DVSRow{}, err
			}
			gt, _, err := r.chooseGT(app, np, r.Opt, 1)
			if err != nil {
				return DVSRow{}, err
			}
			wrps, err := replay.RunSource(src, r.Cfg.WithPower(gt, displacement))
			if err != nil {
				return DVSRow{}, err
			}
			dv, err := dvs.Evaluate(src)
			if err != nil {
				return DVSRow{}, err
			}
			return DVSRow{App: app, NP: np, WRPSSavingPct: wrps.AvgSavingPct(),
				DVSSavingPct: dv.AvgSavingPct(), DVSAdded: dv.AvgAddedSerial()}, nil
		})
}

// WriteDVS renders the mechanism-versus-DVS comparison.
func WriteDVS(w io.Writer, rows []DVSRow) error {
	t := stats.NewTable("app", "Nproc", "WRPS saving[%]", "DVS saving[%]", "DVS added serial/rank")
	for _, r := range rows {
		t.Row(r.App, r.NP, r.WRPSSavingPct, r.DVSSavingPct, r.DVSAdded.Round(time.Microsecond))
	}
	return t.Write(w)
}
