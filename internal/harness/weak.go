package harness

import (
	"fmt"
	"io"

	"ibpower/internal/stats"
)

// WeakScalingRow compares strong- and weak-scaling savings at one point.
type WeakScalingRow struct {
	App    string
	NP     int
	Strong FigureRow
	Weak   FigureRow
}

// WriteWeakScaling renders the comparison.
func WriteWeakScaling(w io.Writer, rows []WeakScalingRow) error {
	t := stats.NewTable("app", "Nproc",
		"strong saving[%]", "weak saving[%]", "strong dT[%]", "weak dT[%]")
	for _, r := range rows {
		t.Row(r.App, r.NP, r.Strong.SavingPct, r.Weak.SavingPct,
			fmt.Sprintf("%.2f", r.Strong.TimeIncreasePct),
			fmt.Sprintf("%.2f", r.Weak.TimeIncreasePct))
	}
	return t.Write(w)
}
