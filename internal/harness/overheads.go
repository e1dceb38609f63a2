package harness

import (
	"fmt"
	"io"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/stats"
)

// TableIVRow reports the measured mechanism overheads for one application at
// 16 MPI processes, as in the paper's Table IV.
type TableIVRow struct {
	App    string
	Report predictor.OverheadReport
}

// WriteTableIV renders Table IV.
func WriteTableIV(w io.Writer, rows []TableIVRow) error {
	t := stats.NewTable("app", "calls w/ PPA[%]", "per invoked call[us]", "per call amortized[us]")
	var pctSum, invSum, amortSum float64
	for _, r := range rows {
		t.Row(r.App, r.Report.PPAInvokedPct,
			us(r.Report.PerInvokedCall), us(r.Report.PerCallAmortized))
		pctSum += r.Report.PPAInvokedPct
		invSum += us(r.Report.PerInvokedCall)
		amortSum += us(r.Report.PerCallAmortized)
	}
	n := float64(len(rows))
	if n > 0 {
		t.Row("average", pctSum/n, invSum/n, amortSum/n)
	}
	return t.Write(w)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteGTSweep renders Figure 10 points as a text series; name is the
// predictor the sweep ran.
func WriteGTSweep(w io.Writer, app string, np int, name string, pts []GTSweepPoint) error {
	fmt.Fprintf(w, "GT sweep for %s, %d processes, predictor %s (Figure 10)\n", app, np, name)
	t := stats.NewTable("GT[us]", "correctly predicted MPI calls[%]")
	for _, p := range pts {
		t.Row(int(p.GT/time.Microsecond), p.HitRatePct)
	}
	return t.Write(w)
}
