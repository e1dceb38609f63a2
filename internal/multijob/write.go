package multijob

import (
	"fmt"
	"io"
	"time"

	"ibpower/internal/stats"
)

// WriteResult renders a static multi-job run (a RunChurn whose arrivals all
// sit at time 0 under the nil Schedule): one row per job, then
// the fabric-wide summary. The layout is stable and fully determined by the
// result, so CLI output stays bit-identical whenever the simulation is.
func WriteResult(w io.Writer, r *ChurnResult) error {
	fmt.Fprintf(w, "%d jobs on shared fabric %s, placement %s\n",
		len(r.Jobs), r.Fabric.Fabric, r.Placement)
	t := stats.NewTable("job", "Nproc", "predictor", "GT[us]", "switches",
		"exec", "dedicated", "sharing dT[%]", "saving[%]", "hit[%]", "energy[link-s]", "saved[link-s]")
	for _, j := range r.Jobs {
		t.Row(j.App, j.NP, j.Predictor, int(j.GT/time.Microsecond), j.Switches,
			j.Exec.Round(time.Microsecond), j.Dedicated.Round(time.Microsecond),
			j.SharingOverheadPct, j.SavingPct, j.HitRatePct,
			// Energies get four decimals: small jobs save fractions of a
			// link-second that %.2f would round to noise.
			fmt.Sprintf("%.4f", j.EnergyLinkSeconds),
			fmt.Sprintf("%.4f", j.SavedLinkSeconds))
	}
	if err := t.Write(w); err != nil {
		return err
	}
	f := r.Fabric
	fmt.Fprintf(w, "\nfabric: makespan %v, %d transfers, %d bytes, %d links used (mean util %.2f%%, max %.2f%%), fabric saving %.2f%%\n",
		f.MakeSpan.Round(time.Microsecond), f.Transfers, f.BytesMoved,
		f.LinksUsed, f.MeanUtilPct, f.MaxUtilPct, f.SavingPct)
	return nil
}
