package replay_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"ibpower/internal/harness"
	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

// TestDebugWorkload prints mechanism diagnostics for one workload when
// IBPOWER_DEBUG names it, e.g. IBPOWER_DEBUG=wrf:8:0.01. It is a development
// aid, skipped by default.
func TestDebugWorkload(t *testing.T) {
	spec := os.Getenv("IBPOWER_DEBUG")
	if spec == "" {
		t.Skip("set IBPOWER_DEBUG=app:np:d to run")
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		t.Fatalf("bad spec %q, want app:np:d", spec)
	}
	app := parts[0]
	np, err := strconv.Atoi(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	d, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, gerr := workloads.Generate(app, np, workloads.Options{IterScale: 0.5})
	if gerr != nil {
		t.Fatal(gerr)
	}
	gt, hit, err := harness.ChooseGT(tr, harness.DefaultGTGrid(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("app=%s np=%d GT=%v offlineHit=%.1f%%", app, np, gt, hit)
	cfg := replay.DefaultConfig()
	base, err := replay.RunSource(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.RunSource(tr, cfg.WithPower(gt, d))
	if err != nil {
		t.Fatal(err)
	}
	st := res.PredStats[0]
	t.Logf("base=%v exec=%v (+%.2f%%)", base.ExecTime, res.ExecTime, res.TimeIncreasePct(base))
	t.Logf("saving=%.2f%% lowFrac=%.3f replayHit=%.1f%%", res.AvgSavingPct(), res.AvgLowFraction(), res.AvgHitRatePct())
	t.Logf("shutdowns=%d timerWakes=%d demandWakes=%d totalDelay=%v",
		res.Shutdowns, res.TimerWakes, res.DemandWakes, res.TotalDelay)
	t.Logf("rank0: calls=%d ppaInvoked=%d detector=%+v", st.Calls, st.PPAInvocations, st.Detector)
	acct := res.Acct[0]
	t.Logf("rank0 acct: full=%v low=%v shift=%v total=%v", acct.Full, acct.Low, acct.Shift, acct.Total())
}
