package harness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

var fastOpt = workloads.Options{IterScale: 0.12}

func TestTableI(t *testing.T) {
	rows, err := NewRunner(fastOpt, replay.DefaultConfig()).TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 { // 5 apps × 5 process counts
		t.Fatalf("rows = %d, want 25", len(rows))
	}
	for _, r := range rows {
		if r.Dist.TotalCount() == 0 {
			t.Errorf("%s/%d: no idle intervals", r.App, r.NP)
		}
	}
	var sb strings.Builder
	if err := WriteTableI(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gromacs") {
		t.Error("table output incomplete")
	}
}

func TestGTSweepAndChoice(t *testing.T) {
	tr, err := workloads.Generate("alya", 8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	grid := []time.Duration{20 * time.Microsecond, 100 * time.Microsecond, 300 * time.Microsecond}
	pts, err := GTSweep(tr, predictor.DefaultName, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	gt, hit, err := ChooseGT(tr, grid, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if gt < GTMin {
		t.Errorf("chosen GT %v below minimum", gt)
	}
	if hit <= 0 {
		t.Errorf("hit rate %v at chosen GT", hit)
	}
}

func TestGTSweepRejectsBelowMinimum(t *testing.T) {
	tr, _ := workloads.Generate("alya", 8, fastOpt)
	if _, err := GTSweep(tr, predictor.DefaultName, []time.Duration{10 * time.Microsecond}, 0); err == nil {
		t.Error("GT below 2*Treact accepted")
	}
	if _, _, err := ChooseGT(tr, []time.Duration{time.Microsecond}, 1); err == nil {
		t.Error("ChooseGT accepted sub-minimum grid")
	}
}

// TestGTGridMustIncrease covers the grid validation: ChooseGT returns the
// first qualifying point, which is the smallest only on an ascending grid,
// and a repeated point would be simulated and reported twice.
func TestGTGridMustIncrease(t *testing.T) {
	tr, err := workloads.Generate("alya", 8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	for name, grid := range map[string][]time.Duration{
		"unsorted":  {100 * time.Microsecond, 40 * time.Microsecond, 300 * time.Microsecond},
		"duplicate": {40 * time.Microsecond, 40 * time.Microsecond, 300 * time.Microsecond},
	} {
		if _, _, err := ChooseGT(tr, grid, 1.0); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
			t.Errorf("ChooseGT on a %s grid: err = %v, want a strictly-increasing error", name, err)
		}
		if _, err := GTSweep(tr, "lastvalue", grid, 1); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
			t.Errorf("GTSweep on a %s grid: err = %v, want a strictly-increasing error", name, err)
		}
	}
}

func TestDefaultGTGrid(t *testing.T) {
	g := DefaultGTGrid()
	if g[0] != GTMin {
		t.Errorf("grid starts at %v, want %v", g[0], GTMin)
	}
	if g[len(g)-1] != 400*time.Microsecond {
		t.Errorf("grid ends at %v, want 400µs (Figure 10 range)", g[len(g)-1])
	}
}

func TestFigurePoint(t *testing.T) {
	tr, err := workloads.Generate("nasbt", 9, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	row, err := FigurePoint(tr, 20*time.Microsecond, 0.01, replay.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if row.SavingPct <= 0 || row.SavingPct > 57 {
		t.Errorf("saving = %.2f%%", row.SavingPct)
	}
	if row.BaseExec <= 0 || row.Exec < row.BaseExec {
		t.Errorf("exec times: base %v, with mechanism %v", row.BaseExec, row.Exec)
	}
}

func TestColumnMapping(t *testing.T) {
	cases := map[int]int{8: 0, 9: 0, 16: 1, 32: 2, 36: 2, 64: 3, 100: 4, 128: 4}
	for np, want := range cases {
		if got := columnOf(np); got != want {
			t.Errorf("columnOf(%d) = %d, want %d", np, got, want)
		}
	}
	if columnLabel(0) != "8/9" || columnLabel(4) != "128/100" {
		t.Error("column labels wrong")
	}
}

func TestTableIVFast(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	rows, err := NewRunner(workloads.Options{IterScale: 0.05}, replay.DefaultConfig()).TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Report.Calls == 0 {
			t.Errorf("%s: no calls measured", r.App)
		}
	}
	var sb strings.Builder
	if err := WriteTableIV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "average") {
		t.Error("Table IV output missing average row")
	}
}

func TestWriteFigure(t *testing.T) {
	rows := []FigureRow{
		{App: "alya", NP: 8, GT: 20 * time.Microsecond, SavingPct: 14, TimeIncreasePct: 0.1},
		{App: "alya", NP: 128, GT: 20 * time.Microsecond, SavingPct: 2, TimeIncreasePct: 0.3},
	}
	var sb strings.Builder
	if err := WriteFigure(&sb, 0.01, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "displacement factor = 1%") || !strings.Contains(out, "128/100") {
		t.Errorf("figure output:\n%s", out)
	}
}

// TestFigureReusesBaselines draws two figures on one Runner and checks
// every row equals FigurePoint's, which replays its own baseline, while the
// Runner replayed one baseline per point for both figures: the cached one,
// keyed by the point's generation options.
func TestFigureReusesBaselines(t *testing.T) {
	r := NewRunner(workloads.Options{IterScale: 0.02}, replay.DefaultConfig())
	for _, d := range []float64{0.01, 0.10} {
		rows, err := r.Figure(d, "alya")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			src, err := r.source(row.App, row.NP)
			if err != nil {
				t.Fatal(err)
			}
			want, err := FigurePoint(src, row.GT, d, r.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			if row != *want {
				t.Errorf("d=%g: Runner row %+v, FigurePoint row %+v", d, row, *want)
			}
		}
		if n := len(r.bases.m); n != len(rows) {
			t.Errorf("d=%g: %d cached baselines for %d points", d, n, len(rows))
		}
	}
}

// TestFigureAppFilter asserts the application filter restricts the sweep
// without moving any row: Figure(d, "alya") on a fresh Runner is exactly the
// alya rows of the full figure, and an unknown name fails before any
// simulation with Compare's error.
func TestFigureAppFilter(t *testing.T) {
	opt := workloads.Options{IterScale: 0.02}
	all, err := NewRunner(opt, replay.DefaultConfig()).Figure(0.01)
	if err != nil {
		t.Fatal(err)
	}
	var want []FigureRow
	for _, row := range all {
		if row.App == "alya" {
			want = append(want, row)
		}
	}
	if len(want) == 0 {
		t.Fatal("full figure has no alya rows")
	}
	got, err := NewRunner(opt, replay.DefaultConfig()).Figure(0.01, "alya")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Figure(d, \"alya\") = %+v\nwant the alya rows of Figure(d) = %+v", got, want)
	}
	if _, err := NewRunner(opt, replay.DefaultConfig()).Figure(0.01, "nosuch"); err == nil ||
		!strings.Contains(err.Error(), "unknown application") {
		t.Errorf("Figure(d, \"nosuch\"): err = %v, want unknown application", err)
	}
}
