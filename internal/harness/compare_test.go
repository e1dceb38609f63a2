package harness

import (
	"strings"
	"testing"

	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

// compareOpt keeps the 150-cell sweep (25 workload points × 6 predictors)
// affordable in unit tests.
var compareOpt = workloads.Options{IterScale: 0.04}

func compareRunner(par int) *Runner {
	cfg := replay.DefaultConfig()
	cfg.Parallelism = par
	return NewRunner(compareOpt, cfg)
}

func renderCompare(t *testing.T, r *Runner, names []string) string {
	t.Helper()
	rows, err := r.Compare(0.01, names)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCompare(&sb, 0.01, rows); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCompareAllPredictorsAllWorkloads is the acceptance shape of the
// comparison sweep: every registered predictor over every workload point,
// with the oracle's demand-free replay bounding the slowdown column.
func TestCompareAllPredictorsAllWorkloads(t *testing.T) {
	rows, err := compareRunner(0).Compare(0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := predictor.Names()
	if len(names) < 6 {
		t.Fatalf("registry holds %d predictors, want >= 6", len(names))
	}
	if want := len(workloads.Apps()) * 5 * len(names); len(rows) != want {
		t.Fatalf("rows = %d, want %d (all points x all predictors)", len(rows), want)
	}
	// Every (app, predictor) combination appears, and per point the rows
	// enumerate predictors in registry order.
	seen := map[string]map[string]bool{}
	for _, r := range rows {
		if seen[r.App] == nil {
			seen[r.App] = map[string]bool{}
		}
		seen[r.App][r.Predictor] = true
	}
	for _, app := range workloads.Apps() {
		for _, n := range names {
			if !seen[app][n] {
				t.Errorf("no row for (%s, %s)", app, n)
			}
		}
	}
	for _, r := range rows {
		if r.Predictor == "oracle" && r.DemandWakes != 0 {
			t.Errorf("oracle paid %d demand wakes at %s/%d", r.DemandWakes, r.App, r.NP)
		}
		if r.SavingPct < 0 || r.TimeIncreasePct < -0.5 {
			t.Errorf("implausible row %+v", r)
		}
	}
}

// TestCompareParallelMatchesSerial is the determinism acceptance: rendered
// compare output is bit-identical at every pool size.
func TestCompareParallelMatchesSerial(t *testing.T) {
	names := []string{"lastvalue", "ngram", "oracle"}
	want := renderCompare(t, compareRunner(1), names)
	got := renderCompare(t, compareRunner(4), names)
	if got != want {
		t.Errorf("parallel compare differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
	if !strings.Contains(want, "avg saving[%]") {
		t.Error("summary table missing")
	}
}

func TestCompareUnknownPredictor(t *testing.T) {
	if _, err := compareRunner(1).Compare(0.01, []string{"nosuch"}); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

// TestRunnerBaselineCache asserts the power-unaware replay runs once per
// workload however many predictors compare against it.
func TestRunnerBaselineCache(t *testing.T) {
	r := compareRunner(0)
	first, err := r.baseline("alya", 8, r.Opt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.baseline("alya", 8, r.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("baseline cache returned a different result instance")
	}
	if len(first.Acct) != 0 {
		t.Error("baseline replay ran with the mechanism enabled")
	}
}
