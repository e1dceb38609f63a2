package harness

import (
	"strings"
	"testing"

	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/topology"
	"ibpower/internal/workloads"
)

// fabricRunner builds a Runner simulating on the named fabric.
func fabricRunner(par int, fabric string) *Runner {
	cfg := replay.DefaultConfig().WithFabric(fabric)
	cfg.Parallelism = par
	return NewRunner(compareOpt, cfg)
}

// TestCompareDragonflyAllPredictors is the cross-fabric acceptance shape:
// the full predictor comparison sweep — every registered predictor over
// every workload point — completes on a non-paper fabric.
func TestCompareDragonflyAllPredictors(t *testing.T) {
	rows, err := fabricRunner(0, "dragonfly").Compare(0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workloads.Apps()) * 5 * len(predictor.Names()); len(rows) != want {
		t.Fatalf("rows = %d, want %d (all points x all predictors)", len(rows), want)
	}
	for _, r := range rows {
		if r.SavingPct < 0 || r.TimeIncreasePct < -0.5 {
			t.Errorf("implausible row %+v", r)
		}
	}
}

// TestCompareEveryFabricCompletes runs the comparison on every registered
// fabric (restricted to one application to stay affordable) and asserts the
// fabric actually changes the simulated timing: a dragonfly and a torus do
// not reproduce the fat tree's contention bit for bit.
func TestCompareEveryFabricCompletes(t *testing.T) {
	renders := map[string]string{}
	for _, name := range topology.Names() {
		r := fabricRunner(0, name)
		rows, err := r.Compare(0.01, nil, "alya")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := 5 * len(predictor.Names()); len(rows) != want {
			t.Fatalf("%s: rows = %d, want %d", name, len(rows), want)
		}
		var sb strings.Builder
		if err := WriteCompare(&sb, 0.01, rows); err != nil {
			t.Fatal(err)
		}
		renders[name] = sb.String()
	}
	if renders["xgft"] == renders["dragonfly"] {
		t.Error("dragonfly comparison is bit-identical to the fat tree's — the fabric is not being used")
	}
	if renders["torus3d"] == renders["torus2d"] {
		t.Error("3D torus comparison is bit-identical to the 2D torus's")
	}
}

// TestCompareFabricParallelMatchesSerial is the cross-fabric determinism
// acceptance: compare output on a non-paper fabric is bit-identical at every
// pool size.
func TestCompareFabricParallelMatchesSerial(t *testing.T) {
	names := []string{"lastvalue", "ngram", "oracle"}
	for _, fabric := range []string{"dragonfly", "torus3d", "xgft3"} {
		want := renderCompare(t, fabricRunner(1, fabric), names)
		got := renderCompare(t, fabricRunner(4, fabric), names)
		if got != want {
			t.Errorf("%s: parallel compare differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				fabric, want, got)
		}
	}
}

// TestEnergyOnFabric asserts the decomposed fabric power model follows the
// simulated fabric's first-hop switch grouping rather than assuming the
// paper's leaf switches.
func TestEnergyOnFabric(t *testing.T) {
	for _, fabric := range []string{"xgft", "dragonfly"} {
		cfg := replay.DefaultConfig().WithFabric(fabric)
		rows, err := NewRunner(compareOpt, cfg).Energy(0.01, 16, power.DeepConfig{}, "alya")
		if err != nil {
			t.Fatalf("%s: %v", fabric, err)
		}
		row := rows[0]
		if row.FabricSavingPct <= 0 || row.FabricSavingPct > 100 {
			t.Errorf("%s: fabric saving %.2f%% out of range", fabric, row.FabricSavingPct)
		}
	}
}
