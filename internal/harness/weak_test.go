package harness

import (
	"strings"
	"testing"

	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

func TestWeakScalingBeatsStrongAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	rows, err := NewRunner(workloads.Options{IterScale: 0.25}, replay.DefaultConfig()).WeakScaling(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // 5 apps × 3 sizes
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's Section III claim: at the largest process counts, weak
	// scaling must retain (strictly more) savings than strong scaling.
	checked := 0
	for _, r := range rows {
		if r.NP < 100 {
			continue
		}
		checked++
		if r.Weak.SavingPct <= r.Strong.SavingPct {
			t.Errorf("%s/%d: weak %.2f%% <= strong %.2f%%",
				r.App, r.NP, r.Weak.SavingPct, r.Strong.SavingPct)
		}
		// And the execution-time increase must not blow up.
		if r.Weak.TimeIncreasePct > 2 {
			t.Errorf("%s/%d: weak time increase %.2f%%", r.App, r.NP, r.Weak.TimeIncreasePct)
		}
	}
	if checked == 0 {
		t.Fatal("no large-scale rows checked")
	}
	var sb strings.Builder
	if err := WriteWeakScaling(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "weak saving") {
		t.Error("weak-scaling table incomplete")
	}
}
