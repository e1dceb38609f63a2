package harness

import (
	"strings"
	"testing"
	"time"

	"ibpower/internal/power"
	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

func TestEnergyRow(t *testing.T) {
	rows, err := NewRunner(workloads.Options{IterScale: 0.12}, replay.DefaultConfig()).
		Energy(0.01, 8, power.DeepConfig{Treact: 400 * time.Microsecond}, "gromacs")
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.PaperSavingPct <= 0 || row.PaperSavingPct > 57 {
		t.Errorf("paper-model saving = %.2f%%", row.PaperSavingPct)
	}
	// The decomposed fabric model manages only host ports, so it must
	// report strictly less than the whole-switch model.
	if row.FabricSavingPct <= 0 || row.FabricSavingPct >= row.PaperSavingPct {
		t.Errorf("fabric saving %.2f%% vs paper %.2f%%", row.FabricSavingPct, row.PaperSavingPct)
	}
	// GROMACS-8 idles exceed the 400 µs deep breakeven: deep must win.
	if row.DeepSavingPct <= row.PaperSavingPct {
		t.Errorf("deep saving %.2f%% not above lanes-only %.2f%%", row.DeepSavingPct, row.PaperSavingPct)
	}
	var sb strings.Builder
	if err := WriteEnergy(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gromacs") {
		t.Error("energy table output incomplete")
	}
}

func TestEnergyDeepNeverWorseAtDefault(t *testing.T) {
	// With the 1 ms default and breakeven entry threshold, deep mode either
	// engages profitably or abstains: savings must never drop below
	// lanes-only by more than rounding.
	rows, err := NewRunner(workloads.Options{IterScale: 0.1}, replay.DefaultConfig()).
		Energy(0.01, 8, power.DeepConfig{}, "alya", "nasbt")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.DeepSavingPct < row.PaperSavingPct-0.1 {
			t.Errorf("%s: deep %.2f%% below lanes-only %.2f%% despite breakeven guard",
				row.App, row.DeepSavingPct, row.PaperSavingPct)
		}
	}
}

// TestEnergyRejectsUnknownApp asserts the application filter fails before
// any simulation, with the error Compare and Figure give.
func TestEnergyRejectsUnknownApp(t *testing.T) {
	_, err := NewRunner(workloads.Options{IterScale: 0.1}, replay.DefaultConfig()).
		Energy(0.01, 8, power.DeepConfig{}, "nosuch")
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Errorf("unknown app: err = %v", err)
	}
}
