package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibpower/internal/multijob"
	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

func testMixes() [][]multijob.JobSpec {
	return [][]multijob.JobSpec{
		{{App: "gromacs", NP: 8}, {App: "alya", NP: 8}},
		{{App: "alya", NP: 8}, {App: "nasmg", NP: 8}},
	}
}

// TestMultijobSweepBitIdenticalAtAnyParallelism renders the E15 sweep at
// three pool sizes and asserts the output bytes are identical — the
// determinism contract every other subcommand already honors.
func TestMultijobSweepBitIdenticalAtAnyParallelism(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	var ref string
	for _, par := range []int{1, 2, 0} {
		cfg := replay.DefaultConfig()
		cfg.Parallelism = par
		rows, err := NewRunner(opt, cfg).MultijobSweep(nil, testMixes(), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteMultijobSweep(&buf, rows); err != nil {
			t.Fatal(err)
		}
		if ref == "" {
			ref = buf.String()
			continue
		}
		if buf.String() != ref {
			t.Errorf("sweep output at Parallelism %d differs from serial run:\n%s\n--- vs ---\n%s",
				par, buf.String(), ref)
		}
	}
	// Every registered placement appears in the output.
	for _, p := range multijob.Names() {
		if !strings.Contains(ref, p) {
			t.Errorf("sweep output missing placement %q:\n%s", p, ref)
		}
	}
}

// TestMultijobUsesTableIIIGT asserts the Runner wires its cached Table III
// GT selection into each job, instead of the 2·Treact fallback a ChurnConfig
// without a SelectGT hook uses.
func TestMultijobUsesTableIIIGT(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	r := NewRunner(opt, replay.DefaultConfig())
	res, err := r.Multijob(testMixes()[0], "linear", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range res.Jobs {
		gt, _, err := r.chooseGT(j.App, j.NP, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if j.GT != gt {
			t.Errorf("job %d (%s): GT %v, want the Table III choice %v", i, j.App, j.GT, gt)
		}
	}
}

// TestMultijobSweepRejectsUnknownPlacement mirrors the registry validation
// behaviour of Compare.
func TestMultijobSweepRejectsUnknownPlacement(t *testing.T) {
	r := NewRunner(workloads.Options{IterScale: 0.05}, replay.DefaultConfig())
	_, err := r.MultijobSweep([]string{"nosuch"}, testMixes(), 0.01)
	if err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Errorf("error %v, want unknown placement with registry listed", err)
	}
}

// TestMultijobGolden pins the exact bytes `ibpower multijob` renders: the
// per-job table of gromacs:16,alya:16 under every registered placement,
// then the E15 sweep over testMixes(). Regenerate deliberately with
// `go test ./internal/harness -run TestMultijobGolden -update` and inspect
// the diff.
func TestMultijobGolden(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	r := NewRunner(opt, replay.DefaultConfig())
	mix := []multijob.JobSpec{{App: "gromacs", NP: 16}, {App: "alya", NP: 16}}
	var buf bytes.Buffer
	for _, p := range multijob.Names() {
		res, err := r.Multijob(mix, p, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if err := multijob.WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n")
	}
	rows, err := r.MultijobSweep(nil, testMixes(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMultijobSweep(&buf, rows); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "multijob_placements.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("multijob output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
