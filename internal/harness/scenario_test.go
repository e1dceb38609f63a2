package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibpower/internal/multijob"
	"ibpower/internal/replay"
	"ibpower/internal/scenario"
	"ibpower/internal/workloads"
)

func testScenarioSpec(t *testing.T) scenario.Spec {
	t.Helper()
	spec, err := scenario.ParseSpec("jobs=6,apps=gromacs+alya,size=uniform:4:12,arrival=poisson:50ms,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScenarioSweepBitIdenticalAtAnyParallelism renders the E16 sweep at
// three pool sizes and asserts the output bytes are identical — the
// determinism contract every other subcommand already honors.
func TestScenarioSweepBitIdenticalAtAnyParallelism(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	spec := testScenarioSpec(t)
	var ref string
	for _, par := range []int{1, 2, 0} {
		cfg := replay.DefaultConfig()
		cfg.Parallelism = par
		rows, err := NewRunner(opt, cfg).ScenarioSweep(spec, nil, []string{"linear", "roundrobin"}, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteScenarioSweep(&buf, spec, rows); err != nil {
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
	// Every registered scheduler appears in the output.
	for _, s := range scenario.Names() {
		if !strings.Contains(ref, s) {
			t.Errorf("sweep output missing scheduler %q:\n%s", s, ref)
		}
	}
}

// TestScenarioUsesTableIIIGT asserts the Runner wires its cached Table III
// GT selection into each churned job, like Multijob does.
func TestScenarioUsesTableIIIGT(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	r := NewRunner(opt, replay.DefaultConfig())
	res, err := r.Scenario(testScenarioSpec(t), "fcfs", "linear", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		gt, _, err := r.chooseGT(j.App, j.NP, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if j.GT != gt {
			t.Errorf("job %d (%s): GT %v, want the Table III choice %v", j.ID, j.App, j.GT, gt)
		}
	}
}

// TestScenarioSweepRejectsUnknownNames mirrors the registry validation of
// the other sweeps for both dimensions.
func TestScenarioSweepRejectsUnknownNames(t *testing.T) {
	r := NewRunner(workloads.Options{IterScale: 0.05}, replay.DefaultConfig())
	spec := testScenarioSpec(t)
	if _, err := r.ScenarioSweep(spec, []string{"nosuch"}, nil, 0.01); err == nil ||
		!strings.Contains(err.Error(), "unknown scheduler") {
		t.Errorf("error %v, want unknown scheduler with registry listed", err)
	}
	if _, err := r.ScenarioSweep(spec, nil, []string{"nosuch"}, 0.01); err == nil ||
		!strings.Contains(err.Error(), "unknown placement") {
		t.Errorf("error %v, want unknown placement with registry listed", err)
	}
}

// TestScenarioGolden pins the exact byte stream `ibpower scenario` renders
// for a fixed spec against a golden file — the acceptance gate that churn
// results are bit-identical across parallelism settings, repeats, and future
// refactors. Regenerate deliberately with
// `go test ./internal/harness -run TestScenarioGolden -update` and inspect
// the diff; an unexplained change here means scenario results moved for
// every existing user.
func TestScenarioGolden(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	var ref []byte
	for _, par := range []int{1, 4, 0} {
		cfg := replay.DefaultConfig()
		cfg.Parallelism = par
		res, err := NewRunner(opt, cfg).Scenario(testScenarioSpec(t), "fcfs", "roundrobin", 0.01)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := multijob.WriteChurn(&buf, res); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("scenario output at Parallelism %d differs from serial run", par)
		}
	}
	golden := filepath.Join("testdata", "scenario_fcfs_roundrobin.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, ref, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, want) {
		t.Errorf("scenario output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, ref, want)
	}
}

func testFaultScenarioSpec(t *testing.T) scenario.Spec {
	t.Helper()
	// Big jobs keep most of the fabric busy, so a terminal fault actually
	// lands on a running job and the kill/retry path shows in the golden.
	spec, err := scenario.ApplySpec(testScenarioSpec(t),
		"jobs=8,size=uniform:40:120,faults=term:poisson:20ms:mttr=100ms,link:poisson:50ms:mttr=80ms")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScenarioFaultSweepBitIdentical renders the E17 grid at three pool
// sizes and asserts the output bytes are identical, including a fault-free
// baseline row.
func TestScenarioFaultSweepBitIdentical(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	spec := testScenarioSpec(t)
	faultSpecs := []string{"", "term:poisson:150ms:mttr=300ms"}
	var ref string
	for _, par := range []int{1, 2, 0} {
		cfg := replay.DefaultConfig()
		cfg.Parallelism = par
		rows, err := NewRunner(opt, cfg).ScenarioFaultSweep(spec, faultSpecs, []string{"fcfs", "backfill"}, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteScenarioFaultSweep(&buf, spec, rows); err != nil {
			t.Fatal(err)
		}
		if ref == "" {
			ref = buf.String()
			continue
		}
		if buf.String() != ref {
			t.Errorf("fault sweep output at Parallelism %d differs from serial run:\n%s\n--- vs ---\n%s",
				par, buf.String(), ref)
		}
	}
	for _, want := range []string{"none", "term:poisson", "goodput", "unroutable"} {
		if !strings.Contains(ref, want) {
			t.Errorf("fault sweep output missing %q:\n%s", want, ref)
		}
	}
}

// TestScenarioFaultSweepErrors covers the grid's validation paths.
func TestScenarioFaultSweepErrors(t *testing.T) {
	r := NewRunner(workloads.Options{IterScale: 0.05}, replay.DefaultConfig())
	spec := testScenarioSpec(t)
	if _, err := r.ScenarioFaultSweep(spec, nil, nil, 0.01); err == nil ||
		!strings.Contains(err.Error(), "at least one fault spec") {
		t.Errorf("empty fault specs: error %v", err)
	}
	if _, err := r.ScenarioFaultSweep(spec, []string{"disk:poisson:1m"}, nil, 0.01); err == nil ||
		!strings.Contains(err.Error(), "unknown fault kind") {
		t.Errorf("bad fault spec: error %v", err)
	}
	if _, err := r.ScenarioFaultSweep(spec, []string{""}, []string{"nosuch"}, 0.01); err == nil ||
		!strings.Contains(err.Error(), "unknown scheduler") {
		t.Errorf("bad scheduler: error %v", err)
	}
}

// TestScenarioFaultGolden pins the exact byte stream of a faulty scenario
// against a golden file at three parallelism settings — the acceptance gate
// that seeded fault injection is bit-identical across repeats and pool sizes.
// Regenerate deliberately with
// `go test ./internal/harness -run TestScenarioFaultGolden -update` and
// inspect the diff.
func TestScenarioFaultGolden(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	var ref []byte
	for _, par := range []int{1, 4, 0} {
		cfg := replay.DefaultConfig()
		cfg.Parallelism = par
		res, err := NewRunner(opt, cfg).Scenario(testFaultScenarioSpec(t), "fcfs", "roundrobin", 0.01)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := multijob.WriteChurn(&buf, res); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("faulty scenario output at Parallelism %d differs from serial run", par)
		}
	}
	golden := filepath.Join("testdata", "scenario_faults_fcfs_roundrobin.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, ref, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, want) {
		t.Errorf("faulty scenario output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, ref, want)
	}
}
