package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

// scenarioTimeseriesDoc runs the scenario with telemetry on at the given
// pool size and returns the versioned JSON document bytes.
func scenarioTimeseriesDoc(t *testing.T, faulty bool, par int) []byte {
	t.Helper()
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	cfg := replay.DefaultConfig().WithTelemetry(time.Millisecond)
	cfg.Parallelism = par
	spec := testScenarioSpec(t)
	if faulty {
		spec = testFaultScenarioSpec(t)
	}
	res, err := NewRunner(opt, cfg).Scenario(spec, "fcfs", "roundrobin", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil {
		t.Fatal("telemetry enabled but ChurnResult.Series is nil")
	}
	var buf bytes.Buffer
	if err := res.Series.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// timeseriesGolden pins the scenario telemetry document byte-for-byte at
// three parallelism settings against a golden file — the acceptance gate
// that `ibpower scenario -timeseries` output is a pure function of the spec.
// Regenerate deliberately with
// `go test ./internal/harness -run TestScenarioTimeseries -update` and
// inspect the diff: an unexplained change means the telemetry bucket
// timeline moved for every existing consumer.
func timeseriesGolden(t *testing.T, faulty bool, golden string) {
	var ref []byte
	for _, par := range []int{1, 4, 0} {
		doc := scenarioTimeseriesDoc(t, faulty, par)
		if ref == nil {
			ref = doc
			continue
		}
		if !bytes.Equal(doc, ref) {
			t.Fatalf("telemetry document at Parallelism %d differs from serial run", par)
		}
	}
	path := filepath.Join("testdata", golden)
	if *updateGolden {
		if err := os.WriteFile(path, ref, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, want) {
		t.Errorf("telemetry document drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, ref, want)
	}
	// The engine- and churn-level registries must both appear: a missing
	// series name here means a recorder was silently disconnected.
	for _, name := range []string{
		`"power.host"`, `"pred.hit"`, `"util.hostup"`,
		`"queue.depth"`, `"fabric.occupied"`, `"capacity.up"`,
		`"version": 1`,
	} {
		if !strings.Contains(string(ref), name) {
			t.Errorf("telemetry document missing %s", name)
		}
	}
}

func TestScenarioTimeseriesGolden(t *testing.T) {
	timeseriesGolden(t, false, "scenario_timeseries.golden.json")
}

// TestScenarioTimeseriesFaultGolden pins the same contract with the fault
// golden's scenario: degraded capacity and kill/retry churn must leave the
// document bit-identical across pool sizes too.
func TestScenarioTimeseriesFaultGolden(t *testing.T) {
	timeseriesGolden(t, true, "scenario_timeseries_faults.golden.json")
}

// TestRunnerBaselinesRecordNoTelemetry pins the rule that only the run under
// study records telemetry: with the Runner's Cfg.Telemetry on, its cached
// power-unaware baselines and dedicated-fabric runs carry no series, and
// every other field equals the same run with telemetry off, while the
// scenario's own shared timeline still records.
func TestRunnerBaselinesRecordNoTelemetry(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	on := NewRunner(opt, replay.DefaultConfig().WithTelemetry(time.Millisecond))
	off := NewRunner(opt, replay.DefaultConfig())

	res, err := on.Scenario(testScenarioSpec(t), "fcfs", "roundrobin", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil {
		t.Fatal("telemetry enabled but ChurnResult.Series is nil")
	}
	if len(on.deds.m) == 0 {
		t.Fatal("scenario ran no dedicated baselines")
	}
	same := func(what string, got, want *replay.Result) {
		t.Helper()
		if got.Series != nil {
			t.Errorf("%s recorded a telemetry series", what)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs from the telemetry-off run", what)
		}
	}
	for k, e := range on.deds.m {
		if e.err != nil {
			t.Fatal(e.err)
		}
		want, err := off.dedicated(k.app, k.np, k.gt, k.d)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("dedicated %s np=%d gt=%v", k.app, k.np, k.gt), e.v, want)
	}
	for _, p := range []point{{"gromacs", 8}, {"alya", 16}} {
		got, err := on.baseline(p.app, p.np, on.Opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := off.baseline(p.app, p.np, off.Opt)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("baseline %s np=%d", p.app, p.np), got, want)
	}
}
