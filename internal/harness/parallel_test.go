package harness

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

// runnerWith returns a Runner over fastOpt at the given pool size.
func runnerWith(par int) *Runner {
	cfg := replay.DefaultConfig()
	cfg.Parallelism = par
	return NewRunner(fastOpt, cfg)
}

// TestParallelMatchesSerial asserts every reordered point sweep renders
// byte-identical output to the Parallelism: 1 serial path — the tentpole
// invariant: parallelism changes wall-clock time only. The pool size is odd
// (3), so the largest-first feed also runs with a worker left over.
func TestParallelMatchesSerial(t *testing.T) {
	serial, parallel := runnerWith(1), runnerWith(3)
	for _, c := range []struct {
		name   string
		render func(*testing.T, *Runner) string
	}{
		{"TableIII", renderTableIII},
		{"Figure", renderFigure},
		{"TableI", renderTableI},
		{"WeakScaling", renderWeakScaling},
		{"Compare", func(t *testing.T, r *Runner) string {
			return renderCompare(t, r, []string{"lastvalue", "ngram"})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := c.render(t, serial)
			got := c.render(t, parallel)
			if got != want {
				t.Errorf("parallel %s differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", c.name, want, got)
			}
		})
	}
}

func renderTableIII(t *testing.T, r *Runner) string {
	t.Helper()
	rows, err := r.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTableIII(&sb, rows); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func renderFigure(t *testing.T, r *Runner) string {
	t.Helper()
	rows, err := r.Figure(0.01)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFigure(&sb, 0.01, rows); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func renderTableI(t *testing.T, r *Runner) string {
	t.Helper()
	rows, err := r.TableI()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTableI(&sb, rows); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func renderWeakScaling(t *testing.T, r *Runner) string {
	t.Helper()
	rows, err := r.WeakScaling(0.01)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteWeakScaling(&sb, rows); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestConcurrentRunnersMatchSerial runs two independent Runners at once, a
// Figure over two applications and a churn Scenario, each with its own
// seed, and requires each output to equal the same run done alone: nothing
// one run builds (traces, gram tables, route caches, registries) may leak
// into the other. Under -race it also checks they share no unsynchronized
// state.
func TestConcurrentRunnersMatchSerial(t *testing.T) {
	spec := testScenarioSpec(t)
	runner := func(seed int64) *Runner {
		cfg := replay.DefaultConfig()
		cfg.Parallelism = 2
		return NewRunner(workloads.Options{Seed: seed, IterScale: 0.05}, cfg)
	}
	figure := func() (string, error) {
		rows, err := runner(7).Figure(0.05, "alya", "gromacs")
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		err = WriteFigure(&sb, 0.05, rows)
		return sb.String(), err
	}
	churn := func() (string, error) {
		res, err := runner(42).Scenario(spec, "fcfs", "roundrobin", 0.01)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		err = WriteScenarioSweep(&sb, spec, []ScenarioRow{{"fcfs", "roundrobin", res}})
		return sb.String(), err
	}
	runs := []func() (string, error){figure, churn}
	want := make([]string, len(runs))
	for i, run := range runs {
		out, err := run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	got := make([]string, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("run %d alongside another differs from the same run alone:\n%s\n--- alone ---\n%s", i, got[i], want[i])
		}
	}
}

// TestGTSweepParallelMatchesSerial checks the Figure 10 curve point by
// point across pool sizes.
func TestGTSweepParallelMatchesSerial(t *testing.T) {
	tr, err := workloads.Generate("alya", 8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	grid := DefaultGTGrid()
	serial, err := GTSweep(tr, predictor.DefaultName, grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := GTSweep(tr, predictor.DefaultName, grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestChooseGTParallelMatchesSerial checks the selected threshold is
// independent of the pool size.
func TestChooseGTParallelMatchesSerial(t *testing.T) {
	tr, err := workloads.Generate("gromacs", 8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	grid := DefaultGTGrid()
	gtS, hitS, err := ChooseGT(tr, grid, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		gtP, hitP, err := ChooseGTParallel(tr, grid, 1.0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if gtS != gtP || hitS != hitP {
			t.Errorf("serial (%v, %v) != %d workers (%v, %v)", gtS, hitS, workers, gtP, hitP)
		}
	}
}

// TestRunnerTraceCache asserts workloads.Generate runs once per
// (app, np, opt): repeated and concurrent lookups return the same trace.
func TestRunnerTraceCache(t *testing.T) {
	r := runnerWith(0)
	first, err := r.source("alya", 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := r.source("alya", 8)
			if err != nil {
				t.Error(err)
				return
			}
			if tr != first {
				t.Error("cache returned a different trace instance")
			}
		}()
	}
	wg.Wait()

	// Different options must miss the cache.
	o := r.Opt
	o.Weak = true
	weak, err := r.sourceOpt("alya", 8, o)
	if err != nil {
		t.Fatal(err)
	}
	if weak == first {
		t.Error("weak-scaling trace aliased the strong-scaling cache entry")
	}
}

// TestRunnerGTCache asserts the grouping threshold is chosen once per
// workload and reused across experiments.
func TestRunnerGTCache(t *testing.T) {
	r := runnerWith(0)
	gt1, hit1, err := r.chooseGT("alya", 8, r.Opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	gt2, hit2, err := r.chooseGT("alya", 8, r.Opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gt1 != gt2 || hit1 != hit2 {
		t.Errorf("cached GT choice differs: (%v, %v) vs (%v, %v)", gt1, hit1, gt2, hit2)
	}
	tr, err := r.source("alya", 8)
	if err != nil {
		t.Fatal(err)
	}
	gtDirect, hitDirect, err := ChooseGT(tr, DefaultGTGrid(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if gt1 != gtDirect || hit1 != hitDirect {
		t.Errorf("cached choice (%v, %v) differs from direct ChooseGT (%v, %v)",
			gt1, hit1, gtDirect, hitDirect)
	}
}

// TestRunnerRejectsUnknownApp keeps error propagation intact through the
// pool: an unknown application must fail the whole sweep.
func TestRunnerRejectsUnknownApp(t *testing.T) {
	r := runnerWith(4)
	if _, err := r.source("notanapp", 8); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, _, err := r.chooseGT("notanapp", 8, r.Opt, 1); err == nil {
		t.Fatal("chooseGT accepted unknown app")
	}
}

// TestEmptyGTGridRejected covers the audit fix: ChooseGT on an empty grid
// used to panic on pts[0]; it must now return an error at any pool size.
func TestEmptyGTGridRejected(t *testing.T) {
	tr, err := workloads.Generate("alya", 8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ChooseGT(tr, nil, 1.0); err == nil {
		t.Error("ChooseGT accepted an empty grid")
	}
	if _, _, err := ChooseGTParallel(tr, []time.Duration{}, 1.0, 4); err == nil {
		t.Error("ChooseGTParallel accepted an empty grid")
	}
}
