package multijob

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

// atZero turns a job mix into a static stream: every job arrives at time 0.
func atZero(jobs ...JobSpec) []Arrival {
	arrivals := make([]Arrival, len(jobs))
	for i, js := range jobs {
		arrivals[i] = Arrival{Job: js}
	}
	return arrivals
}

// testConfig is a static two-job mix: both arrive at time 0 and the nil
// Schedule admits them together.
func testConfig() ChurnConfig {
	return ChurnConfig{
		Arrivals:  atZero(JobSpec{App: "gromacs", NP: 8}, JobSpec{App: "alya", NP: 8}),
		Placement: "roundrobin",
		Opt:       workloads.Options{Seed: 42, IterScale: 0.05},
		Replay:    replay.DefaultConfig(),
	}
}

func TestParseJobs(t *testing.T) {
	jobs, err := ParseJobs("gromacs:64, alya:16")
	if err != nil {
		t.Fatal(err)
	}
	want := []JobSpec{{App: "gromacs", NP: 64}, {App: "alya", NP: 16}}
	if !reflect.DeepEqual(jobs, want) {
		t.Errorf("got %v, want %v", jobs, want)
	}
	if FormatJobs(jobs) != "gromacs:64,alya:16" {
		t.Errorf("FormatJobs = %q", FormatJobs(jobs))
	}
	for _, bad := range []string{"", "gromacs", "gromacs:x", "gromacs:1", ":8", "a:8,,b:8"} {
		if _, err := ParseJobs(bad); err == nil {
			t.Errorf("ParseJobs(%q) accepted", bad)
		}
	}
}

// TestRunEndToEnd runs a small static two-job mix through RunChurn and
// sanity-checks every reported statistic.
func TestRunEndToEnd(t *testing.T) {
	res, err := RunChurn(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "static" {
		t.Errorf("nil Schedule reported as scheduler %q, want static", res.Scheduler)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d job rows, want 2", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Exec <= 0 || j.Dedicated <= 0 {
			t.Errorf("%s: non-positive exec %v / dedicated %v", j.App, j.Exec, j.Dedicated)
		}
		if j.SavingPct < 0 || j.SavingPct > 57 {
			t.Errorf("%s: saving %.2f%% outside [0, 57]", j.App, j.SavingPct)
		}
		if j.EnergyLinkSeconds <= 0 {
			t.Errorf("%s: non-positive energy", j.App)
		}
		if j.Switches < 2 {
			t.Errorf("%s: round-robin placed 8 ranks on %d switch(es)", j.App, j.Switches)
		}
		if j.Transfers <= 0 {
			t.Errorf("%s: no transfers attributed", j.App)
		}
	}
	f := res.Fabric
	if f.MakeSpan < res.Jobs[0].Exec || f.MakeSpan < res.Jobs[1].Exec {
		t.Errorf("makespan %v below a job exec time", f.MakeSpan)
	}
	if f.LinksUsed <= 0 || f.MaxUtilPct <= 0 {
		t.Errorf("fabric link stats empty: %+v", f)
	}
	if f.Transfers != res.Jobs[0].Transfers+res.Jobs[1].Transfers {
		t.Errorf("fabric transfers %d != sum of job transfers", f.Transfers)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gromacs", "alya", "roundrobin", "makespan"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered result missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunDeterministicAtAnyParallelism pins the determinism contract: the
// whole Result — placements, per-job stats, fabric stats — must be identical
// at Parallelism 1, 2, and GOMAXPROCS.
func TestRunDeterministicAtAnyParallelism(t *testing.T) {
	var base *ChurnResult
	for _, par := range []int{1, 2, 0} {
		cfg := testConfig()
		cfg.Replay.Parallelism = par
		res, err := RunChurn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("result at Parallelism %d differs from the serial run", par)
		}
	}
}

// TestRunSharedVsDedicated asserts the shared run actually shares: the union
// traffic hits the same fabric, so per-job exec can differ from the
// dedicated baseline, and the overhead column reflects exactly that delta.
func TestRunSharedVsDedicated(t *testing.T) {
	res, err := RunChurn(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		want := 100 * (float64(j.Exec) - float64(j.Dedicated)) / float64(j.Dedicated)
		if got := j.SharingOverheadPct; got != want {
			t.Errorf("%s: overhead %.4f%%, want %.4f%%", j.App, got, want)
		}
	}
}

// TestRunErrors covers configuration error paths of a static mix: unknown
// placement, predictor, fabric, and workload all fail fast with the registry
// named, and a mix larger than the fabric names its rank and terminal
// counts.
func TestRunErrors(t *testing.T) {
	for name, mutate := range map[string]struct {
		mut  func(*ChurnConfig)
		want string
	}{
		"placement": {func(c *ChurnConfig) { c.Placement = "nosuch" }, "unknown placement"},
		"predictor": {func(c *ChurnConfig) { c.Replay.Power.PredictorName = "nosuch" }, "unknown predictor"},
		"fabric":    {func(c *ChurnConfig) { c.Replay.FabricName = "nosuch" }, "unknown fabric"},
		"workload":  {func(c *ChurnConfig) { c.Arrivals[0].Job.App = "nosuch" }, "unknown application"},
		"empty":     {func(c *ChurnConfig) { c.Arrivals = nil }, "no arrivals"},
		"overcommit": {func(c *ChurnConfig) {
			c.Arrivals = atZero(JobSpec{App: "alya", NP: 200}, JobSpec{App: "alya", NP: 200})
		}, "exceed"},
	} {
		cfg := testConfig()
		mutate.mut(&cfg)
		if _, err := RunChurn(cfg); err == nil || !strings.Contains(err.Error(), mutate.want) {
			t.Errorf("%s: error %v, want substring %q", name, err, mutate.want)
		}
	}
}

// TestRunMatchesRunJobs pins a static mix, a time-0 churn admission under
// the nil Schedule, to the direct reference: replay.RunJobs over the
// terminals Place assigns. For every placement on three fabric families, the
// per-job records, the terminals, the fabric summary and the seven
// replay-level telemetry series must be equal. The mix repeats a job spec,
// so jobs sharing one prepared source are covered too.
func TestRunMatchesRunJobs(t *testing.T) {
	mix := []JobSpec{{App: "gromacs", NP: 8}, {App: "alya", NP: 8}, {App: "gromacs", NP: 8}}
	opt := workloads.Options{Seed: 42, IterScale: 0.05}
	const d = 0.01
	gt := 2 * power.Treact
	for _, fname := range []string{"xgft", "dragonfly", "torus2d"} {
		rc := replay.DefaultConfig().WithFabric(fname)
		rc.Telemetry.Enabled = true
		fabric, err := rc.Fabric()
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, len(mix))
		for j, js := range mix {
			sizes[j] = js.NP
		}
		for _, pname := range Names() {
			res, err := RunChurn(ChurnConfig{Arrivals: atZero(mix...), Placement: pname, Opt: opt, Displacement: d, Replay: rc})
			if err != nil {
				t.Fatalf("%s/%s: %v", fname, pname, err)
			}

			terms, err := Place(pname, fabric, sizes, opt.Seed)
			if err != nil {
				t.Fatal(err)
			}
			pw := JobPower(rc, gt, d)
			jobs := make([]replay.Job, len(mix))
			dedicated := make([]time.Duration, len(mix))
			for j, js := range mix {
				tr, err := workloads.Generate(js.App, js.NP, opt)
				if err != nil {
					t.Fatal(err)
				}
				jobs[j] = replay.Job{Source: tr, Terminals: terms[j], Power: &pw}
				bcfg := rc
				bcfg.Power = pw
				bcfg.Telemetry = replay.TelemetryConfig{}
				ded, err := replay.RunSource(tr, bcfg)
				if err != nil {
					t.Fatal(err)
				}
				dedicated[j] = ded.ExecTime
			}
			shared, err := replay.RunJobs(jobs, rc)
			if err != nil {
				t.Fatal(err)
			}
			for j, js := range mix {
				want := jobStats(fabric, js.App, predictor.DefaultName, gt, dedicated[j], shared.Jobs[j], terms[j])
				if !reflect.DeepEqual(res.Jobs[j].JobStats, want) {
					t.Errorf("%s/%s job %d:\n got %+v\nwant %+v", fname, pname, j, res.Jobs[j].JobStats, want)
				}
				if !reflect.DeepEqual(res.Jobs[j].Terminals, terms[j]) {
					t.Errorf("%s/%s job %d: terminals %v, want %v", fname, pname, j, res.Jobs[j].Terminals, terms[j])
				}
			}
			if wantF := fabricStats(fabric, shared, terms); res.Fabric != wantF {
				t.Errorf("%s/%s fabric:\n got %+v\nwant %+v", fname, pname, res.Fabric, wantF)
			}
			got, ref := res.Series.Snapshot(), shared.Series.Snapshot()
			if got.TickNS != ref.TickNS || got.Buckets != ref.Buckets {
				t.Errorf("%s/%s telemetry: tick %d ns x %d buckets, want %d ns x %d",
					fname, pname, got.TickNS, got.Buckets, ref.TickNS, ref.Buckets)
			}
			if len(ref.Series) != 7 || len(got.Series) < 7 ||
				!reflect.DeepEqual(got.Series[:7], ref.Series) {
				t.Errorf("%s/%s: replay-level telemetry series differ from RunJobs'", fname, pname)
			}
		}
	}
}
