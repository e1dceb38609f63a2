package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"ibpower/internal/network"
	"ibpower/internal/replay"
	"ibpower/internal/topology"
)

// testScale shrinks every workload so the whole file runs in a few seconds.
const testScale = 0.02

// TestTracedDigestsMatchUntraced runs every workload traced at a tiny scale:
// the untraced, span and profile passes must all simulate the same thing,
// and the run must emit exactly the per-layer metrics.
func TestTracedDigestsMatchUntraced(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, runOptions{seed: 7, traced: true, scale: testScale, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%d of %d iterations failed", rep.Failed, rep.Attempted)
			}
			if got, want := len(rep.Metrics), len(perLayer); got != want {
				t.Errorf("%d metrics, want %d", got, want)
			}
			for _, m := range perLayer {
				v, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("missing %s", m.Name)
				}
				// A lone worker's busy fraction passes 1 while the GC runs
				// beside it; every other ratio is a share.
				if m.Unit == "ratio" && m.Name != "sweep.busy_frac" && (v.Value < 0 || v.Value > 1) {
					t.Errorf("%s = %v, outside [0, 1]", m.Name, v.Value)
				}
			}
		})
	}
}

// TestUntracedEmitsEndToEnd checks the untraced metric set on the cheapest
// workload.
func TestUntracedEmitsEndToEnd(t *testing.T) {
	w, err := findWorkload("stream-wrf")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(w, runOptions{seed: 7, scale: testScale, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%d of %d iterations failed", rep.Failed, rep.Attempted)
	}
	for _, m := range endToEnd {
		if v := rep.Metrics[m.Name]; v.Value <= 0 {
			t.Errorf("%s = %v, want > 0", m.Name, v.Value)
		}
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(endToEnd))
	}
}

// TestFabricProbeRoutesAroundFaults: the wrapper must keep the fabric's
// degraded routing, or network.SetFaults refuses it.
func TestFabricProbeRoutesAroundFaults(t *testing.T) {
	cfg := (&probe{}).config(replay.DefaultConfig())
	net, err := network.New(cfg.Topo, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetFaults(topology.NewFaultSet(cfg.Topo)); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONDeclaresMetrics keeps BENCHMARK.json in step with the
// metric and workload tables.
func TestBenchmarkJSONDeclaresMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, want %+v", bj.EndToEnd, endToEnd)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("%d per_layer metrics, want %d", len(bj.PerLayer), len(perLayer))
	}
	for i := range min(len(bj.PerLayer), len(perLayer)) {
		got, want := bj.PerLayer[i], perLayer[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, want)
		}
	}
	if len(bj.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !valid.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestJudge covers the four verdicts on a lower-is-better metric.
func TestJudge(t *testing.T) {
	m := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	steady := func(v float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = v * (1 + 0.001*float64(i%3))
		}
		return xs
	}
	noisy := []float64{1, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2, 0.6, 1.1}
	for _, c := range []struct {
		name   string
		xa, xb []float64
		want   string
	}{
		{"same", steady(1), steady(1.02), verdictWithin},
		{"slower", steady(1), steady(1.2), verdictRegressed},
		{"faster", steady(1), steady(0.8), verdictImproved},
		{"noisy", noisy, steady(1.05), verdictUnresolved},
	} {
		if got := judge(m, c.xa, c.xb, 10).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
