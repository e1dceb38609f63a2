package replay

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"ibpower/internal/network"
	"ibpower/internal/power"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
	"ibpower/internal/workloads"
)

// TestTelemetryOffByDefault: the zero TelemetryConfig records nothing and
// leaves Result.Series nil — the opt-in contract existing goldens rely on.
func TestTelemetryOffByDefault(t *testing.T) {
	res, err := RunSource(genTrace(t, "gromacs", 8), DefaultConfig().WithPower(20*us, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if res.Series != nil {
		t.Error("telemetry recorded without being enabled")
	}
}

// TestTelemetryObservational: enabling telemetry must not perturb the
// simulation — every non-Series result field stays identical. This is the
// invariant that lets -timeseries ride along any run without invalidating
// its pinned outputs.
func TestTelemetryObservational(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig().WithPower(20*us, 0.01)
	plain, err := RunSource(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunSource(tr, cfg.WithTelemetry(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if traced.Series == nil {
		t.Fatal("telemetry enabled but Series is nil")
	}
	if traced.ExecTime != plain.ExecTime || traced.Transfers != plain.Transfers ||
		traced.BytesMoved != plain.BytesMoved {
		t.Errorf("telemetry perturbed the simulation: exec %v vs %v, transfers %d vs %d",
			traced.ExecTime, plain.ExecTime, traced.Transfers, plain.Transfers)
	}
	if traced.AvgSavingPct() != plain.AvgSavingPct() || traced.Shutdowns != plain.Shutdowns {
		t.Errorf("telemetry perturbed power accounting: saving %v vs %v, shutdowns %d vs %d",
			traced.AvgSavingPct(), plain.AvgSavingPct(), traced.Shutdowns, plain.Shutdowns)
	}
}

// TestTelemetrySeriesContents checks the engine-level registry: every
// documented series exists, the spans observed busy links and power modes,
// and the hit-rate samples are valid probabilities.
func TestTelemetrySeriesContents(t *testing.T) {
	tr := genTrace(t, "gromacs", 8)
	cfg := DefaultConfig().WithPower(20*us, 0.01).WithTelemetry(time.Millisecond)
	res, err := RunSource(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Series
	for _, name := range []string{
		"power.host", "power.low", "pred.hit",
		"util.hostup", "util.hostdn", "util.up", "util.down",
	} {
		if _, ok := ts.Lookup(name); !ok {
			t.Errorf("series %q not registered", name)
		}
	}
	if id, _ := ts.Lookup("power.host"); ts.Sketch(id).Count() == 0 {
		t.Error("power.host recorded no mode intervals")
	}
	if id, _ := ts.Lookup("util.hostup"); ts.Sketch(id).Count() == 0 {
		t.Error("util.hostup recorded no busy spans despite transfers")
	}
	if id, ok := ts.Lookup("pred.hit"); ok {
		sk := ts.Sketch(id)
		if sk.Count() == 0 {
			t.Error("pred.hit recorded no prediction opportunities")
		}
		if sk.Min() < 0 || sk.Max() > 1 {
			t.Errorf("pred.hit samples outside [0,1]: min=%v max=%v", sk.Min(), sk.Max())
		}
	}
	// Busy time on the telemetry timeline must agree with the network's own
	// accounting: the sum over util.* bucket weights equals total link busy
	// seconds (both integrate the same reservations).
	var teleBusy float64
	for _, name := range []string{"util.hostup", "util.hostdn", "util.up", "util.down"} {
		id, _ := ts.Lookup(name)
		teleBusy += ts.Sketch(id).Sum()
	}
	if teleBusy <= 0 {
		t.Error("no busy seconds recorded on the util series")
	}
}

// TestTelemetryDeterministic: two identical telemetry-enabled runs must
// produce byte-identical JSON documents — the foundation of the harness
// goldens and the -parallel invariance test.
func TestTelemetryDeterministic(t *testing.T) {
	tr := genTrace(t, "alya", 8)
	cfg := DefaultConfig().WithPower(20*us, 0.01).WithTelemetry(time.Millisecond)
	var docs [2]bytes.Buffer
	for i := range docs {
		res, err := RunSource(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Series.WriteJSON(&docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Error("identical runs produced different telemetry documents")
	}
}

// TestTelemetryHooksAllocs pins the telemetry additions to the replay inner
// loop at 0 allocs/op: ObserveBusy fires on every link reservation,
// observeMode on every power-mode interval, recordHit on every prediction
// opportunity. A single allocation in any of them multiplies across
// millions of events.
func TestTelemetryHooksAllocs(t *testing.T) {
	topo, err := topology.Named("")
	if err != nil {
		t.Fatal(err)
	}
	tele := newTelemetry(TelemetryConfig{Enabled: true}, topo)
	mode := tele.observeMode(0)
	at := time.Duration(0)
	link := topology.LinkID(0)
	nlinks := topology.LinkID(topo.Table().Len())
	if avg := testing.AllocsPerRun(1000, func() {
		tele.ObserveBusy(link, at, at+10*us)
		mode(power.ModeLow, at, at+50*us)
		tele.recordHit(at, 1)
		at += 30 * us
		link = (link + 1) % nlinks
	}); avg != 0 {
		t.Errorf("telemetry replay-loop hooks allocate %.1f/op, want 0", avg)
	}
}

// teeBusy forwards every link reservation to the run's telemetry and also
// feeds an independent sketch per util class, classified as newTelemetry
// classifies links.
type teeBusy struct {
	tele *telemetry
	tab  *topology.LinkTable
	sk   [4]*stats.Sketch // util.hostup, util.hostdn, util.up, util.down
}

func (o *teeBusy) ObserveBusy(link topology.LinkID, start, end time.Duration) {
	o.tele.ObserveBusy(link, start, end)
	k := o.tab.Kind[link]
	c := 3
	switch {
	case k&topology.LinkFromSwitch == 0:
		c = 0
	case k&topology.LinkToSwitch == 0:
		c = 1
	case k&topology.LinkUp != 0:
		c = 2
	}
	o.sk[c].Add((end - start).Seconds())
}

// TestTelemetryMirrorsMatchTee replays a job spread over each fabric with a
// tee observer and checks every util series reports, bit for bit, the
// sketch an independent estimator computes from the same reservations: the
// mirrored util.hostdn on every fabric, the mirrored util.down on the XGFT
// fabrics, at both fidelities, with and without a failed cable that
// forces detours.
func TestTelemetryMirrorsMatchTee(t *testing.T) {
	tr, err := workloads.Generate("alya", 16, workloads.Options{IterScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	names := [4]string{"util.hostup", "util.hostdn", "util.up", "util.down"}
	for _, fabric := range []string{"xgft", "xgft3", "dragonfly", "torus2d"} {
		topo := topology.MustNamed(fabric)
		nt := topo.NumTerminals()
		terms := make([]int, tr.NP)
		for r := range terms {
			terms[r] = r * (nt / tr.NP)
		}
		for _, mode := range []network.Fidelity{network.MessageLevel, network.SegmentLevel} {
			for _, fail := range []bool{false, true} {
				cfg := DefaultConfig().WithFabric(fabric).WithPower(20*us, 0.01).WithTelemetry(0)
				cfg.Net.Mode = mode
				c, err := NewChurn(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tee := &teeBusy{tele: c.e.tele, tab: topo.Table()}
				for i := range tee.sk {
					tee.sk[i] = new(stats.Sketch)
					tee.sk[i].Init()
				}
				c.e.net.Observe(tee)
				if fail {
					// Fail the first switch-to-switch cable of a cross-fabric
					// route, which traffic must then detour around.
					fs := topology.NewFaultSet(topo)
					for _, id := range topo.RouteIDsInto(nil, terms[0], terms[tr.NP/2], nil) {
						if topo.Table().SwitchToSwitch(id) {
							fs.FailLink(id)
							break
						}
					}
					if err := c.SetFaults(fs); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := c.AdmitAt(0, Job{Trace: tr, Terminals: terms}); err != nil {
					t.Fatal(err)
				}
				ts := c.Telemetry()
				what := func(i int) string {
					return fmt.Sprintf("%s mode=%d fail=%v %s", fabric, mode, fail, names[i])
				}
				for i, name := range names {
					id, _ := ts.Lookup(name)
					got, want := ts.Sketch(id), tee.sk[i]
					if want.Count() == 0 && (i < 2 || topology.IsUpDown(topo)) {
						t.Errorf("%s: no reservations", what(i))
					}
					if got.Count() != want.Count() {
						t.Errorf("%s: count %d, tee %d", what(i), got.Count(), want.Count())
					}
					for _, v := range [][2]float64{
						{got.Sum(), want.Sum()}, {got.Mean(), want.Mean()},
						{got.Min(), want.Min()}, {got.Max(), want.Max()},
						{got.P50(), want.P50()}, {got.P95(), want.P95()}, {got.P99(), want.P99()},
					} {
						if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
							t.Errorf("%s: sketch %v, tee %v", what(i), got, want)
							break
						}
					}
				}
				mirrored := func(a, b string) bool {
					ia, _ := ts.Lookup(a)
					ib, _ := ts.Lookup(b)
					return ts.Sketch(ia) == ts.Sketch(ib)
				}
				if !mirrored("util.hostdn", "util.hostup") {
					t.Errorf("%s: util.hostdn keeps its own sketch", fabric)
				}
				if mirrored("util.down", "util.up") != topology.IsUpDown(topo) {
					t.Errorf("%s: util.down mirrors util.up: %v, fabric up*/down*: %v",
						fabric, mirrored("util.down", "util.up"), topology.IsUpDown(topo))
				}
			}
		}
	}
}
