package replay

import (
	"strings"
	"testing"
	"time"

	"ibpower/internal/topology"
	"ibpower/internal/workloads"
)

// TestUnknownFabricRejected asserts replay validates the fabric name before
// simulating, listing the registry in the error.
func TestUnknownFabricRejected(t *testing.T) {
	tr, err := workloads.Generate("alya", 8, workloads.Options{IterScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSource(tr, DefaultConfig().WithFabric("nosuch")); err == nil ||
		!strings.Contains(err.Error(), "unknown fabric") ||
		!strings.Contains(err.Error(), "dragonfly") {
		t.Errorf("unknown fabric error %v must reject the name and list the registry", err)
	}
}

// TestFabricTooSmallRejected asserts a fabric with fewer terminals than
// ranks fails fast with a descriptive error, for both an explicit Topo
// instance and a registry name.
func TestFabricTooSmallRejected(t *testing.T) {
	tr, err := workloads.Generate("alya", 32, workloads.Options{IterScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	small, err := topology.NewTorus([]int{4, 4}, 1) // 16 terminals < 32 ranks
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topo = small
	if _, err := RunSource(tr, cfg); err == nil || !strings.Contains(err.Error(), "terminals") {
		t.Errorf("16-terminal fabric accepted for 32 ranks (err=%v)", err)
	}
}

// TestWithFabricSurvivesWithPower asserts option order does not matter: the
// fabric selection persists through WithPower and WithPredictor, mirroring
// the predictor-name guarantee.
func TestWithFabricSurvivesWithPower(t *testing.T) {
	cfg := DefaultConfig().WithFabric("torus2d").WithPower(20*time.Microsecond, 0.01).WithPredictor("ewma")
	if cfg.FabricName != "torus2d" {
		t.Errorf("FabricName = %q after WithPower/WithPredictor, want torus2d", cfg.FabricName)
	}
	f, err := cfg.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	if f != topology.MustNamed("torus2d") {
		t.Error("Fabric() did not resolve the shared registry instance")
	}
	// The default resolves to the paper's shared fabric.
	f, err = DefaultConfig().Fabric()
	if err != nil || f.(*topology.XGFT) != topology.Paper() {
		t.Errorf("default config fabric = %v (err=%v), want the shared paper XGFT", f, err)
	}
}

// TestRunOnEveryFabric replays one small workload on every registered
// fabric with the mechanism enabled — the end-to-end smoke for the generic
// routing path.
func TestRunOnEveryFabric(t *testing.T) {
	tr, err := workloads.Generate("nasmg", 8, workloads.Options{IterScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	execs := map[string]int64{}
	for _, name := range topology.Names() {
		res, err := RunSource(tr, DefaultConfig().WithFabric(name).WithPower(20*time.Microsecond, 0.01))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ExecTime <= 0 || res.Transfers == 0 {
			t.Errorf("%s: implausible result %+v", name, res)
		}
		if res.AvgSavingPct() <= 0 {
			t.Errorf("%s: mechanism saved nothing", name)
		}
		execs[name] = int64(res.ExecTime)
	}
	if execs["xgft"] == execs["dragonfly"] && execs["xgft"] == execs["torus3d"] {
		t.Error("all fabrics produced identical execution times — routing is fabric-independent")
	}
}

// TestRunOnBigPresets replays a small workload spread across the whole
// 8000-terminal presets, so routes cross the full tree (three up/down levels
// on xgft3-big, global links on dragonfly-big) and per-LinkID state covers
// tens of thousands of directed links. TestRunOnEveryFabric already runs the
// big presets with the default contiguous placement; this pins the
// wide-spread case and that it stays fast enough for plain `go test`.
func TestRunOnBigPresets(t *testing.T) {
	tr, err := workloads.Generate("alya", 8, workloads.Options{IterScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pw := DefaultConfig().WithPower(20*time.Microsecond, 0.01).Power
	for _, name := range []string{"xgft3-big", "dragonfly-big"} {
		f := topology.MustNamed(name)
		stride := f.NumTerminals() / 8
		terms := make([]int, 8)
		for r := range terms {
			terms[r] = r * stride
		}
		res, err := RunJobs([]Job{{Trace: tr, Terminals: terms, Power: &pw}},
			DefaultConfig().WithFabric(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		job := res.Jobs[0]
		if job.ExecTime <= 0 || job.Transfers == 0 {
			t.Errorf("%s: implausible result %+v", name, job)
		}
		if len(res.LinkBusy) != f.NumLinks() {
			t.Errorf("%s: LinkBusy over %d links, want %d", name, len(res.LinkBusy), f.NumLinks())
		}
		busy := 0
		for _, b := range res.LinkBusy {
			if b > 0 {
				busy++
			}
		}
		// Spread ranks must traverse switch-to-switch links, not just the 16
		// host links (2 directed per occupied terminal).
		if busy <= 16 {
			t.Errorf("%s: only %d links saw traffic — spread placement did not cross the fabric", name, busy)
		}
	}
}
