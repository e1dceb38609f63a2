package replay

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestReplayFabricsGolden pins the engine's simulated results on every
// fabric family, not only the default one the harness goldens cover: each
// application at its two smallest process counts on xgft, dragonfly and
// torus2d, the same set scattered at random over the 8000-terminal
// xgft3-big, and a self-exchange Sendrecv (a rank sending to and receiving
// from itself in one call). A change to point-to-point matching or transfer
// timing shows up here as a diff in execution time, transfer counters or
// the power saving.
//
// Regenerate deliberately with `go test ./internal/replay -run
// TestReplayFabricsGolden -update` and inspect the diff.
func TestReplayFabricsGolden(t *testing.T) {
	cfg := DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	var buf bytes.Buffer
	row := func(fabric, app string, np int, res *Result) {
		fmt.Fprintf(&buf, "%-10s %-8s np=%-3d exec=%d transfers=%d bytes=%d saving=%.6f%%\n",
			fabric, app, np, res.ExecTime, res.Transfers, res.BytesMoved, res.AvgSavingPct())
	}

	for _, fabric := range []string{"xgft", "dragonfly", "torus2d"} {
		for _, app := range workloads.Apps() {
			for _, np := range workloads.ProcCounts(app)[:2] {
				res, err := RunSource(genTrace(t, app, np), cfg.WithFabric(fabric))
				if err != nil {
					t.Fatalf("%s %s np=%d: %v", fabric, app, np, err)
				}
				row(fabric, app, np, res)
			}
		}
	}

	const big = "xgft3-big"
	nt := topology.MustNamed(big).NumTerminals()
	rng := rand.New(rand.NewSource(42))
	for _, app := range workloads.Apps() {
		for _, np := range workloads.ProcCounts(app)[:2] {
			terms := rng.Perm(nt)[:np]
			mr, err := RunJobs([]Job{{Trace: genTrace(t, app, np), Terminals: terms}}, cfg.WithFabric(big))
			if err != nil {
				t.Fatalf("%s %s np=%d: %v", big, app, np, err)
			}
			row(big, app, np, mr.Jobs[0])
		}
	}

	self := trace.New("self", 2)
	for r := 0; r < 2; r++ {
		self.Append(r, trace.Compute(50*us))
		self.Append(r, trace.Sendrecv(r, r, 4096))
		self.Append(r, trace.Sendrecv(1-r, 1-r, 8192))
	}
	res, err := RunSource(self, cfg)
	if err != nil {
		t.Fatalf("self exchange: %v", err)
	}
	row("xgft", "self", 2, res)

	golden := filepath.Join("testdata", "replay_fabrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("replay results drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
