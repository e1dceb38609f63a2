package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ibpower/internal/replay"
	"ibpower/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestCompareGoldenSingleJob pins the single-job compare output — the exact
// byte stream `ibpower compare -apps alya -scale 0.1` renders — against a
// golden file captured before the multi-job engine generalisation. The
// multi-job work rewired the replay engine's rank bookkeeping (job-local
// ranks, rank→terminal placement); this test proves the dedicated-fabric
// single-job path still produces bit-identical results, not merely
// statistically similar ones.
//
// Regenerate deliberately with
// `go test ./internal/harness -run TestCompareGoldenSingleJob -update` and
// inspect the diff; an unexplained change here means simulation results
// moved for every existing user.
func TestCompareGoldenSingleJob(t *testing.T) {
	opt := workloads.Options{Seed: 42, IterScale: 0.1}
	rows, err := NewRunner(opt, replay.DefaultConfig()).Compare(0.01, nil, "alya")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCompare(&buf, 0.01, rows); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "compare_alya_scale10.golden")
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
		t.Errorf("compare output drifted from pre-multijob golden %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
