package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := map[float64]float64{0: 1, 50: 5, 100: 10, 90: 9}
	for p, want := range cases {
		if got := Percentile(xs, p); got != want {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("percentile of empty != 0")
	}
	// Input must not be mutated (sorted copy).
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

// TestPercentileEdgeCases pins the nearest-rank indexing on the boundaries
// the harness hits: singletons, out-of-range and sub-1% percentiles, ranks
// that fall exactly on an element, and NaN (whose int conversion is
// platform-defined and must never reach the index computation).
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"below range clamps to min", []float64{1, 2, 3}, -10, 1},
		{"above range clamps to max", []float64{1, 2, 3}, 110, 3},
		{"tiny p selects min", []float64{1, 2, 3, 4}, 1e-9, 1},
		// Nearest-rank on 4 elements: P25 is the 1st, P26 the 2nd.
		{"exact rank boundary", []float64{1, 2, 3, 4}, 25, 1},
		{"just past rank boundary", []float64{1, 2, 3, 4}, 26, 2},
		{"p50 even count takes lower", []float64{1, 2, 3, 4}, 50, 2},
		{"unsorted input", []float64{9, 1, 5}, 50, 5},
	}
	for _, c := range cases {
		if got := Percentile(c.xs, c.p); got != c.want {
			t.Errorf("%s: P%v(%v) = %v, want %v", c.name, c.p, c.xs, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN) = %v, want NaN", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", 3.14159)
	tb.Row("b", 42)
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.14") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

// Property: Mean is bounded by min and max.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return Mean(xs) == 0
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip pathological inputs
			}
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		m := Mean(xs)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
