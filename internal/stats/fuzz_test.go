package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSamples decodes the fuzz payload as packed little-endian float64s —
// every 8-byte window is a candidate sample, so the fuzzer controls the
// full bit pattern including NaNs, infinities, subnormals and signed zeros.
func fuzzSamples(data []byte) []float64 {
	xs := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return xs
}

// FuzzP2Quantile fuzzes the estimator invariants over arbitrary bit
// patterns: no panic, the count tracks exactly the finite samples, the
// estimate stays finite and inside the observed [min, max] after every
// single Add, and the Sketch built over the same stream keeps
// p50 <= p95 <= p99 and its fused update stays bit-identical to three
// independent estimators. These are the contracts the telemetry JSON encoder and the
// Prometheus exposition rely on (no NaN ever reaches an output file).
func FuzzP2Quantile(f *testing.F) {
	le := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(1, 2, 3, 4, 5, 6, 7), 0.5)
	f.Add(le(0.1, 0.9, math.NaN(), 0.5, math.Inf(1), 0.3), 0.95)
	f.Add(le(-1e308, 1e308, 0, 4.9e-324, -4.9e-324), 0.99)
	f.Add(le(5, 5, 5, 5, 5, 5, 5, 5), 0.25)
	f.Add([]byte("short"), 0.75)
	f.Fuzz(func(t *testing.T, data []byte, phi float64) {
		xs := fuzzSamples(data)
		p := NewP2Quantile(phi)
		var sk Sketch
		sk.Init()
		ref := newIndependentP2()
		lo, hi := math.Inf(1), math.Inf(-1)
		var finite int64
		for _, x := range xs {
			p.Add(x)
			sk.Add(x)
			ref.Add(x)
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				finite++
				lo = math.Min(lo, x)
				hi = math.Max(hi, x)
			}
			if p.Count() != finite {
				t.Fatalf("count %d after %d finite samples", p.Count(), finite)
			}
			q := p.Quantile()
			if math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("non-finite estimate %v (φ=%v)", q, phi)
			}
			if finite > 0 && (q < lo || q > hi) {
				t.Fatalf("estimate %v outside observed [%v, %v] (φ=%v, n=%d)",
					q, lo, hi, phi, finite)
			}
			p50, p95, p99 := sk.P50(), sk.P95(), sk.P99()
			if !(p50 <= p95 && p95 <= p99) {
				t.Fatalf("sketch quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
			}
			if finite > 0 && (p50 < lo || p99 > hi) {
				t.Fatalf("sketch estimates outside [%v, %v]: p50=%v p99=%v", lo, hi, p50, p99)
			}
			if err := sameAsIndependent(&sk, ref, lo, hi); err != nil {
				t.Fatalf("fused sketch diverged after %d finite samples: %v", finite, err)
			}
		}
	})
}
