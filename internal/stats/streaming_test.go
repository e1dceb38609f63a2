package stats

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// P² accuracy tables (experiment E19): estimator vs exact nearest-rank
// percentiles over the four reference distributions at two stream lengths.
// Tolerances are range-normalized (|est − exact| / (max − min)) and pinned
// at roughly 2× the measured error, so a regression in the marker update
// trips the test while seed-to-seed noise does not. Measured errors are
// recorded in EXPERIMENTS.md §E19.
// ---------------------------------------------------------------------------

// accuracyDists are the E19 reference distributions. Zipf exercises the
// heavy-tailed case where upper quantiles sit far from the mass; bimodal
// exercises a density gap the median markers must straddle.
var accuracyDists = []struct {
	name string
	gen  func(r *rand.Rand) float64
}{
	{"uniform", func(r *rand.Rand) float64 { return r.Float64() }},
	{"normal", func(r *rand.Rand) float64 { return r.NormFloat64() }},
	{"zipf", nil}, // built per-rand below: NewZipf captures the source
	{"bimodal", func(r *rand.Rand) float64 {
		if r.Intn(2) == 0 {
			return r.NormFloat64() * 0.5
		}
		return 8 + r.NormFloat64()
	}},
}

func distGen(name string, r *rand.Rand) func() float64 {
	if name == "zipf" {
		z := rand.NewZipf(r, 1.5, 1, 1<<20)
		return func() float64 { return float64(z.Uint64()) }
	}
	for _, d := range accuracyDists {
		if d.name == name {
			gen := d.gen
			return func() float64 { return gen(r) }
		}
	}
	panic("unknown distribution " + name)
}

// p2Tolerance is the pinned range-normalized error budget per distribution.
// The heavy-tailed zipf needs headroom at φ=0.99 on short streams. See
// EXPERIMENTS.md §E19 for the measured values these bound.
var p2Tolerance = map[string]float64{
	"uniform": 0.01,
	"normal":  0.02,
	"zipf":    0.06,
	"bimodal": 0.04,
}

// p2ToleranceOverride widens individual (dist, φ) cells. The bimodal median
// is the algorithm's documented worst case: the true median sits at the edge
// of the density gap between the modes, where the parabolic marker update
// interpolates through a region with no samples, so the estimate lands
// inside the gap (§E19 caveat). The run-wide shape (p90+) is unaffected.
var p2ToleranceOverride = map[string]map[float64]float64{
	"bimodal": {0.50: 0.30},
}

func TestP2QuantileAccuracyTable(t *testing.T) {
	phis := []float64{0.50, 0.90, 0.95, 0.99}
	for _, d := range accuracyDists {
		for _, n := range []int{1_000, 100_000} {
			r := rand.New(rand.NewSource(19))
			gen := distGen(d.name, r)
			ests := make([]P2Quantile, len(phis))
			for i, phi := range phis {
				ests[i] = NewP2Quantile(phi)
			}
			xs := make([]float64, n)
			for i := 0; i < n; i++ {
				x := gen()
				xs[i] = x
				for j := range ests {
					ests[j].Add(x)
				}
			}
			span := Percentile(xs, 100) - Percentile(xs, 0)
			if span == 0 {
				t.Fatalf("%s n=%d: degenerate sample range", d.name, n)
			}
			for i, phi := range phis {
				exact := Percentile(xs, phi*100)
				got := ests[i].Quantile()
				relErr := math.Abs(got-exact) / span
				t.Logf("%s n=%d φ=%.2f: P²=%.6g exact=%.6g range-err=%.2e",
					d.name, n, phi, got, exact, relErr)
				tol := p2Tolerance[d.name]
				if o, ok := p2ToleranceOverride[d.name][phi]; ok {
					tol = o
				}
				if relErr > tol {
					t.Errorf("%s n=%d φ=%.2f: range-normalized error %.3g exceeds %.3g (P²=%v exact=%v)",
						d.name, n, phi, relErr, tol, got, exact)
				}
			}
		}
	}
}

// TestP2QuantileSmallStreams pins the exact-prefix regime: below five
// samples the estimator must agree exactly with nearest-rank.
func TestP2QuantileSmallStreams(t *testing.T) {
	xs := []float64{7, 3, 9, 1}
	for n := 0; n <= len(xs); n++ {
		for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
			p := NewP2Quantile(phi)
			for _, x := range xs[:n] {
				p.Add(x)
			}
			var want float64
			if n > 0 {
				want = Percentile(xs[:n], phi*100)
			}
			if got := p.Quantile(); got != want {
				t.Errorf("n=%d φ=%v: got %v, want exact nearest-rank %v", n, phi, got, want)
			}
		}
	}
}

func TestP2QuantileIgnoresNonFinite(t *testing.T) {
	p := NewP2Quantile(0.5)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p.Add(x)
	}
	if p.Count() != 0 {
		t.Fatalf("non-finite samples counted: %d", p.Count())
	}
	p.Add(1)
	p.Add(math.NaN())
	p.Add(2)
	if p.Count() != 2 {
		t.Fatalf("count = %d, want 2", p.Count())
	}
	if q := p.Quantile(); math.IsNaN(q) || q < 1 || q > 2 {
		t.Fatalf("quantile %v out of observed range", q)
	}
}

// TestPercentileP2CrossValidation closes the stats test gap: Percentile and
// P2Quantile estimate the same functional, so on seeded uniform streams long
// enough for the markers to settle they must agree within a few percent of
// the sample range — whichever of the two regressed, this trips.
func TestPercentileP2CrossValidation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(2000)
		phi := 0.1 + 0.8*r.Float64()
		p := NewP2Quantile(phi)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
			p.Add(xs[i])
		}
		exact := Percentile(xs, phi*100)
		span := Percentile(xs, 100) - Percentile(xs, 0)
		if diff := math.Abs(p.Quantile()-exact) / span; diff > 0.05 {
			t.Errorf("seed=%d n=%d φ=%.3f: P²=%v vs Percentile=%v (range-err %.3g)",
				seed, n, phi, p.Quantile(), exact, diff)
		}
	}
}

// ---------------------------------------------------------------------------
// Compensated accumulators vs exact 128-bit-plus accumulation.
// ---------------------------------------------------------------------------

// exactSum accumulates in 200-bit floats — effectively exact for these
// inputs — to give the compensated accumulators a ground truth.
func exactSum(xs []float64) float64 {
	sum := new(big.Float).SetPrec(200)
	for _, x := range xs {
		sum.Add(sum, new(big.Float).SetPrec(200).SetFloat64(x))
	}
	f, _ := sum.Float64()
	return f
}

// TestKahanMeanLargeOffset feeds a sum whose increments vanish below the
// offset's ulp: naive float64 accumulation drops every increment, the
// compensated sum keeps them all.
func TestKahanMeanLargeOffset(t *testing.T) {
	xs := make([]float64, 1+10_000)
	xs[0] = 1e16 // ulp(1e16) = 2, so naive += 0.125 is a no-op
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.125
	}
	var k KahanMean
	naive := 0.0
	for _, x := range xs {
		k.Add(x)
		naive += x
	}
	exact := exactSum(xs)
	if k.Sum() != exact {
		t.Errorf("compensated sum %v != exact %v", k.Sum(), exact)
	}
	if naive == exact {
		t.Error("naive sum unexpectedly exact; pathological input no longer pathological")
	}
	wantMean := exact / float64(len(xs))
	if got := k.Mean(); math.Abs(got-wantMean) > math.Abs(wantMean)*1e-15 {
		t.Errorf("mean %v, want %v", got, wantMean)
	}
}

// TestKahanMeanAlternatingSign cancels huge alternating terms; the true sum
// is the tiny residuals, far below the big terms' ulp.
func TestKahanMeanAlternatingSign(t *testing.T) {
	const pairs = 5_000
	xs := make([]float64, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		xs = append(xs, 1e12+1e-6, -1e12)
	}
	var k KahanMean
	naive := 0.0
	for _, x := range xs {
		k.Add(x)
		naive += x
	}
	exact := exactSum(xs)
	if relErr := math.Abs(k.Sum()-exact) / exact; relErr > 1e-9 {
		t.Errorf("compensated sum %v vs exact %v (rel err %.3g)", k.Sum(), exact, relErr)
	}
	if naiveErr := math.Abs(naive-exact) / exact; naiveErr < 1e-3 {
		t.Errorf("naive sum error %.3g unexpectedly small; input not pathological", naiveErr)
	}
}

func TestSketchEmptyAndNonFinite(t *testing.T) {
	var s Sketch
	s.Init()
	for _, got := range []float64{s.Mean(), s.Min(), s.Max(), s.P50(), s.P95(), s.P99()} {
		if got != 0 {
			t.Fatalf("empty sketch accessor = %v, want 0", got)
		}
	}
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	if s.Count() != 0 {
		t.Fatalf("non-finite samples counted: %d", s.Count())
	}
	s.Add(3)
	if s.Count() != 1 || s.Min() != 3 || s.Max() != 3 || s.P99() != 3 {
		t.Fatalf("singleton sketch: count=%d min=%v max=%v p99=%v",
			s.Count(), s.Min(), s.Max(), s.P99())
	}
	// Monotone accessors on a live stream.
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 10_000; i++ {
		s.Add(r.Float64())
		if !(s.P50() <= s.P95() && s.P95() <= s.P99()) {
			t.Fatalf("quantile monotonicity violated at i=%d: p50=%v p95=%v p99=%v",
				i, s.P50(), s.P95(), s.P99())
		}
		if s.P50() < s.Min() || s.P99() > s.Max() {
			t.Fatalf("estimate outside [min,max] at i=%d", i)
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation pins: the record path feeds from the replay inner loop, so
// these are hard contracts, not aspirations.
// ---------------------------------------------------------------------------

func TestP2QuantileAddAllocs(t *testing.T) {
	p := NewP2Quantile(0.95)
	x := 0.0
	if avg := testing.AllocsPerRun(1000, func() {
		p.Add(x)
		x += 0.7
	}); avg != 0 {
		t.Errorf("P2Quantile.Add allocates %.1f/op, want 0", avg)
	}
}

func TestSketchAddAllocs(t *testing.T) {
	var s Sketch
	s.Init()
	x := 0.0
	if avg := testing.AllocsPerRun(1000, func() {
		s.Add(x)
		x += 1.3
	}); avg != 0 {
		t.Errorf("Sketch.Add allocates %.1f/op, want 0", avg)
	}
}

// ---------------------------------------------------------------------------
// Fused sketch update: Sketch.Add drives its three estimators in one pass
// and must leave each exactly where an independent P2Quantile fed the same
// stream would be.
// ---------------------------------------------------------------------------

// sketchStream returns a seeded stream of n samples drawn from a handful of
// repeated values, runs of one value, continuous noise and non-finite
// values: the shapes where a fused update could diverge from the
// independent estimators (ties at marker heights, the x >= max branch,
// skipped samples).
func sketchStream(r *rand.Rand, n int) []float64 {
	vals := []float64{0, 1.5e-6, 3e-6, 3e-6, 12e-6, -2}
	xs := make([]float64, 0, n)
	for len(xs) < n {
		switch r.Intn(8) {
		case 0:
			for run := r.Intn(20); run >= 0 && len(xs) < n; run-- {
				xs = append(xs, vals[3])
			}
		case 1:
			xs = append(xs, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)])
		case 2:
			xs = append(xs, r.NormFloat64()*1e3)
		default:
			xs = append(xs, vals[r.Intn(len(vals))])
		}
	}
	return xs
}

// independentP2 is the reference a Sketch's quantiles must match: one
// standalone estimator per tracked quantile.
type independentP2 [3]P2Quantile

func newIndependentP2() *independentP2 {
	return &independentP2{NewP2Quantile(0.50), NewP2Quantile(0.95), NewP2Quantile(0.99)}
}

func (ps *independentP2) Add(x float64) {
	for i := range ps {
		ps[i].Add(x)
	}
}

// sameAsIndependent reports the first difference between s and the
// reference estimators: raw quantile estimates and counts compared as bit
// patterns, extremes against the running [lo, hi] of the finite samples.
func sameAsIndependent(s *Sketch, ps *independentP2, lo, hi float64) error {
	for i, q := range []*P2Quantile{&s.q50, &s.q95, &s.q99} {
		if got, want := q.Quantile(), ps[i].Quantile(); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("φ=%v estimate %v (%#x), independent %v (%#x)",
				ps[i].phi, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if q.Count() != ps[i].Count() {
			return fmt.Errorf("φ=%v count %d, independent %d", ps[i].phi, q.Count(), ps[i].Count())
		}
		if s.Count() != q.Count() {
			return fmt.Errorf("sketch count %d, φ=%v estimator %d", s.Count(), ps[i].phi, q.Count())
		}
	}
	if s.Count() > 0 && (math.Float64bits(s.Min()) != math.Float64bits(lo) ||
		math.Float64bits(s.Max()) != math.Float64bits(hi)) {
		return fmt.Errorf("sketch range [%v, %v], want [%v, %v]", s.Min(), s.Max(), lo, hi)
	}
	return nil
}

func TestSketchMatchesIndependentP2(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 50, 1000, 20_000}
	for trial := 0; trial < 40; trial++ {
		n := lengths[trial%len(lengths)]
		xs := sketchStream(r, n)
		var s Sketch
		s.Init()
		ps := newIndependentP2()
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, x := range xs {
			s.Add(x)
			ps.Add(x)
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			if err := sameAsIndependent(&s, ps, lo, hi); err != nil {
				t.Fatalf("trial %d (n=%d), after sample %d (%v): %v", trial, n, i, x, err)
			}
		}
	}
}

// BenchmarkSketchAdd feeds a Sketch the stream shape a link-utilization
// series sees: a few serialization times repeated over and over, with a
// rare long outlier.
func BenchmarkSketchAdd(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	ser := []float64{0.128e-6, 0.512e-6, 2.048e-6, 4.096e-6}
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = ser[r.Intn(len(ser))]
		if r.Intn(100) == 0 {
			xs[i] = 1e-4 * (1 + r.Float64())
		}
	}
	var s Sketch
	s.Init()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&(len(xs)-1)])
	}
}

// textbookP2 is the reference P² marker update of Jain & Chlamtac with
// float positions and a cell-search loop, as the estimator was first
// written. P2Quantile keeps integer positions and sets the position
// increments from comparison flags; TestP2QuantileMatchesTextbook holds
// it to this reference bit for bit.
type textbookP2 struct {
	n   int64
	q   [5]float64
	pos [5]float64
	des [5]float64
	inc [5]float64
}

func newTextbookP2(phi float64) *textbookP2 {
	return &textbookP2{inc: [5]float64{0, phi / 2, phi, (1 + phi) / 2, 1}}
}

func (p *textbookP2) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if p.n < 5 {
		i := int(p.n)
		for i > 0 && p.q[i-1] > x {
			p.q[i] = p.q[i-1]
			i--
		}
		p.q[i] = x
		if p.n++; p.n == 5 {
			for j := range p.pos {
				p.pos[j] = float64(j + 1)
				p.des[j] = 1 + 4*p.inc[j]
			}
		}
		return
	}
	var k int
	switch {
	case x < p.q[0]:
		p.q[0], k = x, 0
	case x >= p.q[4]:
		p.q[4], k = x, 3
	default:
		for k = 0; k < 3 && x >= p.q[k+1]; k++ {
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.des {
		p.des[i] += p.inc[i]
	}
	p.n++
	for i := 1; i <= 3; i++ {
		d := p.des[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := math.Copysign(1, d)
			h := p.q[i] + s/(p.pos[i+1]-p.pos[i-1])*
				((p.pos[i]-p.pos[i-1]+s)*(p.q[i+1]-p.q[i])/(p.pos[i+1]-p.pos[i])+
					(p.pos[i+1]-p.pos[i]-s)*(p.q[i]-p.q[i-1])/(p.pos[i]-p.pos[i-1]))
			if !(p.q[i-1] < h && h < p.q[i+1]) {
				j := i + int(s)
				h = p.q[i] + s*(p.q[j]-p.q[i])/(p.pos[j]-p.pos[i])
			}
			p.q[i] = h
			p.pos[i] += s
		}
	}
}

func TestP2QuantileMatchesTextbook(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	streams := [][]float64{sketchStream(r, 50_000)}
	for _, d := range accuracyDists[:2] {
		xs := make([]float64, 20_000)
		for i := range xs {
			xs[i] = d.gen(r)
		}
		streams = append(streams, xs)
	}
	bits := make([]float64, 20_000)
	for i := range bits {
		bits[i] = math.Float64frombits(r.Uint64())
	}
	streams = append(streams, bits)
	for si, xs := range streams {
		for _, phi := range []float64{0.5, 0.95, 0.99, 0.1} {
			p, ref := NewP2Quantile(phi), newTextbookP2(phi)
			for i, x := range xs {
				p.Add(x)
				ref.Add(x)
				for m := range p.q {
					if math.Float64bits(p.q[m]) != math.Float64bits(ref.q[m]) || float64(p.pos[m]) != ref.pos[m] {
						t.Fatalf("stream %d φ=%v sample %d: marker %d height %v pos %v, textbook %v pos %v",
							si, phi, i, m, p.q[m], p.pos[m], ref.q[m], ref.pos[m])
					}
				}
			}
		}
	}
}

// TestP2QuantileNearMaxFloat feeds uniform samples in ±0.9·MaxFloat64: the
// height difference of two markers of opposite sign overflows there, which
// once turned the estimate into NaN (after sample 121 at φ=0.95 and 701 at
// φ=0.99). Every estimate must stay finite and inside the observed range.
func TestP2QuantileNearMaxFloat(t *testing.T) {
	for _, phi := range []float64{0.5, 0.95, 0.99} {
		r := rand.New(rand.NewSource(1))
		p := NewP2Quantile(phi)
		var sk Sketch
		sk.Init()
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 1; i <= 5000; i++ {
			x := (2*r.Float64() - 1) * 0.9 * math.MaxFloat64
			p.Add(x)
			sk.Add(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
			if q := p.Quantile(); !(lo <= q && q <= hi) {
				t.Fatalf("φ=%v sample %d: estimate %v outside [%v, %v]", phi, i, q, lo, hi)
			}
			if p50, p95, p99 := sk.P50(), sk.P95(), sk.P99(); !(lo <= p50 && p50 <= p95 && p95 <= p99 && p99 <= hi) {
				t.Fatalf("φ=%v sample %d: sketch p50=%v p95=%v p99=%v outside [%v, %v] or not monotone",
					phi, i, p50, p95, p99, lo, hi)
			}
		}
	}
}
