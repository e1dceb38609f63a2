package stats

import (
	"math"
	"sort"
)

// This file is the streaming half of the package: constant-memory estimators
// that absorb one sample at a time. They back the TimeSeries recorder
// (timeseries.go), where millions of replay events flow through per-interval
// buckets and nothing may allocate on the record path.

// P2Quantile estimates an arbitrary quantile φ of a stream in O(1) memory
// with the P² algorithm of Jain & Chlamtac (CACM 1985): five markers track
// the running minimum, maximum, the φ-quantile and the two midpoints, and
// each observation nudges the middle markers toward their desired rank
// positions with a piecewise-parabolic height adjustment.
//
// The zero value is not ready for use; construct with NewP2Quantile. Add is
// allocation-free. Non-finite samples (NaN, ±Inf) are ignored, so the
// estimate is always finite and always within the observed [min, max].
type P2Quantile struct {
	phi float64
	n   int64      // finite observations absorbed by Add
	q   [5]float64 // marker heights (q[0] = min, q[4] = max once n >= 5)
	pos [5]int64   // actual marker positions (1-based ranks)
	des [5]float64 // desired marker positions
	inc [5]float64 // per-observation desired-position increments
}

// NewP2Quantile returns an estimator for the φ-quantile (0 <= phi <= 1;
// out-of-range values clamp, NaN selects the median).
func NewP2Quantile(phi float64) P2Quantile {
	if math.IsNaN(phi) {
		phi = 0.5
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	return P2Quantile{
		phi: phi,
		inc: [5]float64{0, phi / 2, phi, (1 + phi) / 2, 1},
	}
}

// Count returns the number of samples absorbed.
func (p *P2Quantile) Count() int64 { return p.n }

// Add absorbs one sample. Non-finite values are ignored.
func (p *P2Quantile) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if p.n < 5 {
		p.warm(x)
		return
	}
	p.step(x)
}

// warm insertion-sorts one of the first five (finite) observations into the
// marker array and arms the marker positions once the fifth arrives.
func (p *P2Quantile) warm(x float64) {
	i := int(p.n)
	for i > 0 && p.q[i-1] > x {
		p.q[i] = p.q[i-1]
		i--
	}
	p.q[i] = x
	p.n++
	if p.n == 5 {
		for j := 0; j < 5; j++ {
			p.pos[j] = int64(j + 1)
			p.des[j] = 1 + 4*p.inc[j]
		}
	}
}

// step absorbs one finite observation once the five markers are armed
// (n >= 5). Only the middle desired positions des[1..3] advance: nothing
// reads des[0] or des[4]. Positions are integers, and every float
// expression converts them exactly, so the arithmetic is that of the
// textbook float-position update, bit for bit.
func (p *P2Quantile) step(x float64) {
	// Locate the cell containing x, updating the extreme markers: every
	// marker above the cell moves up one rank. Inside [min, max), marker i
	// is above it iff x < q[j] for some j <= i; the flags need no branch.
	switch {
	case x < p.q[0]:
		p.q[0] = x
		p.pos[1]++
		p.pos[2]++
		p.pos[3]++
	case x >= p.q[4]:
		p.q[4] = x
	default:
		a1 := b2i(x < p.q[1])
		a2 := a1 | b2i(x < p.q[2])
		a3 := a2 | b2i(x < p.q[3])
		p.pos[1] += a1
		p.pos[2] += a2
		p.pos[3] += a3
	}
	p.pos[4]++
	for i := 1; i <= 3; i++ {
		p.des[i] += p.inc[i]
	}
	p.n++

	// Nudge the three middle markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.des[i] - float64(p.pos[i])
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			var s int64 = 1
			if d < 0 {
				s = -1
			}
			h := p.parabolic(i, s)
			if !(p.q[i-1] < h && h < p.q[i+1]) {
				h = p.linear(i, s)
				if math.IsInf(h, 0) {
					h = p.linearHalved(i, s)
				}
			}
			p.q[i] = h
			p.pos[i] += s
		}
	}
}

// b2i returns 1 for true and 0 for false.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// parabolic returns the piecewise-parabolic height candidate for marker i
// moved by s ∈ {-1, +1}.
func (p *P2Quantile) parabolic(i int, s int64) float64 {
	d := float64(s)
	return p.q[i] + d/float64(p.pos[i+1]-p.pos[i-1])*
		(float64(p.pos[i]-p.pos[i-1]+s)*(p.q[i+1]-p.q[i])/float64(p.pos[i+1]-p.pos[i])+
			float64(p.pos[i+1]-p.pos[i]-s)*(p.q[i]-p.q[i-1])/float64(p.pos[i]-p.pos[i-1]))
}

// linear returns the linear fallback height for marker i moved by s.
func (p *P2Quantile) linear(i int, s int64) float64 {
	j := i + int(s)
	return p.q[i] + float64(s)*(p.q[j]-p.q[i])/float64(p.pos[j]-p.pos[i])
}

// linearHalved is linear for the case where the height difference
// overflows (markers of opposite sign near ±MaxFloat64): it interpolates at
// half scale, where the difference is finite, and keeps the doubled height
// between the two markers. Streams whose differences stay finite never
// reach it, so their estimates keep their bits.
func (p *P2Quantile) linearHalved(i int, s int64) float64 {
	j := i + int(s)
	half := p.q[i]/2 + float64(s)*(p.q[j]/2-p.q[i]/2)/float64(p.pos[j]-p.pos[i])
	return math.Min(math.Max(2*half, math.Min(p.q[i], p.q[j])), math.Max(p.q[i], p.q[j]))
}

// Quantile returns the current estimate: the P² marker height once five
// samples are in, the exact nearest-rank quantile before that, and 0 before
// the first sample.
func (p *P2Quantile) Quantile() float64 {
	if p.n >= 5 {
		return p.q[2]
	}
	if p.n == 0 {
		return 0
	}
	// Fewer than five samples: exact nearest-rank over the sorted prefix.
	var buf [5]float64
	cp := buf[:p.n]
	copy(cp, p.q[:p.n])
	sort.Float64s(cp)
	rank := int(math.Ceil(p.phi*float64(p.n))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}

// KahanMean is a compensated streaming mean: samples accumulate through
// Neumaier's variant of Kahan summation, so the running sum keeps the low-
// order bits a naive float64 accumulation loses when a large offset dwarfs
// the increments or alternating signs cancel. The zero value is ready.
type KahanMean struct {
	sum float64 // running sum, high-order part
	c   float64 // running compensation, low-order part
	n   int64
}

// Add absorbs one sample.
func (k *KahanMean) Add(x float64) {
	k.sum, k.c = neumaierAdd(k.sum, k.c, x)
	k.n++
}

// neumaierAdd adds x to the compensated pair (sum, c).
func neumaierAdd(sum, c, x float64) (float64, float64) {
	t := sum + x
	if math.Abs(sum) >= math.Abs(x) {
		c += (sum - t) + x
	} else {
		c += (x - t) + sum
	}
	return t, c
}

// Sum returns the compensated sum.
func (k *KahanMean) Sum() float64 { return k.sum + k.c }

// Mean returns the compensated mean, or 0 before the first sample.
func (k *KahanMean) Mean() float64 {
	if k.n == 0 {
		return 0
	}
	return k.Sum() / float64(k.n)
}

// Sketch bundles the streaming estimators one telemetry series needs:
// count, compensated mean, exact min/max, and P² estimates of the median,
// 95th and 99th percentiles — seven numbers, O(1) memory, 0 allocs/op.
//
// The zero value is not ready for use; call Init first.
type Sketch struct {
	mean     KahanMean
	min, max float64
	q50      P2Quantile
	q95      P2Quantile
	q99      P2Quantile
}

// Init prepares a zero-value Sketch.
func (s *Sketch) Init() {
	s.mean = KahanMean{}
	s.min, s.max = math.Inf(1), math.Inf(-1)
	s.q50 = NewP2Quantile(0.50)
	s.q95 = NewP2Quantile(0.95)
	s.q99 = NewP2Quantile(0.99)
}

// Add absorbs one sample. Non-finite values are ignored.
//
// The three quantile estimators are updated in one pass: the sample is
// checked for finiteness once, and since every estimator has seen exactly
// the same samples, one warm-up test covers all three. Each estimator still
// performs exactly the float operations, in the same order, that its own
// P2Quantile.Add would, so the estimates are bit-identical to three
// independent estimators fed the same stream.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	s.add(x)
}

// add absorbs one finite sample.
func (s *Sketch) add(x float64) {
	s.mean.Add(x)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if s.q50.n < 5 {
		s.q50.warm(x)
		s.q95.warm(x)
		s.q99.warm(x)
		return
	}
	s.q50.step(x)
	s.q95.step(x)
	s.q99.step(x)
}

// Count returns the number of samples.
func (s *Sketch) Count() int64 { return s.mean.n }

// Mean returns the compensated mean, or 0 before the first sample.
func (s *Sketch) Mean() float64 { return s.mean.Mean() }

// Sum returns the compensated sum.
func (s *Sketch) Sum() float64 { return s.mean.Sum() }

// Min returns the smallest sample, or 0 before the first sample.
func (s *Sketch) Min() float64 {
	if s.mean.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 before the first sample.
func (s *Sketch) Max() float64 {
	if s.mean.n == 0 {
		return 0
	}
	return s.max
}

// P50 returns the median estimate, clamped into the observed [min, max].
func (s *Sketch) P50() float64 { return s.clamp(s.q50.Quantile()) }

// P95 returns the 95th-percentile estimate. Estimates are clamped so that
// P50 <= P95 <= P99 always holds, even where the independent P² marker
// states would momentarily disagree.
func (s *Sketch) P95() float64 { return math.Max(s.P50(), s.clamp(s.q95.Quantile())) }

// P99 returns the 99th-percentile estimate (>= P95, see P95).
func (s *Sketch) P99() float64 { return math.Max(s.P95(), s.clamp(s.q99.Quantile())) }

func (s *Sketch) clamp(q float64) float64 {
	if s.mean.n == 0 {
		return 0
	}
	if q < s.min {
		return s.min
	}
	if q > s.max {
		return s.max
	}
	return q
}
