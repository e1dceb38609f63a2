// Package workloads generates synthetic per-rank MPI traces that stand in
// for the paper's production traces of GROMACS, ALYA, WRF, NAS BT and NAS
// MG (Section IV-A).
//
// The generators model what the prediction mechanism actually observes —
// the per-process stream of (MPI call type, inter-communication interval) —
// with the statistical structure of each application:
//
//   - an iterative SPMD phase structure between initialization and
//     finalization phases;
//   - strong-scaling traces: per-rank computation shrinks ~1/NP while halo
//     message sizes shrink only with the subdomain surface (~NP^(-2/3)), so
//     communication becomes dominant at scale (the paper's explanation for
//     declining savings, Section IV-B);
//   - application-specific regularity: ALYA and NAS BT iterate almost
//     perfectly (93–98 % MPI call hit rates in Table III), GROMACS and WRF
//     alternate between several communication variants (42–59 % and 25–33 %),
//     NAS MG nests V-cycle levels with widely mixed idle-interval scales
//     (the 20–200 µs bucket of Table I).
//
// All generation is deterministic for a given (application, NP, Options).
package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ibpower/internal/trace"
)

// Options tune trace generation.
type Options struct {
	Seed int64
	// IterScale multiplies the application's default iteration count;
	// 0 means 1.0. Benchmarks use small scales.
	IterScale float64
	// Weak selects weak scaling: per-rank computation and message sizes
	// stay at their reference values as the process count grows, instead of
	// shrinking (strong scaling, the paper's trace set). The paper expects
	// the mechanism "would be more effective for weak scaling than for
	// strong scaling runs" (Section III); the WeakScaling experiment tests
	// that claim.
	Weak bool
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

func (o Options) iters(base int) int {
	s := o.IterScale
	if s <= 0 {
		s = 1
	}
	n := int(math.Round(float64(base) * s))
	if n < 4 {
		n = 4
	}
	return n
}

// Apps returns the registered application names, sorted.
func Apps() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Generate builds the trace for a registered application. A
// structure-only pass bounds the encoded size of every rank; each rank is
// then encoded in turn into one arena of np such bounds, right after the
// rank before it.
func Generate(app string, np int, opt Options) (*trace.Trace, error) {
	m, err := lookup(app, np)
	if err != nil {
		return nil, err
	}
	b := &builder{m: m, np: np, opt: opt}
	arena := make([]byte, np*b.length())
	tr := trace.New(app, np)
	for r := 0; r < np; r++ {
		k := b.rank(r, arena)
		if k.Len() <= len(arena) { // else the bound failed and k reallocated
			arena = arena[k.Len():]
		}
		// SetRank ends k's capacity where the next rank begins, so an
		// append to rank r reallocates instead of overwriting rank r+1.
		tr.SetRank(r, k)
	}
	return tr, nil
}

// lookup returns app's registered model, rejecting unknown applications
// and runs of fewer than two processes.
func lookup(app string, np int) (model, error) {
	m, ok := registry[app]
	if !ok {
		return model{}, fmt.Errorf("workloads: unknown application %q (have %v)", app, Apps())
	}
	if np < 2 {
		return model{}, fmt.Errorf("workloads: need at least 2 processes, got %d", np)
	}
	return m, nil
}

// ProcCounts returns the process counts the paper evaluates for app:
// 8/16/32/64/128, except NAS BT which requires square counts (9/16/36/64/100).
func ProcCounts(app string) []int {
	if app == "nasbt" {
		return []int{9, 16, 36, 64, 100}
	}
	return []int{8, 16, 32, 64, 128}
}

// builder emits one rank of an SPMD trace at a time. Structure decisions
// (communication variants) are shared by all ranks, as in an SPMD program;
// only computation durations jitter per rank.
//
// Building one rank alone is exact. The program draws structure at
// iteration level only, never per rank: the structure-only pass draws it
// from a generator seeded with Options.Seed and records every draw, and
// each rank replays the record, so every rank sees the same structure.
// Rank r's timing draws from jit, restarted from rank r's own seed. Rank r
// is therefore the same whichever ranks are built before it, or whether any
// are.
type builder struct {
	m     model
	np    int
	opt   Options
	r     int        // the rank being emitted
	count bool       // structure-only pass: size ops, store none, draw no jitter
	size  int        // the structure-only pass's bound on a rank's encoded bytes
	k     trace.Rank // the rank's ops
	rng   *rand.Rand // structure generator, live during the structure-only pass
	draws []float64  // the structure-only pass's draws, in order
	next  int        // index in draws of the rank's next structure draw
	jit   *rand.Rand // the rank's compute jitter
}

// length runs the structure-only pass: it returns a bound on every rank's
// encoded bytes, and records the structure draws every rank replays. Each
// op counts at its largest encoding on any rank: ring exchanges at the
// highest peer and compute bursts at the longest jittered duration.
func (b *builder) length() int {
	b.rng = rand.New(rand.NewSource(b.opt.seed()))
	b.count, b.size, b.next, b.draws = true, 0, 0, b.draws[:0]
	b.m.run(b)
	b.count, b.rng = false, nil
	return b.size
}

// rank encodes rank r's ops into buf's storage and returns them. length
// must have run first.
func (b *builder) rank(r int, buf []byte) trace.Rank {
	b.r, b.k, b.next = r, trace.NewRank(b.np, r, buf), 0
	// Rand.Seed leaves the generator exactly as rand.New(rand.NewSource)
	// with that seed would.
	seed := b.opt.seed()*7919 + int64(r)*104729 + 13
	if b.jit == nil {
		b.jit = rand.New(rand.NewSource(seed))
	} else {
		b.jit.Seed(seed)
	}
	b.m.run(b)
	k := b.k
	b.k = trace.Rank{}
	return k
}

// uniform returns the next structure draw of a float64 in [0, 1).
func (b *builder) uniform() float64 {
	if b.count {
		b.draws = append(b.draws, b.rng.Float64())
	}
	return b.replay()
}

// intn returns the next structure draw of an int in [0, n).
func (b *builder) intn(n int) int {
	if b.count {
		b.draws = append(b.draws, float64(b.rng.Intn(n)))
	}
	return int(b.replay())
}

// replay returns the next recorded structure draw.
func (b *builder) replay() float64 {
	b.next++
	return b.draws[b.next-1]
}

// emit appends op to the rank, or only sizes it in the structure-only pass.
func (b *builder) emit(op trace.Op) {
	if b.count {
		b.size += trace.EncodedLen(op)
		return
	}
	b.k.Append(op)
}

// maxNorm bounds |rand.NormFloat64()|. Go's ziggurat returns either a
// value below its tail start rn = 3.4426, or rn + x with x = -ln(u1)/rn,
// accepted only if x² <= -2 ln(u2). A uniform u is a multiple of 2^-63, so
// -ln(u) <= 63 ln 2 = 43.67 unless u is 0. Then x <= 9.35 and |N| <= 12.8;
// u2 = 0 lifts x to at most 43.67/rn = 12.69, still within the bound. Only
// u1 = u2 = 0 exceeds it, and a draw beyond it would only make its rank
// outgrow the arena and reallocate.
const maxNorm = 16.2

// jitter perturbs d by a truncated normal relative factor plus a positive
// absolute noise term for the rank. The absolute term models OS/system
// noise, which does not shrink under strong scaling and is what makes
// synchronization losses dominate at large process counts. In the
// structure-only pass it returns the longest duration it can draw.
func (b *builder) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	if b.count {
		out := time.Duration(float64(d) * (1 + b.m.sigma*3))
		if b.m.noise > 0 && d >= 64*time.Microsecond {
			out += time.Duration(maxNorm * float64(b.m.noise))
		}
		return out
	}
	f := 1.0
	if b.m.sigma > 0 {
		f = 1 + b.m.sigma*clamp(b.jit.NormFloat64(), -3, 3)
		if f < 0.05 {
			f = 0.05
		}
	}
	out := time.Duration(float64(d) * f)
	// OS noise strikes long computation bursts (they expose more time to
	// preemption); sub-GT gram-internal gaps stay tight so that gram
	// formation is stable against the grouping threshold.
	if b.m.noise > 0 && d >= 64*time.Microsecond {
		n := time.Duration(math.Abs(b.jit.NormFloat64()) * float64(b.m.noise))
		out += n
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// compute emits a jittered compute burst of mean d.
func (b *builder) compute(d time.Duration) {
	b.emit(trace.Compute(b.jitter(d)))
}

// ringExchange emits a ring sendrecv: the rank sends to (r+off) and
// receives from (r-off). The structure-only pass sizes it at the highest
// peer of any rank.
func (b *builder) ringExchange(off, bytes int) {
	if b.count {
		b.emit(trace.Sendrecv(b.np-1, b.np-1, bytes))
		return
	}
	to := (b.r + off) % b.np
	from := (b.r - off%b.np + b.np) % b.np
	b.emit(trace.Sendrecv(to, from, bytes))
}

// allreduce emits an allreduce.
func (b *builder) allreduce(bytes int) { b.emit(trace.Allreduce(bytes)) }

// barrier emits a barrier.
func (b *builder) barrier() { b.emit(trace.Barrier()) }

// bcast emits a broadcast from root.
func (b *builder) bcast(root, bytes int) { b.emit(trace.Bcast(root, bytes)) }

// haloBurst emits k ring sendrecvs separated by short gaps (all below any
// sensible GT), forming one gram.
func (b *builder) haloBurst(k, bytes int, gap time.Duration) {
	for i := 0; i < k; i++ {
		if i > 0 {
			b.compute(gap)
		}
		b.ringExchange(1+i%2, bytes)
	}
}

// amdahlScale returns per-rank computation under strong scaling with a
// serial fraction f: base · (f + (1-f)·refNP/np). Production traces never
// scale perfectly; the serial fraction keeps long idle intervals present at
// 128 processes, as the paper's Table I shows.
func amdahlScale(base time.Duration, refNP, np int, f float64) time.Duration {
	s := f + (1-f)*float64(refNP)/float64(np)
	return time.Duration(float64(base) * s)
}

// byteScale returns message bytes scaled as (refNP/np)^e. A 3-D domain
// decomposition gives e = 2/3 for halo surfaces; latency-bound or
// unstructured exchanges shrink much more slowly (small e), which is what
// makes communication dominate at scale in strong-scaling runs.
func byteScale(base, refNP, np int, e float64) int {
	s := math.Pow(float64(refNP)/float64(np), e)
	v := int(float64(base) * s)
	if v < 64 {
		v = 64
	}
	return v
}

// scaleTime applies the builder's scaling regime to a per-rank computation
// phase: Amdahl shrink under strong scaling, constant under weak scaling.
func (b *builder) scaleTime(base time.Duration, refNP int, f float64) time.Duration {
	if b.opt.Weak {
		return base
	}
	return amdahlScale(base, refNP, b.np, f)
}

// scaleBytes applies the scaling regime to a message size.
func (b *builder) scaleBytes(base, refNP int, e float64) int {
	if b.opt.Weak {
		return base
	}
	return byteScale(base, refNP, b.np, e)
}

// initPhase emits a common initialization phase: a broadcast of the input
// deck and a barrier, separated by setup computation. Its irregular timing
// exercises the "no prediction outside iterative phases" path.
func (b *builder) initPhase(setup time.Duration) {
	b.compute(setup)
	b.bcast(0, 1<<16)
	b.compute(setup / 2)
	b.barrier()
	b.compute(setup / 3)
}

// finalizePhase emits a reduction of results and a final barrier.
func (b *builder) finalizePhase(teardown time.Duration) {
	b.compute(teardown)
	b.emit(trace.Reduce(0, 1<<13))
	b.compute(teardown / 2)
	b.barrier()
}
