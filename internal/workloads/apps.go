package workloads

import "time"

// Per-application calibration. Each application model is characterised by
//
//   - the main per-iteration computation gaps at the reference process count
//     and an Amdahl serial fraction controlling their strong-scaling shrink;
//   - communication volume at the reference count and a byte-shrink exponent
//     (surface-like 2/3 for clean 3-D halos, much smaller for unstructured
//     or latency-bound exchanges);
//   - per-rank timing jitter and an absolute noise floor (OS noise) that
//     erodes synchronization at scale, both set in the registry below;
//   - the pattern regularity policy that sets the Table III hit-rate band.
//
// The constants below were calibrated so that the replay harness reproduces
// the *shape* of the paper's Figures 7–9 and Tables I/III; EXPERIMENTS.md
// records paper-vs-measured values.

// model is one application: its per-rank jitter calibration and its SPMD
// program, which emits one rank's ops through a builder.
type model struct {
	sigma float64       // relative jitter std deviation
	noise time.Duration // absolute per-burst noise floor (OS noise): does not shrink with problem size
	run   func(b *builder)
}

var registry = map[string]model{
	"gromacs": {0.03, 8 * time.Microsecond, gromacs},
	"alya":    {0.02, 5 * time.Microsecond, alya},
	"wrf":     {0.025, 12 * time.Microsecond, wrf},
	"nasbt":   {0.015, 8 * time.Microsecond, nasbt},
	"nasmg":   {0.025, 12 * time.Microsecond, nasmg},
}

// gromacs models a molecular-dynamics run: a short halo-exchange burst, a
// dominant force-computation phase and a trailing energy allreduce, with the
// iteration alternating between a few communication variants (neighbour
// search vs PME steps). The variants were meant to hold the MPI call hit
// rate in Table III's 40–60 % band, but it measures 74.8 % at the chosen
// 20 µs GT at every process count, a known deviation (EXPERIMENTS.md).
// Lowering the variant-switch threshold below from 0.45 to 0.10 moves the
// 16-process rate by under 3 points, so that knob does not close it.
func gromacs(b *builder) {
	const refNP = 8
	iters := b.opt.iters(260)

	force := b.scaleTime(2400*time.Microsecond, refNP, 0.09)
	post := b.scaleTime(250*time.Microsecond, refNP, 0.09)
	mid := b.scaleTime(170*time.Microsecond, refNP, 0.09)
	halo := b.scaleBytes(1792*1024, refNP, 0.25)

	b.initPhase(900 * time.Microsecond)
	variant := 0
	for it := 0; it < iters; it++ {
		// Markov variant switching: sticky enough that runs of three
		// identical iterations occur and patterns get detected, but with
		// frequent switches that break prediction.
		if b.uniform() > 0.45 {
			variant = b.intn(3)
		}
		b.haloBurst(3, halo, 4*time.Microsecond)
		b.compute(force)
		switch variant {
		case 1:
			// Neighbour-search step: an extra halo pass.
			b.haloBurst(2, halo/2, 5*time.Microsecond)
			b.compute(mid)
		case 2:
			// PME step: an extra reduction.
			b.allreduce(2 * 1024)
			b.compute(mid)
		}
		b.allreduce(1024)
		b.compute(post)
	}
	b.finalizePhase(600 * time.Microsecond)
}

// alya models the FEM solver whose event stream appears in the paper's
// Figure 2: three consecutive MPI_Sendrecv calls followed by two separate
// MPI_Allreduce calls per iteration ("41-41-41 ___ 10 ___ 10"). The
// iteration is extremely regular (93 % hit rate) but communication-heavy:
// large halo messages keep the fraction of reclaimable idle time — and thus
// the power saving — modest.
func alya(b *builder) {
	const refNP = 8
	iters := b.opt.iters(240)

	assemble := b.scaleTime(250*time.Microsecond, refNP, 0.12)
	solve := b.scaleTime(210*time.Microsecond, refNP, 0.12)
	halo := b.scaleBytes(2048*1024, refNP, 0.25)

	b.initPhase(1200 * time.Microsecond)
	for it := 0; it < iters; it++ {
		b.haloBurst(3, halo, 5*time.Microsecond)
		b.compute(assemble)
		b.allreduce(8 * 1024)
		b.compute(solve)
		b.allreduce(8 * 1024)
		// Occasional convergence hiccup: an extra correction exchange that
		// perturbs the pattern (~7 % of iterations).
		if b.uniform() < 0.07 {
			b.compute(solve / 2)
			b.ringExchange(1, halo/4)
		}
		b.compute(assemble / 2)
	}
	b.finalizePhase(800 * time.Microsecond)
}

// wrf models the weather code: a small regular boundary gram covering the
// long physics computation, followed by a dense burst of many short-spaced
// calls whose composition varies between several variants. Most MPI calls
// sit in the varying burst — hence the low 25–33 % call hit rate — while the
// long idle interval after the regular gram is predicted reliably, which is
// why WRF still shows large power savings (Figure 7a) and why 94 % of its
// idle intervals are shorter than 20 µs (Table I).
func wrf(b *builder) {
	const refNP = 8
	iters := b.opt.iters(210)

	physics := b.scaleTime(2700*time.Microsecond, refNP, 0.03)
	radiation := b.scaleTime(350*time.Microsecond, refNP, 0.03)
	halo := b.scaleBytes(192*1024, refNP, 0.20)
	small := b.scaleBytes(96*1024, refNP, 0.20)

	b.initPhase(1500 * time.Microsecond)
	v := 0
	for it := 0; it < iters; it++ {
		// Regular boundary gram: 4 calls.
		b.haloBurst(4, halo, 3*time.Microsecond)
		// Long physics phase — the predictable idle interval.
		b.compute(physics)
		// Dense burst: 16–20 calls with sub-20 µs gaps, one of 5 variants.
		// The variant switches ~78 % of the time, so the burst gram is
		// mispredicted often (low call hit rate) while each variant still
		// produces an occasional run of three that gets it detected.
		if it == 0 || b.uniform() < 0.78 {
			nv := b.intn(4)
			if nv >= v {
				nv++
			}
			v = nv
		}
		calls := 16 + v
		for c := 0; c < calls; c++ {
			b.compute(time.Duration(2+(c+v)%7) * time.Microsecond)
			if (c+v)%4 == 3 {
				b.allreduce(512)
			} else {
				b.ringExchange(1+(c+v)%3, small)
			}
		}
		b.compute(radiation)
	}
	b.finalizePhase(1000 * time.Microsecond)
}

// nasbt models the BT pseudo-application: three directional line-solve
// sweeps per iteration, each pipelined over sqrt(NP) stages of the square
// process grid (cell exchange, then the per-stage solve block). It is the
// most regular of the workloads (97–98 % hit rate). At small scale each
// pipeline stage leaves a long reclaimable idle interval — the best case for
// lane power reduction (~50 % savings in Figure 9a) — while at 100 processes
// the per-stage computation fragments below 20 µs and the intervals merge
// into grams, which is exactly the collapse of Table I (76 % of BT-100
// intervals are shorter than 20 µs) and of the savings in Figures 7–9.
func nasbt(b *builder) {
	const refNP = 9
	iters := b.opt.iters(220)

	stages := intSqrt(b.np)
	dirSolve := b.scaleTime(1500*time.Microsecond, refNP, 0.08)
	stageGap := dirSolve / time.Duration(stages)
	rhs := b.scaleTime(450*time.Microsecond, refNP, 0.30)
	halo := b.scaleBytes(96*1024, refNP, 0.10)

	b.initPhase(1100 * time.Microsecond)
	for it := 0; it < iters; it++ {
		for dir := 0; dir < 3; dir++ {
			for s := 0; s < stages; s++ {
				b.ringExchange(1+dir%2, halo)
				b.compute(stageGap)
			}
		}
		// Residual norm check: structurally identical each iteration.
		b.allreduce(320)
		b.compute(rhs)
	}
	b.finalizePhase(900 * time.Microsecond)
}

// intSqrt returns the integer square root of a square process count.
func intSqrt(n int) int {
	for s := 1; ; s++ {
		if s*s >= n {
			return s
		}
	}
}

// nasmg models the MG multigrid benchmark: V-cycles over grid levels with
// message sizes and inter-call gaps shrinking at coarser levels. The coarse
// levels produce many idle intervals in the awkward 20–200 µs band (Table I
// shows up to 39 % of MG's intervals there), which is why MG needs the
// largest grouping thresholds (Table III: 150–382 µs) and shows the lowest
// savings at scale.
func nasmg(b *builder) {
	const refNP = 8
	iters := b.opt.iters(170)

	fine := b.scaleTime(750*time.Microsecond, refNP, 0.02)
	msg := b.scaleBytes(768*1024, refNP, 0.30)

	b.initPhase(1000 * time.Microsecond)
	for it := 0; it < iters; it++ {
		// Occasionally the cycle depth changes (extra smoothing at the
		// coarsest level), perturbing the pattern (~12 % of iterations).
		levels := 4
		if b.uniform() < 0.12 {
			levels = 3 + b.intn(3) // 3..5
		}
		// Restriction sweep: gaps shrink ~4x per level.
		for l := levels; l >= 1; l-- {
			gap := fine >> uint(2*(levels-l))
			m := msg >> uint(levels-l)
			b.ringExchange(1, m)
			b.compute(gap)
		}
		// Coarse solve: a burst of tiny exchanges.
		for c := 0; c < 4; c++ {
			b.compute(8 * time.Microsecond)
			b.ringExchange(1, msg>>uint(levels))
		}
		// Prolongation sweep back up.
		for l := 1; l <= levels; l++ {
			gap := fine >> uint(2*(levels-l))
			m := msg >> uint(levels-l)
			b.compute(gap / 2)
			b.ringExchange(1, m)
		}
		b.allreduce(256)
		b.compute(fine / 3)
	}
	b.finalizePhase(700 * time.Microsecond)
}
