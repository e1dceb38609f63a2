package main

import (
	"math/rand"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/scenario"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
)

// The span pass measures layers only from outside: it times the public calls
// a workload makes and wraps the layers at their public seams — a trace
// Source, the Fabric handed to replay.Config.Topo, and predictor and
// scheduler wrappers installed through their registries.

// Names of the spans kept individually, one per timed public call.
const (
	spanIteration = "bench.iteration"
	spanGenerate  = "workloads.generate"
	spanChooseGT  = "harness.choose_gt"
	spanReplay    = "replay.run"
	spanScenario  = "scenario.run"
)

// Layers whose calls are too many to keep individually: each keeps a count
// and a total time.
type leafKind int

const (
	leafNext   leafKind = iota // trace.Cursor.Next
	leafOnCall                 // predictor.Predictor.OnCall
	leafRoute                  // topology.Fabric routing methods
	leafSched                  // multijob.SchedFunc
	numLeaves
)

// Registry names of the wrappers. The registries cannot unregister, so the
// wrappers are installed once and find the running probe through active.
const (
	probePredictor = "bench-ngram"
	probeScheduler = "bench-" + churnSched
)

// active is the probe of the running span pass; the span pass is serial.
var active *probe

func init() {
	predictor.Register(probePredictor, func(cfg predictor.Config) (predictor.Predictor, error) {
		inner, err := predictor.NewNamed(predictor.DefaultName, cfg)
		if err != nil {
			return nil, err
		}
		return &predictorProbe{Predictor: inner, p: active}, nil
	})
	sched, err := scenario.Named(churnSched)
	if err != nil {
		panic(err)
	}
	scenario.Register(probeScheduler, func(ctx *multijob.SchedContext) []int {
		p := active
		t0 := time.Now()
		picks := sched(ctx)
		p.leafDone(leafSched, t0)
		if len(picks) > 0 {
			p.admitting++
		}
		return picks
	})
}

type acc struct {
	n int64
	d time.Duration
}

// span is one timed public call. child is the time its children (spans and
// leaf calls) took, nchild their number.
type span struct {
	name   string
	dur    time.Duration
	child  time.Duration
	nchild int64
}

// probe records spans and leaf counts. A nil probe records nothing and
// installs no wrapper.
type probe struct {
	spans  []span
	open   []int // indexes of the spans in progress, innermost last
	leaves [numLeaves]acc

	shutdowns               int64 // Shutdown actions the predictor issued
	routes, builds, detours int64 // route requests, paths computed, fault detours
	admitting               int64 // scheduler calls that admitted a job
}

// span runs fn as a timed span named name, a child of the innermost span in
// progress.
func (p *probe) span(name string, fn func() error) error {
	if p == nil {
		return fn()
	}
	parent := -1
	if n := len(p.open); n > 0 {
		parent = p.open[n-1]
	}
	i := len(p.spans)
	p.spans = append(p.spans, span{name: name})
	p.open = append(p.open, i)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	p.open = p.open[:len(p.open)-1]
	p.spans[i].dur = d
	if parent >= 0 {
		p.spans[parent].child += d
		p.spans[parent].nchild++
	}
	return err
}

// leafDone closes a leaf call of kind k started at t0.
func (p *probe) leafDone(k leafKind, t0 time.Time) {
	d := time.Since(t0)
	p.leaves[k].n++
	p.leaves[k].d += d
	if n := len(p.open); n > 0 {
		s := &p.spans[p.open[n-1]]
		s.child += d
		s.nchild++
	}
}

// total returns the count and summed duration of the spans named name.
func (p *probe) total(name string) (int, time.Duration) {
	n, d := 0, time.Duration(0)
	for _, s := range p.spans {
		if s.name == name {
			n++
			d += s.dur
		}
	}
	return n, d
}

// self returns the summed self time in seconds of the spans named name:
// their duration minus their children's, minus timerNS for the clock reads
// of each child.
func (p *probe) self(name string, timerNS float64) float64 {
	var s float64
	for _, sp := range p.spans {
		if sp.name == name {
			s += (sp.dur - sp.child).Seconds() - float64(sp.nchild)*timerNS/1e9
		}
	}
	return s
}

// replay is replay.RunSource as a span.
func (p *probe) replay(src trace.Source, cfg replay.Config) (*replay.Result, error) {
	var res *replay.Result
	err := p.span(spanReplay, func() (err error) {
		res, err = replay.RunSource(src, cfg)
		return err
	})
	return res, err
}

// config installs the fabric and predictor wrappers into cfg.
func (p *probe) config(cfg replay.Config) replay.Config {
	if p == nil {
		return cfg
	}
	f, err := cfg.Fabric()
	if err != nil {
		panic(err)
	}
	cfg.Topo = &fabricProbe{Fabric: f, fr: f.(topology.FaultRouter), p: p}
	cfg.Power.PredictorName = probePredictor
	return cfg
}

// source wraps a streaming source's cursors. In-memory traces stay as they
// are: wrapping would hide the *trace.Trace fast paths (full validation,
// zero-copy rank access) and change the work being measured.
func (p *probe) source(src trace.Source) trace.Source {
	if _, inMemory := src.(*trace.Trace); p == nil || inMemory {
		return src
	}
	return &sourceProbe{Source: src, p: p}
}

type sourceProbe struct {
	trace.Source
	p *probe
}

func (s *sourceProbe) Open(r int) trace.Cursor {
	return &cursorProbe{Cursor: s.Source.Open(r), p: s.p}
}

type cursorProbe struct {
	trace.Cursor
	p *probe
}

func (c *cursorProbe) Next() (trace.Op, bool) {
	t0 := time.Now()
	op, ok := c.Cursor.Next()
	c.p.leafDone(leafNext, t0)
	return op, ok
}

type predictorProbe struct {
	predictor.Predictor
	p *probe
}

func (w *predictorProbe) OnCall(id predictor.EventID, start, end time.Duration) predictor.Action {
	t0 := time.Now()
	act := w.Predictor.OnCall(id, start, end)
	w.p.leafDone(leafOnCall, t0)
	if act.Shutdown {
		w.p.shutdowns++
	}
	return act
}

// fabricProbe times every routing method. It forwards FaultRouter, without
// which network.SetFaults refuses the fabric.
type fabricProbe struct {
	topology.Fabric
	fr topology.FaultRouter
	p  *probe
}

func (f *fabricProbe) RouteIDsInto(buf []topology.LinkID, src, dst int, rng *rand.Rand) []topology.LinkID {
	t0 := time.Now()
	buf = f.Fabric.RouteIDsInto(buf, src, dst, rng)
	f.p.leafDone(leafRoute, t0)
	f.p.routes++
	f.p.builds++
	return buf
}

func (f *fabricProbe) RouteDraws(draws []int, src, dst int, rng *rand.Rand) []int {
	t0 := time.Now()
	draws = f.Fabric.RouteDraws(draws, src, dst, rng)
	f.p.leafDone(leafRoute, t0)
	f.p.routes++
	return draws
}

func (f *fabricProbe) RouteIDsFromDraws(buf []topology.LinkID, src, dst int, draws []int) []topology.LinkID {
	t0 := time.Now()
	buf = f.Fabric.RouteIDsFromDraws(buf, src, dst, draws)
	f.p.leafDone(leafRoute, t0)
	f.p.builds++
	return buf
}

func (f *fabricProbe) RouteIDsAvoiding(buf []topology.LinkID, src, dst int, draws []int, fs *topology.FaultSet) ([]topology.LinkID, bool) {
	t0 := time.Now()
	buf, ok := f.fr.RouteIDsAvoiding(buf, src, dst, draws, fs)
	f.p.leafDone(leafRoute, t0)
	f.p.builds++
	f.p.detours++
	return buf, ok
}

// calibrateTimer returns the nanoseconds the two clock reads timing one leaf
// call cost: the amount self times subtract per child.
func calibrateTimer() float64 {
	const n = 1 << 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
