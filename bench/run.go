package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Run-length settings.
const (
	setupReps = 5 // set-ups per run; setup_s is their median
	minIters  = 2 // timed iterations per pass, however long they take
)

// runOptions are one workload run's inputs.
type runOptions struct {
	seed    int64
	seconds float64 // length of each timed pass
	traced  bool
	scale   float64 // multiplies each workload's IterScale; 1 outside tests
	dir     string  // scratch directory for files the workloads write
}

// result is one workload run's outcome. Its JSON form is the last line the
// run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// manifest records how a report was produced.
type manifest struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
	Workload   string  `json:"workload"`
	Settings   string  `json:"settings"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Traced     bool    `json:"traced"`
	Iterations int     `json:"iterations"`
	TimerNS    float64 `json:"timer_ns"`
}

// report is a result with its manifest and the simulated results: what
// -report appends and -compare reads.
type report struct {
	Manifest manifest `json:"manifest"`
	result
	Digest    string             `json:"digest"`
	Simulated map[string]float64 `json:"simulated"`
}

// pass is one timed loop over a workload's iterations.
type pass struct {
	walls  []float64 // seconds per iteration
	allocs []float64 // heap bytes allocated per iteration
	failed int
	out    outcome // summary of the last iteration that passed
	cpu    float64 // process CPU seconds inside the timed calls
	gcFrac float64 // share of the loop's process CPU the GC used
}

func (ps *pass) iters() int { return len(ps.walls) }

func (ps *pass) busy() float64 {
	s := 0.0
	for _, w := range ps.walls {
		s += w
	}
	return s
}

// timedPass runs iterations for at least seconds and minIters. Each
// iteration's digest must equal *ref; an empty *ref takes the first one's.
// Every iteration starts from a collected heap, so none pays for another's
// garbage.
func timedPass(seconds float64, ref *string, run func() (func() outcome, error)) pass {
	var ps pass
	var ms runtime.MemStats
	runtime.GC()
	loop0, gc0 := processCPU(), gcCPU()
	for start := time.Now(); ps.iters() < minIters || time.Since(start).Seconds() < seconds; {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		cpu0 := processCPU()
		t0 := time.Now()
		summarize, err := run()
		wall := time.Since(t0).Seconds()
		ps.cpu += processCPU() - cpu0
		runtime.ReadMemStats(&ms)
		ps.walls = append(ps.walls, wall)
		ps.allocs = append(ps.allocs, float64(ms.TotalAlloc-alloc0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: iteration %d: %v\n", ps.iters(), err)
			ps.failed++
			continue
		}
		out := summarize()
		if *ref == "" {
			*ref = out.digest
		}
		if out.digest != *ref {
			fmt.Fprintf(os.Stderr, "bench: iteration %d: digest %s, want %s\n", ps.iters(), out.digest, *ref)
			ps.failed++
			continue
		}
		ps.out = out
	}
	runtime.GC()
	if loop := processCPU() - loop0; loop > 0 {
		ps.gcFrac = (gcCPU() - gc0) / loop
	}
	return ps
}

// processCPU returns the user and system CPU seconds the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

var gcSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// gcCPU returns the runtime's estimate of the CPU seconds the GC has used.
// The runtime updates it at the end of each collection, so read it right
// after one.
func gcCPU() float64 {
	metrics.Read(gcSample)
	return gcSample[0].Value.Float64()
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count from what is left, so the peak read later covers the
// set-up's live state plus what the timed iterations need, not set-up
// garbage a collection had not yet reclaimed.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set in bytes (VmHWM).
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runWorkload sets the workload up and measures it: the end-to-end metrics
// untraced, the per-layer metrics traced.
func runWorkload(w workload, o runOptions) (report, error) {
	rep := report{Manifest: newManifest(w, o)}
	ref := ""
	if o.seed == defaultSeed && o.scale == 1 {
		ref = pinned[w.name]
	}
	var passes []pass
	var err error
	if o.traced {
		rep.Metrics, passes, err = traced(w, o, &ref, &rep.Manifest)
	} else {
		rep.Metrics, passes, err = untraced(w, o, &ref)
	}
	if err != nil {
		return rep, err
	}
	for _, ps := range passes {
		rep.Attempted += ps.iters()
		rep.Failed += ps.failed
	}
	rep.Manifest.Iterations = passes[0].iters()
	rep.Correct = rep.Failed == 0
	rep.Digest = ref
	rep.Simulated = passes[0].out.simulated
	return rep, nil
}

// setupMedian sets w up setupReps times, keeping the last instance, and
// returns it with the median set-up time.
func setupMedian(w workload, o runOptions) (*instance, float64, error) {
	var inst *instance
	var times []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(o.seed, o.scale, o.dir, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

func untraced(w workload, o runOptions, ref *string) (map[string]value, []pass, error) {
	inst, setup, err := setupMedian(w, o)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	if err := resetPeakRSS(); err != nil {
		return nil, nil, err
	}
	ps := timedPass(o.seconds, ref, func() (func() outcome, error) { return inst.run(nil) })
	rss, err := peakRSS()
	if err != nil {
		return nil, nil, err
	}
	busy := ps.busy()
	return withUnits(endToEnd, map[string]float64{
		"setup_s":     setup,
		"wall_s":      median(ps.walls),
		"calls_per_s": float64(inst.calls*ps.iters()) / busy,
		"jobs_per_s":  float64(inst.jobs*ps.iters()) / busy,
		"peak_rss_mb": rss / 1e6,
		"alloc_mb":    median(ps.allocs) / 1e6,
	}), []pass{ps}, nil
}

// withUnits pairs each metric defs declares with its value in v.
func withUnits(defs []metricDef, v map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, m := range defs {
		out[m.Name] = value{v[m.Name], m.Unit}
	}
	return out
}

// traced measures the per-layer metrics in up to four passes over one
// instance: untraced (the reference), span, profile, and — for a workload
// that records telemetry — telemetry off. The passes share the run's
// seconds.
func traced(w workload, o runOptions, ref *string, man *manifest) (map[string]value, []pass, error) {
	timer := calibrateTimer()
	man.TimerNS = timer
	sp := &probe{}
	active = sp
	inst, err := w.setup(o.seed, o.scale, o.dir, sp)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	_, setupGen := sp.total(spanGenerate)
	seconds := o.seconds / 3
	if inst.runQuiet != nil {
		seconds = o.seconds / 4
	}

	base := timedPass(seconds, ref, func() (func() outcome, error) { return inst.run(nil) })

	sp = &probe{}
	active = sp
	spans := timedPass(seconds, ref, func() (func() outcome, error) {
		var summarize func() outcome
		err := sp.span(spanIteration, func() (err error) {
			summarize, err = inst.run(sp)
			return err
		})
		return summarize, err
	})
	active = nil

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	profiled := timedPass(seconds, ref, func() (summarize func() outcome, err error) {
		pprof.Do(context.Background(), pprof.Labels(iterationLabel, "1"), func(context.Context) {
			summarize, err = inst.run(nil)
		})
		return summarize, err
	})
	pprof.StopCPUProfile()
	shares, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}

	passes := []pass{base, spans, profiled}
	telemetry := 0.0
	if inst.runQuiet != nil {
		quietRef := ""
		quiet := timedPass(seconds, &quietRef, inst.runQuiet)
		passes = append(passes, quiet)
		telemetry = median(base.walls) - median(quiet.walls)
	}

	n := float64(spans.iters())
	per := func(x int64) float64 { return float64(x) / n }
	secs := func(d time.Duration) float64 { return d.Seconds() / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsPer := func(a acc, calls int64) float64 { return ratio(float64(a.d.Nanoseconds()), float64(calls)) }
	next, oncall, route, sched := sp.leaves[leafNext], sp.leaves[leafOnCall], sp.leaves[leafRoute], sp.leaves[leafSched]
	gtCalls, gtTime := sp.total(spanChooseGT)
	_, iterGen := sp.total(spanGenerate)
	_, replayTime := sp.total(spanReplay)
	sim := spans.out.sim
	return withUnits(perLayer, map[string]float64{
		"trace.next_calls":         per(next.n),
		"trace.busy_s":             secs(next.d),
		"trace.ns_per_op":          nsPer(next, next.n),
		"workloads.generate_s":     setupGen.Seconds() + secs(iterGen),
		"harness.choose_gt_calls":  per(int64(gtCalls)),
		"harness.choose_gt_s":      secs(gtTime),
		"predictor.oncall_calls":   per(oncall.n),
		"predictor.busy_s":         secs(oncall.d),
		"predictor.ns_per_call":    nsPer(oncall, oncall.n),
		"predictor.shutdown_frac":  ratio(float64(sp.shutdowns), float64(oncall.n)),
		"power.shutdowns":          float64(sim.shutdowns),
		"power.demand_wakes":       float64(sim.demandWakes),
		"power.demand_wake_frac":   ratio(float64(sim.demandWakes), float64(sim.shutdowns)),
		"power.cpu_share":          shares.power,
		"topology.route_calls":     per(sp.routes),
		"topology.path_builds":     per(sp.builds),
		"topology.detours":         per(sp.detours),
		"topology.busy_s":          secs(route.d),
		"topology.ns_per_route":    nsPer(route, sp.routes),
		"topology.cache_hit_frac":  ratio(float64(sp.routes-sp.builds), float64(sp.routes)),
		"topology.cpu_share":       shares.topology,
		"network.transfers":        float64(sim.transfers),
		"network.unroutable":       float64(sim.unroutable),
		"network.cpu_share":        shares.network,
		"replay.busy_s":            secs(replayTime),
		"replay.self_s":            sp.self(spanReplay, timer) / n,
		"replay.match_cpu_share":   shares.match,
		"replay.expand_cpu_share":  shares.expand,
		"scenario.sched_calls":     per(sched.n),
		"scenario.sched_busy_s":    secs(sched.d),
		"scenario.admit_frac":      ratio(float64(sp.admitting), float64(sched.n)),
		"multijob.killed":          float64(sim.killed),
		"multijob.retried":         float64(sim.retried),
		"multijob.abandoned":       float64(sim.abandoned),
		"stats.telemetry_s":        telemetry,
		"stats.cpu_share":          shares.stats,
		"sweep.workers":            float64(inst.workers),
		"sweep.busy_frac":          ratio(base.cpu, base.busy()*float64(inst.workers)),
		"runtime.cpu_s":            base.cpu / float64(base.iters()),
		"runtime.gc_cpu_frac":      base.gcFrac,
		"bench.timer_ns":           timer,
		"bench.trace_overhead_pct": 100 * (spans.cpu/float64(spans.iters())/(base.cpu/float64(base.iters())) - 1),
	}), passes, nil
}

func newManifest(w workload, o runOptions) manifest {
	m := manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   w.name,
		Settings:   w.settings,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Scale:      o.scale,
		Traced:     o.traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}
