package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json repeats the
// end-to-end and per-layer tables; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // share of the baseline median a regression may reach
}

// endToEnd are the host-side costs a user of the simulator sees, reported by
// every untraced run of every workload. Simulated results are not among them:
// they differ from seed to seed by more than any bound, and the digest check
// already fails a run whose simulation changed.
//
// The host-time bounds are wide because a shared 2-core machine shifts the
// speed of whole runs by 10-20% for minutes at a time; no estimator inside
// one run removes that. Allocation and memory repeat to within a few percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"calls_per_s", "1/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"alloc_mb", "MB", "lower", 0.05},
}

// perLayer are the traced run's metrics. Counts and times are per timed
// iteration; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "trace.next_calls", Unit: "count", Better: "lower"},
	{Name: "trace.busy_s", Unit: "s", Better: "lower"},
	{Name: "trace.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "workloads.generate_s", Unit: "s", Better: "lower"},
	{Name: "harness.choose_gt_calls", Unit: "count", Better: "lower"},
	{Name: "harness.choose_gt_s", Unit: "s", Better: "lower"},
	{Name: "predictor.oncall_calls", Unit: "count", Better: "lower"},
	{Name: "predictor.busy_s", Unit: "s", Better: "lower"},
	{Name: "predictor.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "predictor.shutdown_frac", Unit: "ratio", Better: "higher"},
	{Name: "power.shutdowns", Unit: "count", Better: "higher"},
	{Name: "power.demand_wakes", Unit: "count", Better: "lower"},
	{Name: "power.demand_wake_frac", Unit: "ratio", Better: "lower"},
	{Name: "power.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "topology.route_calls", Unit: "count", Better: "lower"},
	{Name: "topology.path_builds", Unit: "count", Better: "lower"},
	{Name: "topology.detours", Unit: "count", Better: "lower"},
	{Name: "topology.busy_s", Unit: "s", Better: "lower"},
	{Name: "topology.ns_per_route", Unit: "ns", Better: "lower"},
	{Name: "topology.cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "topology.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "network.transfers", Unit: "count", Better: "lower"},
	{Name: "network.unroutable", Unit: "count", Better: "lower"},
	{Name: "network.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "replay.busy_s", Unit: "s", Better: "lower"},
	{Name: "replay.self_s", Unit: "s", Better: "lower"},
	{Name: "replay.match_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "replay.expand_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.sched_calls", Unit: "count", Better: "lower"},
	{Name: "scenario.sched_busy_s", Unit: "s", Better: "lower"},
	{Name: "scenario.admit_frac", Unit: "ratio", Better: "higher"},
	{Name: "multijob.killed", Unit: "count", Better: "lower"},
	{Name: "multijob.retried", Unit: "count", Better: "lower"},
	{Name: "multijob.abandoned", Unit: "count", Better: "lower"},
	{Name: "stats.telemetry_s", Unit: "s", Better: "lower"},
	{Name: "stats.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sweep.workers", Unit: "count", Better: "higher"},
	{Name: "sweep.busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "runtime.cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.timer_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method, which
// extrapolates for very small samples).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
