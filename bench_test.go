// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus microbenchmarks of the mechanism's hot paths and the ablation studies
// called out in DESIGN.md §8. Each Benchmark* that maps to a paper artifact
// reports the headline metric of that artifact as a custom unit so that
// `go test -bench=. -benchmem` doubles as the reproduction run.
package ibpower_test

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ibpower"
	"ibpower/internal/dvs"
	"ibpower/internal/harness"
	"ibpower/internal/mpi"
	"ibpower/internal/multijob"
	"ibpower/internal/network"
	"ibpower/internal/ngram"
	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/scenario"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// benchOpt keeps the sweep benches affordable; the ibpower CLI runs them at
// full scale.
var benchOpt = workloads.Options{IterScale: 0.15}

// parallelisms enumerates the worker-pool settings the sweep benches
// compare: the serial path (Parallelism: 1) against the GOMAXPROCS pool.
// Output is bit-identical between the two; only wall-clock time differs.
var parallelisms = []struct {
	name string
	par  int
}{{"serial", 1}, {"parallel", 0}}

// --- Table I: distribution of link idle intervals ---

func BenchmarkTableI(b *testing.B) {
	for _, bc := range parallelisms {
		b.Run(bc.name, func(b *testing.B) {
			cfg := replay.DefaultConfig()
			cfg.Parallelism = bc.par
			for i := 0; i < b.N; i++ {
				rows, err := harness.NewRunner(benchOpt, cfg).TableI()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var long float64
					for _, r := range rows {
						long += r.Dist.TimePct(2)
					}
					b.ReportMetric(long/float64(len(rows)), "avg_long_idle_time_%")
				}
			}
		})
	}
}

// --- Table III / Figure 10: grouping threshold selection ---

// BenchmarkTableIII_GTChoice times one ChooseGT pass over alya at 16
// processes and reports the chosen GT, its hit rate and the rank
// simulations behind it. GT selection runs for every Figure 7 point and
// every admitted churn job shape, so it is a gated hot path.
func BenchmarkTableIII_GTChoice(b *testing.B) { benchHot(b, gtChoice) }

// gtChoice chooses alya-16's grouping threshold over the default grid once
// per iteration. Under a benchmark, done reports the first iteration's
// choice.
func gtChoice(tb testing.TB) hotOp {
	tr, err := workloads.Generate("alya", 16, benchOpt)
	if err != nil {
		tb.Fatal(err)
	}
	grid := harness.DefaultGTGrid()
	var (
		gt  time.Duration
		hit float64
	)
	op := hotOp{run: func(i int) {
		g, h, err := harness.ChooseGT(tr, grid, 1.0)
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			gt, hit = g, h
		}
	}}
	if b, ok := tb.(*testing.B); ok {
		// Rank simulations behind the choice, counted outside the timed
		// loop on the grid, config and pool ChooseGT uses: at most
		// NP × len(grid), fewer wherever grid thresholds share one run.
		res, err := predictor.RunOfflineGrid(tr, predictor.DefaultName, grid,
			predictor.Config{Displacement: 0.01}, predictor.DefaultOverheads(), 1)
		if err != nil {
			tb.Fatal(err)
		}
		runs := 0
		for _, r := range res {
			runs += r.Runs
		}
		op.done = func() {
			b.ReportMetric(float64(gt/time.Microsecond), "GT_us")
			b.ReportMetric(hit, "hit_%")
			b.ReportMetric(float64(runs), "rank_runs")
		}
	}
	return op
}

// --- Figures 7–9: the paper's trace set ---

// BenchmarkGenerateFig7 reports generated ops/s for the 25 traces of the
// paper's Figure 7 sweep: every application at each of its process counts.
// The sweep and the churn scenarios regenerate these traces on every run.
func BenchmarkGenerateFig7(b *testing.B) { benchHot(b, generateFig7) }

func generateFig7(tb testing.TB) hotOp {
	ops := 0
	gen := func() {
		for _, app := range workloads.Apps() {
			for _, np := range workloads.ProcCounts(app) {
				tr, err := workloads.Generate(app, np, benchOpt)
				if err != nil {
					tb.Fatal(err)
				}
				ops += tr.NumOps()
			}
		}
	}
	gen()
	return hotOp{run: func(int) { gen() }, unit: "ops/s", per: float64(ops)}
}

func BenchmarkFig10_GTSweepGromacs(b *testing.B) {
	for _, np := range []int{64, 128} {
		b.Run(procName(np), func(b *testing.B) {
			tr, err := workloads.Generate("gromacs", np, benchOpt)
			if err != nil {
				b.Fatal(err)
			}
			for _, bc := range parallelisms {
				b.Run(bc.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pts, err := harness.GTSweep(tr, predictor.DefaultName, harness.DefaultGTGrid(), bc.par)
						if err != nil {
							b.Fatal(err)
						}
						if i == 0 {
							best := 0.0
							for _, p := range pts {
								if p.HitRatePct > best {
									best = p.HitRatePct
								}
							}
							b.ReportMetric(best, "best_hit_%")
						}
					}
				})
			}
		})
	}
}

// --- Table IV: PPA overheads at 16 processes ---

func BenchmarkTableIV_Overheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.NewRunner(benchOpt, replay.DefaultConfig()).TableIV()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var amort float64
			for _, r := range rows {
				amort += float64(r.Report.PerCallAmortized.Nanoseconds()) / 1e3
			}
			b.ReportMetric(amort/float64(len(rows)), "avg_us_per_call")
		}
	}
}

// --- Figures 7, 8, 9: power savings and execution time increase ---

func benchFigure(b *testing.B, displacement float64) {
	b.Helper()
	for _, bc := range parallelisms {
		b.Run(bc.name, func(b *testing.B) {
			cfg := replay.DefaultConfig()
			cfg.Parallelism = bc.par
			for i := 0; i < b.N; i++ {
				// A fresh Runner per iteration so every iteration pays the
				// full generate + choose-GT + replay pipeline.
				rows, err := harness.NewRunner(benchOpt, cfg).Figure(displacement)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var save, inc float64
					for _, r := range rows {
						save += r.SavingPct
						inc += r.TimeIncreasePct
					}
					b.ReportMetric(save/float64(len(rows)), "avg_saving_%")
					b.ReportMetric(inc/float64(len(rows)), "avg_time_incr_%")
				}
			}
		})
	}
}

func BenchmarkFig7_Displacement10(b *testing.B) { benchFigure(b, 0.10) }
func BenchmarkFig8_Displacement5(b *testing.B)  { benchFigure(b, 0.05) }
func BenchmarkFig9_Displacement1(b *testing.B)  { benchFigure(b, 0.01) }

// --- Figure 6: link power timeline ---

func BenchmarkFig6_Timeline(b *testing.B) {
	tr, err := workloads.Generate("gromacs", 16, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	cfg := replay.DefaultConfig().WithPower(40*time.Microsecond, 0.10)
	cfg.Power.RecordTimelines = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := replay.RunSource(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Timelines) != 16 {
			b.Fatalf("timelines = %d", len(res.Timelines))
		}
		if i == 0 {
			if err := trace.Render(io.Discard, res.Timelines, 120); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 2/3: the PPA walkthrough stream ---

func BenchmarkFig3_PPAWalkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bl := ngram.NewBuilder(20 * time.Microsecond)
		det := ngram.NewDetector()
		for it := 0; it < 8; it++ {
			for _, ev := range []struct {
				id  ngram.EventID
				gap time.Duration
			}{
				{41, 300 * time.Microsecond}, {41, 5 * time.Microsecond}, {41, 5 * time.Microsecond},
				{10, 200 * time.Microsecond}, {10, 200 * time.Microsecond},
			} {
				if g := bl.Add(ev.id, ev.gap); g != nil {
					det.AddGram(g)
				}
			}
		}
		if !det.Predicting() {
			b.Fatal("pattern not predicted")
		}
	}
}

// --- Ablations (DESIGN.md §8) ---

// BenchmarkAblationNetFidelity compares the message-level fast path against
// segment-level store-and-forward on the same workload.
func BenchmarkAblationNetFidelity(b *testing.B) {
	tr, err := workloads.Generate("alya", 16, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		m    network.Fidelity
	}{{"message", network.MessageLevel}, {"segment", network.SegmentLevel}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := replay.DefaultConfig()
			cfg.Net.Mode = mode.m
			for i := 0; i < b.N; i++ {
				res, err := replay.RunSource(tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.ExecTime.Microseconds()), "sim_exec_us")
				}
			}
		})
	}
}

// BenchmarkAblationOracleVsPPA bounds the prediction loss: the oracle knows
// every idle interval exactly. Both sides run on the offline runner at the
// same GT and pay the same modelled software overheads, so the gap is
// prediction error alone.
func BenchmarkAblationOracleVsPPA(b *testing.B) {
	tr, err := workloads.Generate("nasbt", 16, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	gts := []time.Duration{20 * time.Microsecond}
	cfg := predictor.Config{Displacement: 0.01}
	for _, name := range []string{"ngram", "oracle"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := predictor.RunOfflineGrid(tr, name, gts, cfg, predictor.DefaultOverheads(), 1)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(avgSaving(res[0]), "saving_%")
				}
			}
		})
	}
}

func avgSaving(res *predictor.OfflineResult) float64 {
	s := 0.0
	for _, ro := range res.Ranks {
		s += ro.Acct.SavingPct()
	}
	return s / float64(len(res.Ranks))
}

// BenchmarkAblationDisplacementSweep extends the paper's three displacement
// points across a finer grid.
func BenchmarkAblationDisplacementSweep(b *testing.B) {
	tr, err := workloads.Generate("wrf", 16, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	gt, _, err := harness.ChooseGT(tr, harness.DefaultGTGrid(), 1.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.40} {
		b.Run(pctName(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := replay.RunSource(tr, replay.DefaultConfig().WithPower(gt, d))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.AvgSavingPct(), "saving_%")
				}
			}
		})
	}
}

// BenchmarkBaselineDVS compares the WRPS mechanism against the related-work
// history-based link DVS policy (Section V) on host-link power.
func BenchmarkBaselineDVS(b *testing.B) {
	tr, err := workloads.Generate("gromacs", 8, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wrps", func(b *testing.B) {
		cfg := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01)
		for i := 0; i < b.N; i++ {
			res, err := replay.RunSource(tr, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.AvgSavingPct(), "saving_%")
			}
		}
	})
	b.Run("dvs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := dvs.Evaluate(tr)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.AvgSavingPct(), "saving_%")
				b.ReportMetric(float64(res.AvgAddedSerial().Microseconds()), "added_serial_us")
			}
		}
	})
}

// BenchmarkAblationDeepSleep evaluates the Section VI deep mode against
// lanes-only WRPS at a 400 µs deep reactivation.
func BenchmarkAblationDeepSleep(b *testing.B) {
	tr, err := workloads.Generate("gromacs", 8, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	lanes := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	deep := lanes.WithDeepSleep(power.DeepConfig{Treact: 400 * time.Microsecond})
	for _, c := range []struct {
		name string
		cfg  replay.Config
	}{{"lanes", lanes}, {"deep", deep}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := replay.RunSource(tr, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.AvgSavingPct(), "saving_%")
				}
			}
		})
	}
}

// --- Microbenchmarks of the hot paths ---
//
// Each gated hot path is set up once, by a function returning its timed
// operation. Its Benchmark* func times that operation, and
// TestHotPathCeilings (ceilings_test.go) pins its allocations, so the
// ceilings hold exactly what the benchmarks time. .github/bench-ab.sh
// compares the same benchmarks' wall time against the merge base.

// hotOp is one hot path's timed operation: run(i) performs iteration i.
// When unit is set, the benchmark reports per·b.N/elapsed in that unit.
type hotOp struct {
	run  func(i int)
	done func() // optional: runs once after the loop, inside the timed region (deferred work, metric reports)
	unit string
	per  float64
}

// benchHot times the operation setup returns.
func benchHot(b *testing.B, setup func(testing.TB) hotOp) {
	op := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.run(i)
	}
	if op.done != nil {
		op.done()
	}
	if op.unit != "" {
		b.ReportMetric(op.per*float64(b.N)/b.Elapsed().Seconds(), op.unit)
	}
}

// replayOp replays src under cfg once per iteration, reporting per units
// (trace calls or ops) per second.
func replayOp(tb testing.TB, src trace.Source, cfg replay.Config, unit string, per float64) hotOp {
	return hotOp{run: func(int) {
		if _, err := replay.RunSource(src, cfg); err != nil {
			tb.Fatal(err)
		}
	}, unit: unit, per: per}
}

// alya16 is the replay benchmarks' workload: alya at 16 processes.
func alya16(tb testing.TB) *trace.Trace {
	tr, err := workloads.Generate("alya", 16, workloads.Options{IterScale: 0.1})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// mustNet builds a network over fabric with the default config.
func mustNet(tb testing.TB, fabric topology.Fabric) *network.Network {
	net, err := network.New(fabric, network.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

func BenchmarkPredictorOnCall(b *testing.B) {
	p := predictor.MustNew(predictor.Config{GT: 20 * time.Microsecond, Displacement: 0.01})
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := predictor.EventID(41)
		gap := 5 * time.Microsecond
		switch i % 5 {
		case 0:
			gap = 300 * time.Microsecond
		case 3, 4:
			id, gap = 10, 200*time.Microsecond
		}
		now += gap
		p.OnCall(id, now, now)
	}
}

func BenchmarkGramBuilder(b *testing.B) {
	bl := ngram.NewBuilder(20 * time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap := 5 * time.Microsecond
		if i%4 == 0 {
			gap = 100 * time.Microsecond
		}
		bl.Add(ngram.EventID(i%3+1), gap)
	}
}

func BenchmarkControllerCycle(b *testing.B) {
	c := ibpower.NewLinkController(0)
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		c.Shutdown(now, 200*time.Microsecond)
		now += 300 * time.Microsecond
		now = c.Acquire(now)
	}
}

// BenchmarkNetworkTransfer sends 8 KiB messages between shifting terminal
// pairs of the paper XGFT.
func BenchmarkNetworkTransfer(b *testing.B) { benchHot(b, networkTransfer) }

func networkTransfer(tb testing.TB) hotOp {
	net := mustNet(tb, topology.Paper())
	return hotOp{run: func(i int) {
		net.Transfer(i%128, (i+37)%128, 8192, time.Duration(i)*time.Microsecond)
	}}
}

// BenchmarkDragonflyTransfer times transfers over the dragonfly preset: the
// generic Fabric routing path (interface dispatch into the dragonfly's
// RouteIDsInto) rather than the paper XGFT's. Inter-group endpoints keep the
// Valiant intermediate-group draw on every transfer.
func BenchmarkDragonflyTransfer(b *testing.B) { benchHot(b, dragonflyTransfer) }

func dragonflyTransfer(tb testing.TB) hotOp {
	fabric := topology.MustNamed("dragonfly")
	net := mustNet(tb, fabric)
	n := fabric.NumTerminals()
	return hotOp{run: func(i int) {
		net.Transfer(i%n, (i+n/2+3)%n, 8192, time.Duration(i)*time.Microsecond)
	}}
}

func BenchmarkRouteCrossLeaf(b *testing.B) {
	topo := topology.Paper()
	buf := make([]topology.LinkID, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = topo.RouteIDsInto(buf[:0], i%18, 250-(i%18), nil)
	}
}

// BenchmarkBigFabricRoutes reports routes/s over random pairs of the
// 8000-terminal xgft3-big preset, each route built directly into a reused
// buffer with live RNG draws (two per cross-tree route): the healthy
// transfer's routing call.
func BenchmarkBigFabricRoutes(b *testing.B) { benchHot(b, bigFabricRoutes) }

func bigFabricRoutes(testing.TB) hotOp {
	fabric := topology.MustNamed("xgft3-big")
	buf := make([]topology.LinkID, 0, 8)
	rng := rand.New(rand.NewSource(1))
	n := fabric.NumTerminals()
	return hotOp{run: func(i int) {
		buf = fabric.RouteIDsInto(buf[:0], i%n, (i*7919+13)%n, rng)
	}, unit: "routes/s", per: 1}
}

// BenchmarkBigFabricReplay reports replay calls/s with ranks on the
// 8000-terminal xgft3-big preset: the full engine (routing, timing, power
// mechanism) against per-LinkID state sized for 48000 directed links.
func BenchmarkBigFabricReplay(b *testing.B) { benchHot(b, bigFabricReplay) }

func bigFabricReplay(tb testing.TB) hotOp {
	tr := alya16(tb)
	cfg := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01).WithFabric("xgft3-big")
	return replayOp(tb, tr, cfg, "calls/s", float64(tr.NumCalls()))
}

// BenchmarkReplayAlya16 reports calls/s for the full power-aware replay of
// alya at 16 processes on the paper XGFT.
func BenchmarkReplayAlya16(b *testing.B) { benchHot(b, replayAlya16) }

func replayAlya16(tb testing.TB) hotOp {
	tr := alya16(tb)
	cfg := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	return replayOp(tb, tr, cfg, "calls/s", float64(tr.NumCalls()))
}

// BenchmarkReplayTelemetry is BenchmarkReplayAlya16 with telemetry on:
// every link reservation, power-mode interval and prediction opportunity
// is recorded on the streaming recorder, and each iteration settles it, so
// the timed region covers the applier's bucket and sketch updates too.
func BenchmarkReplayTelemetry(b *testing.B) { benchHot(b, replayTelemetry) }

func replayTelemetry(tb testing.TB) hotOp {
	tr := alya16(tb)
	cfg := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01).WithTelemetry(0)
	return hotOp{run: func(int) {
		res, err := replay.RunSource(tr, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		res.Series.Buckets() // every reader settles: the applier's work is done
	}, unit: "calls/s", per: float64(tr.NumCalls())}
}

// BenchmarkStreamReplay reports events/s for the file-backed streaming replay
// path: the alya-16 workload packed once into the binary trace format and
// replayed through bounded per-rank read windows. events/s counts trace ops
// pulled through cursors; bytes/op is the heap cost of one full replay, which
// stays O(window) however long the trace is.
func BenchmarkStreamReplay(b *testing.B) { benchHot(b, streamReplay) }

func streamReplay(tb testing.TB) hotOp {
	src, err := workloads.NewSource("alya", 16, workloads.Options{IterScale: 0.1})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "bench.ibt")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := trace.WriteBinarySources(f, src); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	bf, err := trace.OpenFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { bf.Close() })
	fsrc, err := bf.Source("alya", 16)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01)
	return replayOp(tb, fsrc, cfg, "events/s", float64(bf.NumOps(0)))
}

// BenchmarkMultijob times the shared-fabric engine, replay.RunJobs, on a
// gromacs + alya mix round-robin-interleaved across the paper XGFT's leaf
// switches, both with the mechanism on. Placement and trace generation
// happen once in setup, so the operation is the engine's merged-timeline
// hot path alone.
func BenchmarkMultijob(b *testing.B) { benchHot(b, multijobReplay) }

func multijobReplay(tb testing.TB) hotOp {
	mix := []multijob.JobSpec{{App: "gromacs", NP: 8}, {App: "alya", NP: 8}}
	opt := workloads.Options{IterScale: 0.1}
	var jobs []replay.Job
	var calls float64
	pw := replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01).Power
	sizes := make([]int, len(mix))
	for i, js := range mix {
		sizes[i] = js.NP
	}
	terms, err := multijob.Place("roundrobin", topology.Paper(), sizes, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i, js := range mix {
		tr, err := workloads.Generate(js.App, js.NP, opt)
		if err != nil {
			tb.Fatal(err)
		}
		calls += float64(tr.NumCalls())
		jobs = append(jobs, replay.Job{Trace: tr, Terminals: terms[i], Power: &pw})
	}
	cfg := replay.DefaultConfig()
	return hotOp{run: func(int) {
		if _, err := replay.RunJobs(jobs, cfg); err != nil {
			tb.Fatal(err)
		}
	}, unit: "calls/s", per: calls}
}

// BenchmarkChurnAdmit times one admission of a replay.Churn session on the
// paper XGFT with the mechanism on: each operation admits alya at 16
// processes on terminals 0-15 at the previous job's finish and drains it.
// The session lives across operations, so from the second admission on
// every rank's step buffer, n-gram predictor and link controller is the
// previous job's, reset in place.
func BenchmarkChurnAdmit(b *testing.B) { benchHot(b, churnAdmit) }

func churnAdmit(tb testing.TB) hotOp {
	tr := alya16(tb)
	c, err := replay.NewChurn(replay.DefaultConfig().WithPower(20*time.Microsecond, 0.01))
	if err != nil {
		tb.Fatal(err)
	}
	terms := make([]int, tr.NP)
	for r := range terms {
		terms[r] = r
	}
	var at time.Duration
	return hotOp{run: func(int) {
		res, err := c.AdmitAt(at, replay.Job{Trace: tr, Terminals: terms})
		if err != nil {
			tb.Fatal(err)
		}
		at += res[0].ExecTime
	}, unit: "calls/s", per: float64(tr.NumCalls())}
}

// BenchmarkScenarioChurn reports jobs/s through the churn event loop's
// steady state. Each operation cycles one job through a saturated fabric:
// the fcfs policy scans a queue whose head does not fit (the head-of-line
// state a loaded scenario lives in), then a finishing job's terminals
// release back to the pooled free-list and the next job claims them. Replay
// is excluded (BenchmarkMultijob times that); this is the scheduling
// machinery itself.
func BenchmarkScenarioChurn(b *testing.B) { benchHot(b, scenarioChurn) }

func scenarioChurn(tb testing.TB) hotOp {
	fabric := topology.Paper()
	order, err := multijob.Ordering("roundrobin", fabric, 1)
	if err != nil {
		tb.Fatal(err)
	}
	free, err := multijob.NewFreeList(fabric, order)
	if err != nil {
		tb.Fatal(err)
	}
	fcfs, err := scenario.Named("fcfs")
	if err != nil {
		tb.Fatal(err)
	}
	// Saturate: a resident job holds most of the fabric, the queue head
	// wants more than the remainder, and one 12-rank job cycles through the
	// free slots forever.
	free.Alloc(free.NumTerminals() - 12)
	ctx := &multijob.SchedContext{
		Queue:  []multijob.QueuedJob{{ID: 0, Spec: multijob.JobSpec{App: "gromacs", NP: 96}}},
		Free:   free,
		Fabric: fabric,
	}
	// Warm the free-list's slice pool so the operation recycles.
	free.Release(free.Alloc(12))
	return hotOp{run: func(int) {
		if picks := fcfs(ctx); len(picks) != 0 {
			tb.Fatal("blocked head admitted")
		}
		terms := free.Alloc(12)
		if terms == nil {
			tb.Fatal("alloc failed on a free fabric slice")
		}
		free.Release(terms)
	}, unit: "jobs/s", per: 1}
}

// BenchmarkChurnWithFaults times the degraded-routing transfer path: the
// paper XGFT with one switch-to-switch cable down, so every transfer takes
// the fault-aware branch (a RouteDraws into scratch, with the healthy path's
// RNG consumption, plus a RouteIDsAvoiding detour) instead of the healthy
// RouteIDsInto. No transfer may end unroutable.
func BenchmarkChurnWithFaults(b *testing.B) { benchHot(b, churnWithFaults) }

func churnWithFaults(tb testing.TB) hotOp {
	fabric := topology.Paper()
	net := mustNet(tb, fabric)
	fs := topology.NewFaultSet(fabric)
	tab := fabric.Table()
	failed := false
	for id := 0; id < tab.Len(); id += 2 {
		if tab.SwitchToSwitch(topology.LinkID(id)) {
			fs.FailLink(topology.LinkID(id))
			failed = true
			break
		}
	}
	if !failed {
		tb.Fatal("no switch-to-switch cable to fail")
	}
	if err := net.SetFaults(fs); err != nil {
		tb.Fatal(err)
	}
	// Warm the detour scratch buffers so the operation recycles them.
	net.Transfer(0, 37, 8192, 0)
	tb.Cleanup(func() {
		if net.Unroutable() != 0 {
			tb.Errorf("%d unroutable transfers on a single-cable fault", net.Unroutable())
		}
	})
	return hotOp{run: func(i int) {
		net.Transfer(i%128, (i+37)%128, 8192, time.Duration(i)*time.Microsecond)
	}}
}

// BenchmarkDetectorAddGram measures the steady-state PPA gram path: a
// detected pattern being predicted over interned grams (zero allocations).
func BenchmarkDetectorAddGram(b *testing.B) {
	grams, det := steadyStateDetector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.AddGram(grams[i%len(grams)])
	}
}

// steadyStateDetector builds a detector predicting the paper's Figure 3
// pattern and returns one full pattern appearance of finalized grams to
// cycle through it. Feeding the grams in order keeps the detector in
// prediction mode forever; the steady-state AddGram path allocates nothing.
func steadyStateDetector(tb testing.TB) ([]*ngram.Gram, *ngram.Detector) {
	const gt = 20 * time.Microsecond
	bl := ngram.NewBuilder(gt)
	det := ngram.NewDetector()
	stream := []struct {
		id  ngram.EventID
		gap time.Duration
	}{
		{41, 300 * time.Microsecond}, {41, 5 * time.Microsecond}, {41, 5 * time.Microsecond},
		{10, 200 * time.Microsecond}, {10, 200 * time.Microsecond},
	}
	var grams []*ngram.Gram
	for it := 0; it < 8; it++ {
		for _, ev := range stream {
			if g := bl.Add(ev.id, ev.gap); g != nil {
				det.AddGram(g)
				if it >= 4 {
					kept := *g // Add reuses the Gram struct and its IDs buffer
					kept.IDs = slices.Clone(g.IDs)
					grams = append(grams, &kept)
				}
			}
		}
	}
	if !det.Predicting() {
		tb.Fatal("walkthrough stream did not reach prediction mode")
	}
	// Keep one aligned pattern appearance: the detector's phase after the
	// warmup continues exactly into grams[0].
	size := det.Active().Size()
	return grams[len(grams)-size:], det
}

// TestSteadyStateDetector pins the helper contract the AddGram benchmark
// relies on: cycling the returned grams keeps the detector predicting.
func TestSteadyStateDetector(t *testing.T) {
	grams, det := steadyStateDetector(t)
	if len(grams) == 0 {
		t.Fatal("no grams returned")
	}
	before := det.Stats().Mispredictions
	for i := 0; i < 10*len(grams); i++ {
		det.AddGram(grams[i%len(grams)])
	}
	if !det.Predicting() {
		t.Error("detector dropped out of prediction mode")
	}
	if after := det.Stats().Mispredictions; after != before {
		t.Errorf("mispredictions grew from %d to %d over the steady cycle", before, after)
	}
}

// BenchmarkTimeSeriesRecord measures the streaming telemetry record path,
// the work -timeseries adds per simulated transfer, with the replay
// engine's series registry shape: per operation, one busy span on a util
// class series, one power-draw span and one hit-rate sample, recorded into
// P²-sketched interval buckets. The timed region ends with a settle, so it
// covers the applier's work too.
func BenchmarkTimeSeriesRecord(b *testing.B) { benchHot(b, timeSeriesRecord) }

func timeSeriesRecord(testing.TB) hotOp {
	// Start one applier on a throwaway recorder first: the process's first
	// applier may need a new OS thread, a one-time runtime cost. The
	// measured recorder still hands its first batch over mid-measurement.
	warm := stats.NewTimeSeries(time.Millisecond, 2)
	wid := warm.AddSeries("warm", "x")
	for i := 0; i < 1<<13; i++ {
		warm.Record(wid, 0, 0)
	}
	warm.Buckets()

	ts := stats.NewTimeSeries(time.Millisecond, replay.TelemetryBuckets)
	power := ts.AddSpanSeries("power.host", "link-seconds")
	hit := ts.AddSeries("pred.hit", "hit")
	util := [4]stats.SeriesID{
		ts.AddSpanSeries("util.hostup", "busy-seconds"),
		ts.AddSpanSeries("util.hostdn", "busy-seconds"),
		ts.AddSpanSeries("util.up", "busy-seconds"),
		ts.AddSpanSeries("util.down", "busy-seconds"),
	}
	var now time.Duration
	return hotOp{run: func(i int) {
		dur := time.Duration(2+i%17) * time.Microsecond
		ts.RecordSpan(util[i%4], now, now+dur, dur.Seconds())
		ts.RecordSpan(power, now, now+50*time.Microsecond, 43e-6)
		ts.Record(hit, now, float64(i%2))
		now += 30 * time.Microsecond
	}, done: func() { ts.Buckets() }}
}

func BenchmarkMiniMPIAllreduce(b *testing.B) {
	const np = 8
	b.ResetTimer()
	err := mpi.Run(np, func(c *mpi.Comm) error {
		data := []float64{float64(c.Rank())}
		for i := 0; i < b.N; i++ {
			c.Allreduce(data, mpi.Sum)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func procName(np int) string {
	return "np" + itoa(np)
}

func pctName(d float64) string {
	return "d" + itoa(int(d*100)) + "pct"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
