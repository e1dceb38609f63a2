// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus microbenchmarks of the mechanism's hot paths and the ablation studies
// called out in DESIGN.md §8. Each Benchmark* that maps to a paper artifact
// reports the headline metric of that artifact as a custom unit so that
// `go test -bench=. -benchmem` doubles as the reproduction run.
package ibpower_test

import (
	"io"
	"testing"
	"time"

	"ibpower"
	"ibpower/internal/benchio"
	"ibpower/internal/dvs"
	"ibpower/internal/harness"
	"ibpower/internal/mpi"
	"ibpower/internal/network"
	"ibpower/internal/ngram"
	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
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

func BenchmarkTableIII_GTChoice(b *testing.B) {
	tr, err := workloads.Generate("alya", 16, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	grid := harness.DefaultGTGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := predictor.RankRuns()
		gt, hit, err := harness.ChooseGT(tr, grid, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(gt/time.Microsecond), "GT_us")
			b.ReportMetric(hit, "hit_%")
			// Rank simulations behind the choice: at most NP × len(grid),
			// fewer wherever grid thresholds share one run.
			b.ReportMetric(float64(predictor.RankRuns()-runs), "rank_runs")
		}
	}
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
		det := ngram.NewDetector(0)
		var now time.Duration
		for it := 0; it < 8; it++ {
			for _, ev := range []struct {
				id  ngram.EventID
				gap time.Duration
			}{
				{41, 300 * time.Microsecond}, {41, 5 * time.Microsecond}, {41, 5 * time.Microsecond},
				{10, 200 * time.Microsecond}, {10, 200 * time.Microsecond},
			} {
				now += ev.gap
				if g := bl.Add(ev.id, ev.gap, now, now); g != nil {
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
	for _, a := range res.Acct {
		s += a.SavingPct()
	}
	return s / float64(len(res.Acct))
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
			res, err := dvs.Evaluate(tr, dvs.DefaultConfig())
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
// The headline bodies live in internal/benchio (one source of truth for the
// BENCH_<n>.json trajectory and the CI bench-smoke gate); the wrappers here
// keep them runnable under `go test -bench` with the canonical names.

func BenchmarkPredictorOnCall(b *testing.B) { benchio.BenchPredictorOnCall(b) }

func BenchmarkGramBuilder(b *testing.B) {
	bl := ngram.NewBuilder(20 * time.Microsecond)
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap := 5 * time.Microsecond
		if i%4 == 0 {
			gap = 100 * time.Microsecond
		}
		now += gap
		bl.Add(ngram.EventID(i%3+1), gap, now, now)
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

func BenchmarkNetworkTransfer(b *testing.B) { benchio.BenchNetworkTransfer(b) }

// BenchmarkDragonflyTransfer times the generic Fabric routing path: the
// dragonfly preset with its per-transfer Valiant intermediate-group draw.
func BenchmarkDragonflyTransfer(b *testing.B) { benchio.BenchDragonflyTransfer(b) }

func BenchmarkRouteCrossLeaf(b *testing.B) { benchio.BenchRouteCrossLeaf(b) }

// BenchmarkBigFabricRoutes reports routes/s over the 8000-terminal xgft3-big
// preset, each route built directly into a reused buffer with live RNG draws.
func BenchmarkBigFabricRoutes(b *testing.B) { benchio.BenchBigFabricRoutes(b) }

// BenchmarkBigFabricReplay reports replay calls/s with ranks on the
// 8000-terminal xgft3-big preset.
func BenchmarkBigFabricReplay(b *testing.B) { benchio.BenchBigFabricReplay(b) }

func BenchmarkReplayAlya16(b *testing.B) { benchio.BenchReplayAlya16(b) }

// BenchmarkStreamReplay reports events/s for the file-backed streaming replay
// path: the alya-16 workload packed into the binary trace format and replayed
// through bounded per-rank read windows; bytes/op stays O(window).
func BenchmarkStreamReplay(b *testing.B) { benchio.BenchStreamReplay(b) }

// BenchmarkMultijob times the shared-fabric engine: a gromacs + alya mix
// round-robin-interleaved across the paper XGFT's leaf switches.
func BenchmarkMultijob(b *testing.B) { benchio.BenchMultijob(b) }

// BenchmarkScenarioChurn reports jobs/s through the churn event loop's
// steady state (scheduler scan + pooled terminal claim/release), which must
// stay at 0 allocs/op.
func BenchmarkScenarioChurn(b *testing.B) { benchio.BenchScenarioChurn(b) }

// BenchmarkChurnWithFaults times the degraded-routing transfer path: every
// transfer detours around a failed cable (RouteDraws + RouteIDsAvoiding),
// which must stay at 0 allocs/op in steady state.
func BenchmarkChurnWithFaults(b *testing.B) { benchio.BenchChurnWithFaults(b) }

// BenchmarkDetectorAddGram measures the steady-state PPA gram path: a
// detected pattern being predicted over interned grams (zero allocations).
func BenchmarkDetectorAddGram(b *testing.B) { benchio.BenchDetectorAddGram(b) }

// BenchmarkTimeSeriesRecord measures the streaming telemetry record path
// (span + sample recording into P²-sketched interval buckets), the work
// -timeseries adds per simulated transfer; must stay at 0 allocs/op.
func BenchmarkTimeSeriesRecord(b *testing.B) { benchio.BenchTimeSeriesRecord(b) }

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
