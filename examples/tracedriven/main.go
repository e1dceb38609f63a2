// Tracedriven: the paper's full evaluation pipeline on one workload —
// generate a synthetic ALYA-like trace, pick the grouping threshold by
// sweep, replay it through the fat-tree network simulator with and without
// the mechanism, and print a Figure 7/8/9-style row for each displacement
// factor.
//
//	go run ./examples/tracedriven [-app alya] [-np 16]
package main

import (
	"flag"
	"fmt"
	"os"

	"ibpower/internal/harness"
	"ibpower/internal/replay"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

func main() {
	app := flag.String("app", "alya", "workload (alya, gromacs, wrf, nasbt, nasmg)")
	np := flag.Int("np", 16, "number of MPI processes")
	scale := flag.Float64("scale", 0.5, "iteration count multiplier")
	flag.Parse()

	opt := workloads.Options{IterScale: *scale}
	tr, err := workloads.Generate(*app, *np, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s with %d processes: %d MPI calls across ranks\n", *app, *np, tr.NumCalls())

	dist, err := trace.SourceIdleDistribution(tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("idle intervals: %d short (<20us), %d medium, %d long (>200us); long intervals hold %.2f%% of idle time\n",
		dist.Count[0], dist.Count[1], dist.Count[2], dist.TimePct(2))

	// Sweep the GT grid with ranks on the worker pool; the chosen threshold
	// is the same at any pool size.
	gt, hit, err := harness.ChooseGTParallel(tr, harness.DefaultGTGrid(), 1.0, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("chosen grouping threshold: %v (offline MPI call hit rate %.1f%%)\n\n", gt, hit)

	cfg := replay.DefaultConfig()
	fmt.Println("displacement  saving[%]  time increase[%]  hit[%]")
	for _, d := range []float64{0.10, 0.05, 0.01} {
		row, err := harness.FigurePoint(tr, gt, d, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%10.0f%%  %9.2f  %16.2f  %6.1f\n",
			d*100, row.SavingPct, row.TimeIncreasePct, row.HitRatePct)
	}
}
