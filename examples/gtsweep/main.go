// Gtsweep: reproduce the paper's Figure 10 for one workload — the fraction
// of correctly predicted MPI calls as a function of the grouping threshold —
// and render it as a text chart.
//
//	go run ./examples/gtsweep [-app gromacs] [-np 64,128]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ibpower/internal/harness"
	"ibpower/internal/predictor"
	"ibpower/internal/workloads"
)

func main() {
	app := flag.String("app", "gromacs", "workload")
	npList := flag.String("np", "64,128", "comma-separated process counts")
	scale := flag.Float64("scale", 0.5, "iteration count multiplier")
	par := flag.Int("parallel", 0, "max concurrent ranks per sweep (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	for _, f := range strings.Split(*npList, ",") {
		np, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, err := workloads.Generate(*app, np, workloads.Options{IterScale: *scale})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pts, err := harness.GTSweep(tr, predictor.DefaultName, harness.DefaultGTGrid(), *par)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s, %d processes (Figure 10)\n", *app, np)
		for _, p := range pts {
			bar := strings.Repeat("#", int(p.HitRatePct/2))
			fmt.Printf("  GT %4dus %6.1f%% |%s\n", p.GT/time.Microsecond, p.HitRatePct, bar)
		}
		fmt.Println()
	}
}
