// Command bench is the repository benchmark. It runs four workloads that
// stress different layers of the simulator, prints every end-to-end metric
// with its unit, checks the simulated outputs against each other and, at the
// default seed, against pinned digests. A traced run (-trace 1) reports
// per-layer metrics measured from outside the program: timed public calls,
// layer wrappers installed at public seams, and a CPU profile.
//
// Run it from the repository root with bash bench/run.sh, which builds it
// from source first:
//
//	bash bench/run.sh                          # all workloads, one process each
//	bash bench/run.sh -workload spread-8k -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -trace 1                 # per-layer metrics
//	bash bench/run.sh -report a.json           # also append reports to a.json
//	bash bench/run.sh -compare a.json b.json   # verdict per workload and metric
//
// bench/README.md documents the metrics, the workloads and the seed policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "seconds of timed iterations; a traced run splits them between its passes")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	reportPath := flag.String("report", "", "append each run's report, with its manifest, to this file as a JSON line")
	compare := flag.Bool("compare", false, "compare two report files given as arguments: parent then change")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *traceFlag != 0 && *traceFlag != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case *name == "":
		err = runAll(*seed, *seconds, *traceFlag, *reportPath)
	default:
		err = runOne(*name, runOptions{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, scale: 1}, *reportPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, so each pays the
// process-wide caches (micro-op expansion, gram interning, the fabric
// registry) as a command-line user does, and peak RSS is its own.
func runAll(seed int64, seconds float64, traceFlag int, reportPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range allWorkloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceFlag),
			"-report", reportPath)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(allWorkloads))
	}
	return nil
}

// runOne runs one workload in this process and prints its metrics, ending
// with the JSON result line.
func runOne(name string, o runOptions, reportPath string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	// Files the workloads write stay inside the working directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	o.dir, err = os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(o.dir)
	rep, err := runWorkload(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	fmt.Printf("# %s seed=%d: %d iterations, %d failed, digest %s\n", name, o.seed, rep.Attempted, rep.Failed, rep.Digest)
	fmt.Printf("# %s simulated:", name)
	for _, k := range slices.Sorted(maps.Keys(rep.Simulated)) {
		fmt.Printf(" %s=%.6g", k, rep.Simulated[k])
	}
	fmt.Println()
	for _, m := range defs {
		v := rep.Metrics[m.Name]
		fmt.Printf("%-14s %-26s %14.6g %s\n", name, m.Name, v.Value, v.Unit)
	}
	if reportPath != "" {
		if err := appendReport(reportPath, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendReport(path string, rep report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
