// Command ibpower regenerates the paper's tables and figures.
//
// Subcommands:
//
//	tableI            idle-interval distributions (Table I)
//	gt                GT sweep for one workload (Figure 10) or all (Table III)
//	overheads         measured PPA overheads at 16 processes (Table IV)
//	figures           power savings and execution-time increase (Figures 7–9)
//	compare           every registered predictor over every workload (E14)
//	multijob          concurrent workloads sharing one fabric (E15)
//	scenario          job churn: arrivals, queueing, scheduling (E16); -faults/-faultsweep add hardware failures (E17)
//	timeline          per-rank link power timeline (Figure 6)
//	ppa               PPA walkthrough on the Figure 2/3 event stream
//	energy            Section VI extension: deep modes + fabric energy
//	dvs               related-work baseline: history-based link DVS vs WRPS
//	weak              claim check: weak vs strong scaling (Section III)
//	topos             registered fabrics with size and compact-table memory
//	trace             packed binary trace files: pack, cat, info
//
// Every simulating subcommand (all but ppa, topos and trace) shares one flag
// set: -seed and -scale for workload generation, -parallel for the worker
// pool, and -predictor to select the idle predictor from the registry
// (ngram, oracle, offline, lastvalue, ewma, static-gt); compare runs them
// all side by side.
// All of them but gt, whose GT selection is network-free, also accept -topo
// to select the simulated fabric from the topology registry (xgft — the paper's
// XGFT(2;18,14;1,18) and the default — xgft3, dragonfly, torus2d, torus3d,
// and the supercomputer-scale xgft3-big and dragonfly-big at ~8000
// terminals), so e.g. "ibpower compare -topo dragonfly" reruns the full
// predictor sweep on a dragonfly; "ibpower topos" lists every fabric with
// its size and compact-table memory. The multijob subcommand additionally takes -jobs (an
// app:np,... mix) and -placement (linear, random, roundrobin) from the
// placement registry. The scenario subcommand generates a whole arrival
// stream from -spec (e.g. "jobs=200,size=zipf:16:256,arrival=poisson:30s,
// seed=7") or -specfile, and schedules it with -sched (fcfs, backfill,
// power-aware) from the scheduler registry — the module's fourth named
// registry; -faults injects seeded link/switch/terminal failures
// ("link:poisson:10m:mttr=2m,switch:fixed:5m") with degraded routing and
// job retry, and -faultsweep grids ";"-separated fault specs against every
// scheduler (E17). Replay-driven subcommands accept -tracefile to serve
// workloads from a packed binary trace file (written by "ibpower trace
// pack") through a bounded streaming window instead of the generator.
// Run "ibpower <subcommand> -h" for flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"ibpower/internal/harness"
	"ibpower/internal/multijob"
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

// command is one subcommand: its name on the command line and the function
// that parses its flags and runs it.
type command struct {
	name string
	run  func(args []string) error
}

// commands is the dispatch table, in the order the usage line lists it.
var commands = []command{
	{"tableI", cmdTableI},
	{"gt", cmdGT},
	{"overheads", cmdOverheads},
	{"figures", cmdFigures},
	{"compare", cmdCompare},
	{"multijob", cmdMultijob},
	{"scenario", cmdScenario},
	{"timeline", cmdTimeline},
	{"ppa", cmdPPA},
	{"energy", cmdEnergy},
	{"dvs", cmdDVS},
	{"weak", cmdWeak},
	{"topos", cmdTopos},
	{"trace", cmdTrace},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-h" || name == "--help" || name == "help" {
		usage()
		return
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "ibpower: unknown subcommand %q\n", name)
		usage()
		os.Exit(2)
	}
	if err := commands[i].run(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "ibpower:", err)
		os.Exit(1)
	}
}

func usage() {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	fmt.Fprintf(os.Stderr, "usage: ibpower <%s> [flags]\n", strings.Join(names, "|"))
}

// Optional shared flags a simulating subcommand opts into with newSim.
const (
	withTopo       = 1 << iota // -topo: the simulated fabric
	withTraceFile              // -tracefile: serve workloads from a packed trace file
	withTimeseries             // -timeseries: record streaming telemetry of a single run
)

// sim is the flag set of one simulating subcommand. It registers the flags
// every such subcommand shares, and builds the harness.Runner they select;
// the subcommand adds its own flags to the embedded FlagSet.
type sim struct {
	*flag.FlagSet
	opt        workloads.Options
	par        int
	pred, topo string
	traceFile  string
	timeseries string
}

// newSim registers -seed, -scale, -parallel and -predictor (defaulting to
// pred; compare's "" means all registered) plus the optional flags in with.
// Without -topo the Runner simulates the paper's fabric.
func newSim(name, pred string, with int) *sim {
	s := &sim{FlagSet: flag.NewFlagSet(name, flag.ExitOnError), topo: topology.DefaultFabric}
	s.Int64Var(&s.opt.Seed, "seed", 42, "generation seed")
	s.Float64Var(&s.opt.IterScale, "scale", 1.0, "iteration count multiplier")
	// Results are bit-identical at any -parallel setting; only wall-clock
	// time changes.
	s.IntVar(&s.par, "parallel", 0, "max concurrent experiment points (0 = GOMAXPROCS, 1 = serial)")
	s.StringVar(&s.pred, "predictor", pred,
		"idle predictor (one of: "+strings.Join(predictor.Names(), ", ")+")")
	if with&withTopo != 0 {
		s.StringVar(&s.topo, "topo", topology.DefaultFabric,
			"interconnect fabric (one of: "+strings.Join(topology.Names(), ", ")+")")
	}
	if with&withTraceFile != 0 {
		s.StringVar(&s.traceFile, "tracefile", "",
			"packed binary trace file serving matching (app,np) workloads (see 'ibpower trace pack')")
	}
	if with&withTimeseries != 0 {
		s.StringVar(&s.timeseries, "timeseries", "",
			"write streaming telemetry to this file (versioned JSON; .prom suffix selects Prometheus text exposition; - = stdout)")
	}
	return s
}

// parse parses args and validates the -predictor and -topo selections, so a
// typo in either fails fast listing its registry before any simulation.
func (s *sim) parse(args []string) error {
	s.Parse(args)
	if s.pred != "" {
		if err := predictor.CheckRegistered(s.pred); err != nil {
			return err
		}
	}
	return topology.CheckRegistered(s.topo)
}

// runner returns the Runner the shared flags select: the default replay
// config with the chosen predictor and fabric, bounded to -parallel workers,
// recording telemetry when -timeseries is set, and serving workloads from
// the -tracefile when one is given. The returned closer must run after the
// experiment completes — cursors read from the file throughout the run.
func (s *sim) runner() (*harness.Runner, func() error, error) {
	cfg := replay.DefaultConfig().WithPredictor(s.pred).WithFabric(s.topo)
	cfg.Parallelism = s.par
	cfg.Telemetry.Enabled = s.timeseries != ""
	r := harness.NewRunner(s.opt, cfg)
	if s.traceFile == "" {
		return r, func() error { return nil }, nil
	}
	f, err := trace.OpenFile(s.traceFile)
	if err != nil {
		return nil, nil, err
	}
	r.File = f
	return r, f.Close, nil
}

// appList splits a comma-separated -apps value; empty selects every
// application.
func appList(s string) []string {
	if s == "" {
		return nil
	}
	apps := strings.Split(s, ",")
	for i := range apps {
		apps[i] = strings.TrimSpace(apps[i])
	}
	return apps
}

// cmdTopos lists every registered fabric with its size and the resident
// memory of its compact tables (the flat link table plus the fabric's own
// routing arrays) — the quickest way to see what -topo accepts and what an
// instance costs to hold.
func cmdTopos(args []string) error {
	fs := flag.NewFlagSet("topos", flag.ExitOnError)
	topo := fs.String("topo", "", "list only this fabric (default: all registered)")
	fs.Parse(args)
	names := topology.Names()
	if *topo != "" {
		if err := topology.CheckRegistered(*topo); err != nil {
			return err
		}
		names = []string{*topo}
	}
	t := stats.NewTable("fabric", "instance", "terminals", "switches", "cables", "links", "compact KiB")
	for _, name := range names {
		f, err := topology.Named(name)
		if err != nil {
			return err
		}
		t.Row(name, f.Name(), f.NumTerminals(), f.NumSwitches(), f.NumCables(), f.NumLinks(),
			fmt.Sprintf("%.1f", float64(topology.CompactBytes(f))/1024))
	}
	return t.Write(os.Stdout)
}

// cmdWeak tests the paper's Section III prediction that the mechanism is
// more effective under weak scaling.
func cmdWeak(args []string) error {
	s := newSim("weak", predictor.DefaultName, withTopo|withTraceFile)
	d := s.Float64("d", 0.01, "displacement factor")
	if err := s.parse(args); err != nil {
		return err
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	rows, err := r.WeakScaling(*d)
	if err != nil {
		return err
	}
	return harness.WriteWeakScaling(os.Stdout, rows)
}

// cmdDVS compares the WRPS on/off mechanism against the history-based link
// DVS baseline (related work, Section V) on host-link power.
func cmdDVS(args []string) error {
	s := newSim("dvs", predictor.DefaultName, withTopo)
	np := s.Int("np", 16, "process count")
	d := s.Float64("d", 0.01, "WRPS displacement factor")
	if err := s.parse(args); err != nil {
		return err
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	rows, err := r.DVS(*d, *np)
	if err != nil {
		return err
	}
	return harness.WriteDVS(os.Stdout, rows)
}

// cmdEnergy runs the extension experiment: lanes-only vs deep-sleep savings
// under the whole-switch and decomposed fabric power models.
func cmdEnergy(args []string) error {
	s := newSim("energy", predictor.DefaultName, withTopo)
	d := s.Float64("d", 0.01, "displacement factor")
	apps := s.String("apps", "", "comma-separated app filter (default all)")
	np := s.Int("np", 16, "process count")
	deepUS := s.Int("deepus", 1000, "deep-mode reactivation time [us]")
	if err := s.parse(args); err != nil {
		return err
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	deep := power.DeepConfig{Treact: time.Duration(*deepUS) * time.Microsecond}
	fmt.Printf("deep mode: reactivation %v, entry threshold %v (energy breakeven)\n",
		deep.Treact, deep.BreakevenIdle(power.Treact).Round(time.Microsecond))
	rows, err := r.Energy(*d, *np, deep, appList(*apps)...)
	if err != nil {
		return err
	}
	return harness.WriteEnergy(os.Stdout, rows)
}

func cmdTableI(args []string) error {
	s := newSim("tableI", predictor.DefaultName, withTopo|withTraceFile)
	if err := s.parse(args); err != nil {
		return err
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	rows, err := r.TableI()
	if err != nil {
		return err
	}
	return harness.WriteTableI(os.Stdout, rows)
}

// cmdGT runs Table III over every workload, or the Figure 10 sweep of one
// with -app. GT selection runs on the network-free offline runner (predictor
// and controller only), so no fabric can affect it and gt takes no -topo.
func cmdGT(args []string) error {
	s := newSim("gt", predictor.DefaultName, withTraceFile)
	app := s.String("app", "", "application (empty: Table III over all apps)")
	np := s.Int("np", 64, "process count for -app sweeps")
	if err := s.parse(args); err != nil {
		return err
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	if *app == "" {
		// Table III: GT selection always scores the reference n-gram
		// predictor (see harness.ChooseGT); -predictor is validated only.
		rows, err := r.TableIII()
		if err != nil {
			return err
		}
		return harness.WriteTableIII(os.Stdout, rows)
	}
	pts, err := r.GTSweep(*app, *np)
	if err != nil {
		return err
	}
	return harness.WriteGTSweep(os.Stdout, *app, *np, s.pred, pts)
}

func cmdOverheads(args []string) error {
	s := newSim("overheads", predictor.DefaultName, withTopo|withTraceFile)
	if err := s.parse(args); err != nil {
		return err
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	rows, err := r.TableIV()
	if err != nil {
		return err
	}
	return harness.WriteTableIV(os.Stdout, rows)
}

func cmdFigures(args []string) error {
	s := newSim("figures", predictor.DefaultName, withTopo|withTraceFile)
	d := s.Float64("d", 0, "displacement factor (0: all of 0.10, 0.05, 0.01)")
	apps := s.String("apps", "", "comma-separated app filter")
	if err := s.parse(args); err != nil {
		return err
	}
	ds := harness.Displacements
	if *d > 0 {
		ds = []float64{*d}
	}
	// One Runner across displacement factors: traces and GT choices are
	// generated once and shared by all three figures.
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	for _, disp := range ds {
		rows, err := r.Figure(disp, appList(*apps)...)
		if err != nil {
			return err
		}
		if err := harness.WriteFigure(os.Stdout, disp, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// cmdCompare runs the predictor comparison sweep (experiment E14): every
// registered predictor — or just the one named with -predictor — over every
// (application, process count) point, all at the workload's Table III
// grouping threshold against one shared baseline replay.
func cmdCompare(args []string) error {
	s := newSim("compare", "", withTopo|withTraceFile)
	d := s.Float64("d", 0.01, "displacement factor")
	apps := s.String("apps", "", "comma-separated app filter")
	if err := s.parse(args); err != nil {
		return err
	}
	var names []string
	if s.pred != "" {
		names = []string{s.pred}
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	// The app filter restricts the sweep itself: filtered-out workloads are
	// never generated or replayed.
	rows, err := r.Compare(*d, names, appList(*apps)...)
	if err != nil {
		return err
	}
	return harness.WriteCompare(os.Stdout, *d, rows)
}

// cmdMultijob simulates concurrent workloads sharing one fabric (experiment
// E15): each job of the -jobs mix gets its own trace, Table III grouping
// threshold, predictor and placement-assigned terminals, and the shared
// replay times the union of all jobs' traffic. With -sweep it runs every
// registered placement over the default job mixes instead of one scenario.
func cmdMultijob(args []string) error {
	s := newSim("multijob", predictor.DefaultName, withTopo|withTraceFile|withTimeseries)
	jobsStr := s.String("jobs", "gromacs:16,alya:16", "job mix as app:np,... (e.g. gromacs:64,alya:16)")
	placement := s.String("placement", multijob.DefaultPlacement,
		"placement policy (one of: "+strings.Join(multijob.Names(), ", ")+")")
	d := s.Float64("d", 0.01, "displacement factor")
	sweepAll := s.Bool("sweep", false, "run every placement over the default job mixes (ignores -jobs/-placement)")
	if err := s.parse(args); err != nil {
		return err
	}
	if err := multijob.CheckRegistered(*placement); err != nil {
		return err
	}
	if s.timeseries != "" && *sweepAll {
		return fmt.Errorf("ibpower: -timeseries records a single run; drop -sweep")
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	if *sweepAll {
		rows, err := r.MultijobSweep(nil, nil, *d)
		if err != nil {
			return err
		}
		return harness.WriteMultijobSweep(os.Stdout, rows)
	}
	jobs, err := multijob.ParseJobs(*jobsStr)
	if err != nil {
		return err
	}
	res, err := r.Multijob(jobs, *placement, *d)
	if err != nil {
		return err
	}
	if err := multijob.WriteResult(os.Stdout, res); err != nil {
		return err
	}
	return s.writeTimeSeries(res.Series)
}

// cmdScenario simulates job churn on one shared fabric (experiment E16):
// -spec/-specfile describe an arrival stream (job count, application mix,
// size distribution, arrival process, seed), jobs queue until the -sched
// policy admits them onto -placement-ordered terminals, and the incremental
// replay session times everything on one live timeline. Results are
// bit-identical at any -parallel setting and across repeats of the same
// spec. With -sweep it runs every scheduler x placement pairing over the
// same stream instead of one cell. -faults injects seeded hardware failures
// (kind:dist:mean[:mttr=d] clauses) on top of the spec; -faultsweep runs a
// resilience grid of ";"-separated fault specs x schedulers (experiment
// E17).
func cmdScenario(args []string) error {
	s := newSim("scenario", predictor.DefaultName, withTopo|withTraceFile|withTimeseries)
	specStr := s.String("spec", "",
		"scenario spec as key=value,... (keys: jobs, apps, size, arrival, speed, seed, faults; e.g. jobs=200,size=zipf:16:256,arrival=poisson:30s,seed=7)")
	specFile := s.String("specfile", "", "file with one spec key=value per line (# comments); -spec overlays it")
	sched := s.String("sched", scenario.DefaultScheduler,
		"scheduling policy (one of: "+strings.Join(scenario.Names(), ", ")+")")
	placement := s.String("placement", multijob.DefaultPlacement,
		"placement policy ordering the terminal free-list (one of: "+strings.Join(multijob.Names(), ", ")+")")
	d := s.Float64("d", 0.01, "displacement factor")
	sweepAll := s.Bool("sweep", false, "run every scheduler x placement pairing over the spec (ignores -sched/-placement)")
	faults := s.String("faults", "",
		"fault spec as kind:dist:mean[:mttr=d],... (kinds: link, switch, term; e.g. link:poisson:10m:mttr=2m,switch:fixed:5m); overrides the spec's faults key")
	faultSweep := s.String("faultsweep", "",
		"resilience grid (E17): \";\"-separated fault specs (empty item = fault-free baseline) x every scheduler; ignores -sched/-faults")
	if err := s.parse(args); err != nil {
		return err
	}
	if err := scenario.CheckRegistered(*sched); err != nil {
		return err
	}
	if err := multijob.CheckRegistered(*placement); err != nil {
		return err
	}
	spec := scenario.DefaultSpec()
	if *specFile != "" {
		var err error
		spec, err = scenario.ParseSpecFile(*specFile)
		if err != nil {
			return err
		}
	}
	spec, err := scenario.ApplySpec(spec, *specStr)
	if err != nil {
		return err
	}
	if *faults != "" {
		spec.Faults, err = scenario.ParseFaults(*faults)
		if err != nil {
			return err
		}
	}
	if s.timeseries != "" && (*sweepAll || *faultSweep != "") {
		return fmt.Errorf("ibpower: -timeseries records a single scenario cell; drop -sweep/-faultsweep")
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	if *faultSweep != "" {
		rows, err := r.ScenarioFaultSweep(spec, strings.Split(*faultSweep, ";"), nil, *d)
		if err != nil {
			return err
		}
		return harness.WriteScenarioFaultSweep(os.Stdout, spec, rows)
	}
	if *sweepAll {
		rows, err := r.ScenarioSweep(spec, nil, nil, *d)
		if err != nil {
			return err
		}
		return harness.WriteScenarioSweep(os.Stdout, spec, rows)
	}
	fmt.Printf("scenario %s\n", spec)
	res, err := r.Scenario(spec, *sched, *placement, *d)
	if err != nil {
		return err
	}
	if err := multijob.WriteChurn(os.Stdout, res); err != nil {
		return err
	}
	return s.writeTimeSeries(res.Series)
}

func cmdTimeline(args []string) error {
	s := newSim("timeline", predictor.DefaultName, withTopo|withTimeseries)
	app := s.String("app", "gromacs", "application")
	np := s.Int("np", 16, "process count")
	d := s.Float64("d", 0.10, "displacement factor")
	width := s.Int("width", 100, "rendering width")
	prv := s.Bool("prv", false, "emit Paraver-like records instead of ASCII")
	if err := s.parse(args); err != nil {
		return err
	}
	r, done, err := s.runner()
	if err != nil {
		return err
	}
	defer done()
	res, gt, err := r.Timeline(*app, *np, *d)
	if err != nil {
		return err
	}
	fmt.Printf("%s with %d MPI processes, GT=%v, displacement=%.0f%%, predictor %s (Figure 6)\n",
		*app, *np, gt, *d*100, s.pred)
	if *prv {
		err = trace.WriteParaver(os.Stdout, res.Timelines)
	} else {
		err = trace.Render(os.Stdout, res.Timelines, *width)
	}
	if err != nil {
		return err
	}
	return s.writeTimeSeries(res.Series)
}

// cmdPPA replays the paper's Figure 2/3 walkthrough: the Alya event stream
// "41-41-41 10 10" repeated, printing gram formation and the moment the
// pattern is declared predicted.
func cmdPPA(args []string) error {
	fs := flag.NewFlagSet("ppa", flag.ExitOnError)
	reps := fs.Int("reps", 4, "iterations of the 41-41-41,10,10 stream")
	fs.Parse(args)

	gt := 20 * time.Microsecond
	b := ngram.NewBuilder(gt)
	det := ngram.NewDetector()
	emit := func(n int, id ngram.EventID, idle time.Duration) {
		if g := b.Add(id, idle); g != nil {
			act := "add gram to array"
			if det.AddGram(g) {
				act = "gram fed to PPA -> prediction ACTIVE"
			} else if det.Predicting() {
				act = "gram matches predicted pattern"
			}
			fmt.Printf("  gram %-12s gap=%-8v %s\n", g.Key(), g.GapBefore, act)
		}
		fmt.Printf("#%-3d MPI id %-3d idle before=%v\n", n, id, idle)
	}
	n := 0
	for it := 0; it < *reps; it++ {
		for i := 0; i < 3; i++ { // 41-41-41 with sub-GT gaps
			n++
			idle := 5 * time.Microsecond
			if i == 0 {
				idle = 300 * time.Microsecond
			}
			emit(n, 41, idle)
		}
		for i := 0; i < 2; i++ { // 10 ___ 10, gaps above GT
			n++
			idle := 200 * time.Microsecond
			emit(n, 10, idle)
		}
	}
	if g := b.Flush(); g != nil {
		det.AddGram(g)
	}
	st := det.Stats()
	fmt.Printf("\npatterns detected: %d, predicting: %v\n", st.Detections, det.Predicting())
	if p := det.Active(); p != nil {
		fmt.Printf("predicted pattern: %s (freq %d, %d MPI calls per appearance)\n",
			p.Key(), p.Freq, p.NumCalls)
	}
	return nil
}
