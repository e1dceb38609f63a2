package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ibpower/internal/multijob"
	"ibpower/internal/stats"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// cmdTrace manages packed binary trace files (the "ibt" format read through
// a bounded streaming window by every replay-driven subcommand's -tracefile
// flag):
//
//	trace pack -o <file> [-jobs app:np,...] [-in a.txt,b.txt] [-seed -scale]
//	trace cat  <file> [-app <name> -np <n>]
//	trace info <file>
//
// pack converts workloads and/or text traces to one packed file, streaming
// each rank straight from the generator — the full trace is never held in
// memory. cat converts entries back to the line-oriented text format; info
// lists a file's entries with op counts and encoded sizes.
func cmdTrace(args []string) error {
	if len(args) == 0 || args[0] == "-h" || args[0] == "--help" || args[0] == "help" {
		traceUsage()
		if len(args) == 0 {
			return fmt.Errorf("trace: missing subcommand")
		}
		return nil
	}
	switch args[0] {
	case "pack":
		return cmdTracePack(args[1:])
	case "cat":
		return cmdTraceCat(args[1:])
	case "info":
		return cmdTraceInfo(args[1:])
	}
	traceUsage()
	return fmt.Errorf("trace: unknown subcommand %q", args[0])
}

func traceUsage() {
	fmt.Fprintln(os.Stderr, `usage: ibpower trace <pack|cat|info> [flags]

pack flags:`)
	fs := flag.NewFlagSet("pack", flag.ContinueOnError)
	tracePackFlags(fs)
	fs.PrintDefaults()
	fmt.Fprintln(os.Stderr, "\ncat flags (after the file argument):")
	fs = flag.NewFlagSet("cat", flag.ContinueOnError)
	traceEntryFlags(fs)
	fs.PrintDefaults()
	fmt.Fprintln(os.Stderr, "\ninfo takes just the file argument.")
}

// packFlags holds the pack flag values.
type packFlags struct {
	out, jobs, in *string
	seed          *int64
	scale         *float64
	weak          *bool
}

// tracePackFlags registers the pack flag set: workload jobs and/or text
// trace inputs, generation options, and the output path.
func tracePackFlags(fs *flag.FlagSet) packFlags {
	return packFlags{
		out:   fs.String("o", "traces.ibt", "output file for the packed binary traces"),
		jobs:  fs.String("jobs", "", "workloads to generate and pack, as app:np,... (e.g. alya:16,gromacs:64)"),
		in:    fs.String("in", "", "comma-separated text trace files to convert and pack"),
		seed:  fs.Int64("seed", 42, "generation seed for -jobs"),
		scale: fs.Float64("scale", 1.0, "iteration count multiplier for -jobs"),
		weak:  fs.Bool("weak", false, "weak-scaling problem sizes for -jobs"),
	}
}

func cmdTracePack(args []string) error {
	fs := flag.NewFlagSet("trace pack", flag.ExitOnError)
	pf := tracePackFlags(fs)
	out, jobsStr, in, seed, scale, weak := pf.out, pf.jobs, pf.in, pf.seed, pf.scale, pf.weak
	fs.Parse(args)
	if *jobsStr == "" && *in == "" {
		return fmt.Errorf("trace pack: nothing to pack (need -jobs and/or -in)")
	}

	var srcs []trace.Source
	if *jobsStr != "" {
		jobs, err := multijob.ParseJobs(*jobsStr)
		if err != nil {
			return err
		}
		opt := workloads.Options{Seed: *seed, IterScale: *scale, Weak: *weak}
		for _, j := range jobs {
			// The generator source streams one rank at a time into the
			// encoder: packing never materializes a whole trace.
			src, err := workloads.NewSource(j.App, j.NP, opt)
			if err != nil {
				return err
			}
			srcs = append(srcs, src)
		}
	}
	if *in != "" {
		for _, path := range strings.Split(*in, ",") {
			f, err := os.Open(strings.TrimSpace(path))
			if err != nil {
				return err
			}
			tr, err := trace.Read(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			srcs = append(srcs, tr)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := trace.WriteBinarySources(f, srcs...); err != nil {
		f.Close()
		os.Remove(*out)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("packed %d trace(s) into %s (%d bytes)\n", len(srcs), *out, st.Size())
	return nil
}

// traceEntryFlags registers the (app, np) entry selector shared by cat.
func traceEntryFlags(fs *flag.FlagSet) (*string, *int) {
	app := fs.String("app", "", "application of the entry to select (empty: all entries)")
	np := fs.Int("np", 0, "process count of the entry to select (0: all entries)")
	return app, np
}

// openTraceArg parses fs's flags on either side of the one file argument
// and opens the file.
func openTraceArg(fs *flag.FlagSet, args []string) (*trace.File, error) {
	fs.Parse(args)
	if fs.NArg() == 0 {
		return nil, fmt.Errorf("%s: missing file argument", fs.Name())
	}
	path := fs.Arg(0)
	fs.Parse(fs.Args()[1:])
	return trace.OpenFile(path)
}

func cmdTraceCat(args []string) error {
	fs := flag.NewFlagSet("trace cat", flag.ExitOnError)
	app, np := traceEntryFlags(fs)
	f, err := openTraceArg(fs, args)
	if err != nil {
		return err
	}
	defer f.Close()
	for i := 0; i < f.Len(); i++ {
		m := f.Entries()[i]
		if (*app != "" && m.App != *app) || (*np != 0 && m.NP != *np) {
			continue
		}
		if err := trace.WriteText(os.Stdout, f.SourceAt(i)); err != nil {
			return err
		}
	}
	return nil
}

func cmdTraceInfo(args []string) error {
	f, err := openTraceArg(flag.NewFlagSet("trace info", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	defer f.Close()
	t := stats.NewTable("app", "Nproc", "ops", "encoded bytes", "bytes/op")
	var ops, bytes int64
	for i := 0; i < f.Len(); i++ {
		m := f.Entries()[i]
		n, b := f.NumOps(i), f.DataBytes(i)
		ops, bytes = ops+n, bytes+b
		t.Row(m.App, m.NP, n, b, fmt.Sprintf("%.2f", float64(b)/float64(n)))
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("%d entries, %d ops, %d data bytes\n", f.Len(), ops, bytes)
	return nil
}
