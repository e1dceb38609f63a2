package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// TestUnknownPredictorRejectedEverywhere asserts every subcommand that takes
// -predictor validates it up front: a typo must fail fast with the registry listed, not
// after minutes of sweeping — and not silently fall back to the default.
func TestUnknownPredictorRejectedEverywhere(t *testing.T) {
	cmds := map[string]func([]string) error{
		"tableI":    cmdTableI,
		"gt":        cmdGT,
		"overheads": cmdOverheads,
		"figures":   cmdFigures,
		"compare":   cmdCompare,
		"multijob":  cmdMultijob,
		"scenario":  cmdScenario,
		"timeline":  cmdTimeline,
		"energy":    cmdEnergy,
		"dvs":       cmdDVS,
		"weak":      cmdWeak,
	}
	for name, fn := range cmds {
		err := fn([]string{"-predictor", "nosuch"})
		if err == nil {
			t.Errorf("%s accepted an unknown predictor", name)
			continue
		}
		if !strings.Contains(err.Error(), "unknown predictor") ||
			!strings.Contains(err.Error(), "ngram") {
			t.Errorf("%s: error %q must reject the name and list the registry", name, err)
		}
	}
}

// TestUnknownTopoRejectedEverywhere asserts every subcommand that takes -topo
// validates it up front, mirroring -predictor: a typo must fail fast with the fabric
// registry listed, not after minutes of sweeping — and not silently fall
// back to the paper's XGFT.
func TestUnknownTopoRejectedEverywhere(t *testing.T) {
	cmds := map[string]func([]string) error{
		"tableI":    cmdTableI,
		"overheads": cmdOverheads,
		"figures":   cmdFigures,
		"compare":   cmdCompare,
		"multijob":  cmdMultijob,
		"scenario":  cmdScenario,
		"timeline":  cmdTimeline,
		"energy":    cmdEnergy,
		"dvs":       cmdDVS,
		"weak":      cmdWeak,
		"topos":     cmdTopos,
	}
	for name, fn := range cmds {
		err := fn([]string{"-topo", "nosuch"})
		if err == nil {
			t.Errorf("%s accepted an unknown fabric", name)
			continue
		}
		if !strings.Contains(err.Error(), "unknown fabric") ||
			!strings.Contains(err.Error(), "dragonfly") {
			t.Errorf("%s: error %q must reject the name and list the registry", name, err)
		}
	}
}

// TestToposListsEveryFabric asserts the listing covers the whole registry —
// including the supercomputer-scale presets — and that the single-fabric
// filter works (cmdTopos writes to stdout; here only success and the
// registry walk are checked, the table contents are pinned by the topology
// package's own structural tests).
func TestToposListsEveryFabric(t *testing.T) {
	if err := cmdTopos(nil); err != nil {
		t.Errorf("topos over the full registry failed: %v", err)
	}
	if err := cmdTopos([]string{"-topo", "xgft3-big"}); err != nil {
		t.Errorf("topos -topo xgft3-big failed: %v", err)
	}
}

// TestMultijobRejectsBadFlags asserts the multijob-specific flags are
// validated up front: a typo'd -placement fails fast with the placement
// registry listed, and a malformed -jobs mix fails before any simulation.
func TestMultijobRejectsBadFlags(t *testing.T) {
	err := cmdMultijob([]string{"-placement", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), "unknown placement") ||
		!strings.Contains(err.Error(), "roundrobin") {
		t.Errorf("unknown placement: error %q must reject the name and list the registry", err)
	}
	for _, jobs := range []string{"", "gromacs", "gromacs:1", "gromacs:x"} {
		if err := cmdMultijob([]string{"-jobs", jobs}); err == nil {
			t.Errorf("malformed -jobs %q accepted", jobs)
		}
	}
}

// TestScenarioRejectsBadFlags asserts the scenario-specific flags fail fast
// before any simulation: a typo'd -sched lists the scheduler registry (the
// same contract -predictor, -topo and -placement honor), and a malformed
// -spec or missing -specfile surfaces its parse error immediately.
func TestScenarioRejectsBadFlags(t *testing.T) {
	err := cmdScenario([]string{"-sched", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), "unknown scheduler") ||
		!strings.Contains(err.Error(), "power-aware") {
		t.Errorf("unknown scheduler: error %q must reject the name and list the registry", err)
	}
	err = cmdScenario([]string{"-placement", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Errorf("unknown placement: error %q must reject the name and list the registry", err)
	}
	for _, spec := range []string{"jobs", "jobs=0", "size=weird:1", "color=red"} {
		if err := cmdScenario([]string{"-spec", spec}); err == nil {
			t.Errorf("malformed -spec %q accepted", spec)
		}
	}
	if err := cmdScenario([]string{"-specfile", "testdata-nosuch-file"}); err == nil {
		t.Error("missing -specfile accepted")
	}
}

// TestTraceFileArgEitherSide checks trace cat and trace info take their
// file argument before or after the flags: `trace cat FILE -app X` and
// `trace cat -app X FILE` select the same entry.
func TestTraceFileArgEitherSide(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "t.ibt")
	// stdout runs cmd with os.Stdout sent to a file and returns what it wrote.
	stdout := func(cmd func([]string) error, args ...string) string {
		t.Helper()
		out, err := os.CreateTemp(dir, "stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		saved := os.Stdout
		os.Stdout = out
		err = cmd(args)
		os.Stdout = saved
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		b, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	stdout(cmdTracePack, "-o", file, "-jobs", "alya:8,wrf:8", "-scale", "0.02")
	after := stdout(cmdTraceCat, file, "-app", "wrf")
	if !strings.HasPrefix(after, "#app wrf 8\n") || strings.Contains(after, "#app alya") {
		t.Errorf("trace cat FILE -app wrf printed %.40q..., want only the wrf entry", after)
	}
	if before := stdout(cmdTraceCat, "-app", "wrf", file); before != after {
		t.Error("trace cat -app wrf FILE differs from trace cat FILE -app wrf")
	}
	if info := stdout(cmdTraceInfo, file); !strings.Contains(info, "2 entries") {
		t.Errorf("trace info FILE printed %q, want 2 entries", info)
	}
	if err := cmdTraceInfo(nil); err == nil || !strings.Contains(err.Error(), "missing file argument") {
		t.Errorf("trace info without a file: error %v", err)
	}
}

// TestTracePackMatchesDecodedPack packs generated and text traces with
// trace pack, which copies their packed rank bytes verbatim, and packs the
// same traces through plain Source and Cursor wrappers, whose ops the writer
// decodes, checks and encodes one at a time: the two files are
// byte-identical.
func TestTracePackMatchesDecodedPack(t *testing.T) {
	dir := t.TempDir()
	opt := workloads.Options{Seed: 42, IterScale: 0.02}
	text := filepath.Join(dir, "nasbt.txt")
	tr, err := workloads.Generate("nasbt", 9, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(text, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "t.ibt")
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	saved := os.Stdout
	os.Stdout = null
	err = cmdTracePack([]string{"-o", file, "-jobs", "alya:8,wrf:16", "-scale", "0.02", "-in", text})
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}

	var srcs []trace.Source
	for _, j := range []struct {
		app string
		np  int
	}{{"alya", 8}, {"wrf", 16}} {
		src, err := workloads.NewSource(j.app, j.np, opt)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, plainSource{src})
	}
	srcs = append(srcs, plainSource{tr})
	var want bytes.Buffer
	if err := trace.WriteBinarySources(&want, srcs...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("trace pack wrote %d bytes that differ from the %d of the op-by-op pack", len(got), want.Len())
	}
}

// plainSource hides a source's cursor type, so the pack writer reads it op
// by op.
type plainSource struct{ trace.Source }

func (s plainSource) Open(r int) trace.Cursor { return plainCursor{s.Source.Open(r)} }

type plainCursor struct{ trace.Cursor }
