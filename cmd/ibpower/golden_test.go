package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cli.golden from current output")

// cliRuns are the subcommand invocations whose stdout TestCLIGolden pins:
// one small run of every simulating subcommand (plus ppa and topos), about
// half a second in total.
var cliRuns = [][]string{
	{"tableI", "-scale", "0.02"},
	{"gt", "-scale", "0.02"},
	{"gt", "-scale", "0.02", "-app", "alya", "-np", "16"},
	{"overheads", "-scale", "0.02"},
	{"figures", "-scale", "0.02", "-d", "0.01", "-apps", "alya,wrf"},
	{"compare", "-scale", "0.02", "-apps", "alya"},
	{"multijob", "-scale", "0.02", "-timeseries", "-"},
	{"scenario", "-scale", "0.02", "-spec", "jobs=6,seed=3"},
	{"timeline", "-scale", "0.02", "-width", "40"},
	{"ppa"},
	{"energy", "-scale", "0.02", "-apps", "alya"},
	{"dvs", "-scale", "0.02"},
	{"weak", "-scale", "0.02"},
	{"topos"},
}

// TestCLIGolden pins the command line as a reader sees it: the usage line,
// the -h output of every subcommand (which lists every flag with its default
// and help text) and the stdout of a tiny run of each subcommand. A change
// to how the CLI parses flags or dispatches experiments must leave this
// file byte-identical; a deliberate output change regenerates it with
// `go test ./cmd/ibpower -run TestCLIGolden -update` and explains the diff.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short mode")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	var got bytes.Buffer
	section := func(args []string, out []byte) {
		fmt.Fprintf(&got, "=== ibpower %s\n%s", strings.Join(args, " "), out)
	}
	// Usage and -h text go to stderr, and some of them exit non-zero.
	combined := func(args ...string) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, _ := cmd.CombinedOutput()
		section(args, out)
	}
	combined()
	for _, sub := range subcommandList(t, bin) {
		combined(sub, "-h")
	}
	for _, sub := range []string{"pack", "cat", "info"} {
		combined("trace", sub, "-h")
	}
	for _, args := range cliRuns {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ibpower %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		if args[0] == "overheads" {
			out = maskTimings(out)
		}
		section(args, out)
	}

	golden := filepath.Join("testdata", "cli.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("CLI output drifted from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}

// maskTimings replaces the two wall-clock microsecond columns of the
// overheads table (Table IV) with a placeholder and collapses the column
// padding, so only the deterministic cells are compared.
func maskTimings(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && !strings.HasPrefix(f[0], "-") {
			f[2], f[3] = "<us>", "<us>"
		}
		b.WriteString(strings.Join(f, " ") + "\n")
	}
	return b.Bytes()
}
