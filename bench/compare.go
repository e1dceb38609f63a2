package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// minPairs is the fewest parent/change pairs a gain may be claimed on.
const minPairs = 10

// Verdicts -compare gives each (workload, metric).
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// readReports reads the JSON-line reports -report appended to path.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Manifest.Traced {
			return nil, fmt.Errorf("%s:%d: a traced report; -compare reads untraced ones", path, line)
		}
		reps = append(reps, r)
	}
	return reps, sc.Err()
}

// compareFiles compares the parent's reports in a with the change's in b,
// workload by workload. Reports pair up in file order, so runs should
// alternate between the two sides.
func compareFiles(w io.Writer, a, b string) error {
	ra, err := readReports(a)
	if err != nil {
		return err
	}
	rb, err := readReports(b)
	if err != nil {
		return err
	}
	compared := 0
	for _, wl := range allWorkloads {
		pa, pb := byWorkload(ra, wl.name), byWorkload(rb, wl.name)
		if len(pa) == 0 || len(pb) == 0 {
			continue
		}
		if err := sameSettings(append(append([]report{}, pa...), pb...)); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		compareWorkload(w, wl.name, pa, pb)
		compared++
	}
	if compared == 0 {
		return fmt.Errorf("no workload has reports in both %s and %s", a, b)
	}
	return nil
}

func byWorkload(reps []report, name string) []report {
	var out []report
	for _, r := range reps {
		if r.Manifest.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// sameSettings refuses reports measured with different workload settings or
// run lengths: their numbers do not describe the same work.
func sameSettings(reps []report) error {
	m0 := reps[0].Manifest
	for _, r := range reps[1:] {
		m := r.Manifest
		if m.Settings != m0.Settings || m.Seconds != m0.Seconds || m.Scale != m0.Scale {
			return fmt.Errorf("reports differ in workload settings: %q seconds=%g scale=%g vs %q seconds=%g scale=%g",
				m0.Settings, m0.Seconds, m0.Scale, m.Settings, m.Seconds, m.Scale)
		}
	}
	return nil
}

func compareWorkload(w io.Writer, name string, pa, pb []report) {
	pairs := min(len(pa), len(pb))
	fmt.Fprintf(w, "%s: %d parent runs, %d change runs, %d pairs\n", name, len(pa), len(pb), pairs)
	fmt.Fprintf(w, "  %-12s %-5s %-32s %-32s %8s %6s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
	for _, m := range endToEnd {
		xa, xb := metricValues(pa, m.Name), metricValues(pb, m.Name)
		v := judge(m, xa, xb, pairs)
		fmt.Fprintf(w, "  %-12s %-5s %-32s %-32s %+7.2f%% %6s  %s\n", m.Name, m.Unit,
			quartileText(xa), quartileText(xb), 100*v.change, fmt.Sprintf("%d/%d", v.wins, pairs), v.verdict)
	}
	failA, failB := failures(pa), failures(pb)
	verdict := verdictWithin
	if failB > failA {
		verdict = verdictRegressed
	}
	fmt.Fprintf(w, "  failed iterations: parent %d, change %d: %s\n", failA, failB, verdict)
	same, differ := 0, 0
	for i := 0; i < pairs; i++ {
		if pa[i].Manifest.Seed != pb[i].Manifest.Seed {
			continue
		}
		if pa[i].Digest == pb[i].Digest {
			same++
		} else {
			differ++
		}
	}
	fmt.Fprintf(w, "  simulated results: %d same-seed pairs identical, %d differ\n", same, differ)
}

type judgement struct {
	change  float64 // relative change of the median, change against parent
	wins    int     // pairs the change won
	verdict string
}

// judge applies the no-regression and gain rules. A regression is a median
// worse than the parent's by more than the bound. A gain needs minPairs
// pairs, nine tenths of them won, and medians further apart than the
// parent's quartile spread. Either side spreading wider than the bound makes
// the metric unresolved, unless every change run beats every parent run.
func judge(m metricDef, xa, xb []float64, pairs int) judgement {
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	q1a, meda, q3a := quartiles(xa)
	q1b, medb, q3b := quartiles(xb)
	j := judgement{change: (medb - meda) / meda}
	for i := 0; i < pairs; i++ {
		if better(xb[i], xa[i]) {
			j.wins++
		}
	}
	allBetter := true
	for _, b := range xb {
		for _, a := range xa {
			allBetter = allBetter && better(b, a)
		}
	}
	worse := j.change
	if m.Better == "higher" {
		worse = -worse
	}
	spread := math.Max((q3a-q1a)/math.Abs(meda), (q3b-q1b)/math.Abs(medb))
	switch {
	case spread > m.Bound && !allBetter:
		j.verdict = verdictUnresolved
	case pairs >= minPairs && float64(j.wins) >= 0.9*float64(pairs) && math.Abs(medb-meda) > q3a-q1a:
		j.verdict = verdictImproved
	case worse > m.Bound:
		j.verdict = verdictRegressed
	default:
		j.verdict = verdictWithin
	}
	return j
}

func metricValues(reps []report, name string) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func failures(reps []report) int {
	n := 0
	for _, r := range reps {
		n += r.Failed
	}
	return n
}

func quartileText(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}
