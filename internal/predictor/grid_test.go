package predictor

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"ibpower/internal/power"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// defaultGrid mirrors harness.DefaultGTGrid (20–400 µs in 20 µs steps),
// which this package cannot import.
func defaultGrid() []time.Duration {
	var g []time.Duration
	for v := 20; v <= 400; v += 20 {
		g = append(g, time.Duration(v)*us)
	}
	return g
}

// testGrids are the grids the equivalence tests cover: the default grid, an
// off-step grid whose points fall between the default's, and a single point.
func testGrids() map[string][]time.Duration {
	return map[string][]time.Duration{
		"default": defaultGrid(),
		"offstep": {25 * us, 37 * us, 150 * us, 399 * us},
		"single":  {100 * us},
	}
}

// runOne is the single-threshold offline run: RunOfflineGrid on the
// one-point grid {cfg.GT}, serial, at the default overheads.
func runOne(src trace.Source, name string, cfg Config) (*OfflineResult, error) {
	res, err := RunOfflineGrid(src, name, []time.Duration{cfg.GT}, cfg, DefaultOverheads(), 1)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// perGT is the brute-force reference: one single-point RunOfflineGrid call
// per threshold.
func perGT(t *testing.T, src trace.Source, name string, gts []time.Duration) []*OfflineResult {
	t.Helper()
	out := make([]*OfflineResult, len(gts))
	for i, gt := range gts {
		res, err := runOne(src, name, Config{GT: gt, Displacement: 0.01})
		if err != nil {
			t.Fatalf("%s at GT %v: %v", name, gt, err)
		}
		out[i] = res
	}
	return out
}

// checkGridMatches compares RunOfflineGrid at the given pool size against
// one single-point run per threshold, on every test grid.
func checkGridMatches(t *testing.T, src trace.Source, name string, workers int) {
	t.Helper()
	for gname, gts := range testGrids() {
		got, err := RunOfflineGrid(src, name, gts, Config{Displacement: 0.01}, DefaultOverheads(), workers)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, gname, err)
		}
		want := perGT(t, src, name, gts)
		if len(got) != len(want) {
			t.Fatalf("%s/%s: %d results, want %d", name, gname, len(got), len(want))
		}
		// Every rank runs at the first point; later points may share it.
		if np := src.Meta().NP; got[0].Runs != np {
			t.Errorf("%s/%s: %d rank runs at the first point, want %d", name, gname, got[0].Runs, np)
		}
		for i := range gts {
			g := *got[i]
			g.Runs = want[i].Runs
			if !reflect.DeepEqual(&g, want[i]) {
				t.Errorf("%s/%s at GT %v: shared result differs from a direct run\n got %+v\nwant %+v",
					name, gname, gts[i], got[i], want[i])
			}
		}
	}
}

func TestRunOfflineGridMatchesPerGT(t *testing.T) {
	opt := workloads.Options{IterScale: 0.25}
	for _, app := range workloads.Apps() {
		for _, np := range workloads.ProcCounts(app)[:2] {
			t.Run(fmt.Sprintf("%s-%d", app, np), func(t *testing.T) {
				tr, err := workloads.Generate(app, np, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkGridMatches(t, tr, DefaultName, 1)
			})
		}
	}
}

// TestRunOfflineGridMatchesPerGTAllPredictors runs the same check for every
// registered predictor: the n-gram PPA shares runs across thresholds, the
// others cover only their own threshold, and all go through one code path.
func TestRunOfflineGridMatchesPerGTAllPredictors(t *testing.T) {
	tr, err := workloads.Generate("gromacs", 8, workloads.Options{IterScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { checkGridMatches(t, tr, name, 1) })
	}
}

// TestRunOfflineGridPoolSizeInvariant checks that spreading ranks over a
// pool leaves every result bit-identical to the serial runner.
func TestRunOfflineGridPoolSizeInvariant(t *testing.T) {
	tr, err := workloads.Generate("alya", 16, workloads.Options{IterScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{DefaultName, "oracle"} {
		checkGridMatches(t, tr, name, 4)
	}
}

// TestRunOfflineGridSharesRankRuns is the guard on the speed-up: over the
// default grid, alya at 32 ranks takes far fewer distinct branch patterns
// than grid points, so at least half of the NP × 20 rank runs must be
// shared. A GT read the n-gram predictor does not track in its interval
// would have to collapse sharing to stay exact, and fails here.
func TestRunOfflineGridSharesRankRuns(t *testing.T) {
	tr, err := workloads.Generate("alya", 32, workloads.Options{IterScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	gts := defaultGrid()
	res, err := RunOfflineGrid(tr, DefaultName, gts, Config{Displacement: 0.01}, DefaultOverheads(), 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, r := range res {
		runs += r.Runs
	}
	t.Logf("%d rank runs for %d ranks × %d thresholds", runs, tr.NP, len(gts))
	if limit := tr.NP * len(gts) / 2; runs > limit {
		t.Errorf("%d rank runs for %d ranks × %d thresholds, want at most %d", runs, tr.NP, len(gts), limit)
	}
	if runs < tr.NP {
		t.Errorf("%d rank runs, fewer than the %d ranks", runs, tr.NP)
	}
}

func TestRunOfflineGridErrors(t *testing.T) {
	tr := buildTrainable(5)
	cfg := Config{Displacement: 0.01}
	// A sub-minimum point fails even when a valid neighbour's run would
	// cover it.
	if _, err := RunOfflineGrid(tr, DefaultName, []time.Duration{20 * us, 5 * us}, cfg, DefaultOverheads(), 1); err == nil {
		t.Error("sub-minimum grid point accepted")
	}
	if _, err := RunOfflineGrid(tr, "nosuch", []time.Duration{20 * us}, cfg, DefaultOverheads(), 1); err == nil {
		t.Error("unknown predictor accepted by grid runner")
	}
}

// opRun is the reference offline run of rank r: p driven one op at a time
// from the rank's cursor. p's Stats afterwards are the run's statistics.
func opRun(t *testing.T, p Predictor, src trace.Source, r int, treact time.Duration, ov OverheadModel) RankOutcome {
	t.Helper()
	ctrl := power.NewController(treact)
	cur := src.Open(r)
	var now time.Duration
	for {
		op, ok := cur.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case trace.OpCompute:
			now += op.Duration
		case trace.OpCall:
			now = ctrl.Acquire(now + ov.Interception)
			now, _ = Exit(p, ctrl, ov, op.Call, now, now)
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	ctrl.Finish(now)
	return RankOutcome{HitRatePct: p.Stats().HitRatePct(), Acct: ctrl.Accounting(), Delay: ctrl.TotalDelay}
}

// freshRun is the reference offline run of rank r with a newly built n-gram
// predictor. It returns the run, the predictor's statistics and the
// builder's GT interval.
func freshRun(t *testing.T, src trace.Source, r int, cfg Config, ov OverheadModel) (RankOutcome, Stats, time.Duration, time.Duration) {
	t.Helper()
	p := MustNew(cfg)
	run := opRun(t, p, src, r, cfg.Treact, ov)
	lo, hi := p.builder.GTInterval()
	return run, p.Stats(), lo, hi
}

// TestPrimedPredictorsSourceAgnostic checks that the two primed predictors
// see the same calls whatever serves the rank: ForRank and RunOfflineGrid
// over an in-memory trace, the generator source and a packed .ibt file all
// give the outcome of ForRank over the in-memory trace driven op by op, and
// ForRank its statistics too.
func TestPrimedPredictorsSourceAgnostic(t *testing.T) {
	const app, np = "alya", 16
	opt := workloads.Options{IterScale: 0.1}
	tr, err := workloads.Generate(app, np, opt)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workloads.NewSource(app, np, opt)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := trace.EncodeBinary(tr)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []struct {
		kind string
		src  trace.Source
	}{{"trace", tr}, {"generator", gen}, {"ibt", openPacked(t, enc)}}
	gts := []time.Duration{100 * us, 200 * us}
	ov := DefaultOverheads()
	for _, name := range []string{"oracle", "offline"} {
		want := make([][]RankOutcome, len(gts))
		wantStats := make([][]Stats, len(gts))
		for i, gt := range gts {
			cfg := Config{GT: gt, Displacement: 0.01}
			want[i] = make([]RankOutcome, np)
			wantStats[i] = make([]Stats, np)
			for r := range want[i] {
				p, err := ForRank(name, cfg, tr, r)
				if err != nil {
					t.Fatal(err)
				}
				want[i][r] = opRun(t, p, tr, r, cfg.Treact, ov)
				wantStats[i][r] = p.Stats()
			}
			if wantStats[i][0].Shutdowns == 0 {
				t.Fatalf("%s at GT %v: rank 0 never shut down; the check would be vacuous", name, gt)
			}
		}
		for _, s := range srcs {
			res, err := RunOfflineGrid(s.src, name, gts, Config{Displacement: 0.01}, ov, 2)
			if err != nil {
				t.Fatalf("%s over %s: %v", name, s.kind, err)
			}
			for i, gt := range gts {
				if !reflect.DeepEqual(res[i].Ranks, want[i]) {
					t.Errorf("%s over %s at GT %v: RunOfflineGrid outcomes differ from ForRank's", name, s.kind, gt)
				}
				cfg := Config{GT: gt, Displacement: 0.01}
				for r := 0; r < np; r++ {
					p, err := ForRank(name, cfg, s.src, r)
					if err != nil {
						t.Fatal(err)
					}
					if got := opRun(t, p, s.src, r, cfg.Treact, ov); got != want[i][r] {
						t.Errorf("%s over %s at GT %v rank %d: ForRank outcome %+v, want %+v", name, s.kind, gt, r, got, want[i][r])
					}
					if got := p.Stats(); !reflect.DeepEqual(got, wantStats[i][r]) {
						t.Errorf("%s over %s at GT %v rank %d: ForRank stats %+v, want %+v", name, s.kind, gt, r, got, wantStats[i][r])
					}
				}
			}
		}
	}
}

// TestReusedPredictorMatchesFresh drives one worker scratch, and so one
// reset n-gram predictor and one call buffer, through a sequence of (rank,
// GT) runs and checks every run against a fresh predictor streaming the
// rank's cursor. The sequence freezes a small pattern size right before
// runs whose own pattern is larger and mixes three streams, so a reset that
// leaked any detector, builder or decode state would show.
func TestReusedPredictorMatchesFresh(t *testing.T) {
	opt := workloads.Options{IterScale: 0.25}
	srcs := map[string]trace.Source{}
	for _, app := range []string{"alya", "nasmg"} {
		tr, err := workloads.Generate(app, 16, opt)
		if err != nil {
			t.Fatal(err)
		}
		srcs[app] = tr
	}
	// Unlike the generated apps, this stream ends in computation.
	srcs["trainable"] = buildTrainable(20)
	steps := []struct {
		app        string
		rank       int
		gt         time.Duration
		wantFrozen int // the reference's frozen pattern size
	}{
		{"alya", 0, 20 * us, 3},
		{"alya", 0, 100 * us, 2},
		{"alya", 5, 20 * us, 3}, // must not inherit the size-2 freeze
		{"nasmg", 0, 20 * us, 2},
		{"nasmg", 1, 60 * us, 4}, // must not inherit the size-2 freeze
		{"nasmg", 5, 100 * us, 4},
		{"alya", 15, 400 * us, 0},
		{"nasmg", 15, 200 * us, 2},
		{"trainable", 0, 100 * us, 2},
	}
	ov := DefaultOverheads()
	s := &gridScratch{}
	for i, st := range steps {
		cfg := Config{GT: st.gt, Displacement: 0.01}
		src := srcs[st.app]
		p := Reuse(s.pred, DefaultName, cfg)
		if p == nil {
			if i > 0 {
				t.Fatalf("step %d: the worker's n-gram predictor was not reused", i)
			}
			p = MustNew(cfg)
			s.pred = p
		}
		var tail time.Duration
		var err error
		if s.calls, tail, err = trace.Calls(s.calls, src.Open(st.rank)); err != nil {
			t.Fatal(err)
		}
		got := runCalls(p, s.calls, tail, cfg.Treact, ov)
		lo, hi := p.(*NGram).builder.GTInterval()
		want, wantStats, wantLo, wantHi := freshRun(t, src, st.rank, cfg, ov)
		name := fmt.Sprintf("step %d (%s rank %d, GT %v)", i, st.app, st.rank, st.gt)
		if f := wantStats.Detector.MaxPatternFrozen; f != st.wantFrozen {
			t.Fatalf("%s: reference froze size %d, want %d", name, f, st.wantFrozen)
		}
		if got != want {
			t.Errorf("%s: reused run differs from a fresh one\n got %+v\nwant %+v", name, got, want)
		}
		if got := p.Stats(); !reflect.DeepEqual(got, wantStats) {
			t.Errorf("%s: reused predictor's stats differ from a fresh one's\n got %+v\nwant %+v", name, got, wantStats)
		}
		if lo != wantLo || hi != wantHi {
			t.Errorf("%s: GT interval (%v, %v], want (%v, %v]", name, lo, hi, wantLo, wantHi)
		}
	}
}

// TestReuseAcrossAppsMatchesNew drives an n-gram predictor over a nasmg
// rank at one configuration, resets it through Reuse at another and drives
// it over a gromacs rank: every Action and the final Stats must equal a
// fresh New's on that rank. Reuse must decline every other pairing.
func TestReuseAcrossAppsMatchesNew(t *testing.T) {
	opt := workloads.Options{IterScale: 0.1}
	// actions feeds rank r's calls, each lasting 1 µs after its gap.
	actions := func(p Predictor, app string, r int) []Action {
		tr, err := workloads.Generate(app, 16, opt)
		if err != nil {
			t.Fatal(err)
		}
		calls, _, err := trace.Calls(nil, tr.Open(r))
		if err != nil {
			t.Fatal(err)
		}
		var acts []Action
		var now time.Duration
		for _, c := range calls {
			now += c.Gap
			acts = append(acts, p.OnCall(EventID(c.Call), now, now+us))
			now += us
		}
		p.Flush()
		return acts
	}
	cfg := Config{GT: 20 * us, Displacement: 0.01}
	prev := MustNew(Config{GT: 100 * us, Displacement: 0.05})
	actions(prev, "nasmg", 3)
	if prev.Stats().Detector.MaxPatternFrozen == 0 {
		t.Fatal("nasmg froze no pattern size; the reset would be vacuous")
	}
	p := Reuse(prev, "", cfg)
	if p != Predictor(prev) {
		t.Fatalf("Reuse returned %v, want the n-gram predictor reset in place", p)
	}
	got := actions(p, "gromacs", 0)
	fresh := MustNew(cfg)
	want := actions(fresh, "gromacs", 0)
	if !slices.ContainsFunc(want, func(a Action) bool { return a.Shutdown }) {
		t.Fatal("gromacs rank 0 never shut down; the comparison would be vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("reused predictor saw %d calls, New %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: reused predictor's action %+v, New's %+v", i, got[i], want[i])
		}
	}
	if got, want := p.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("reused predictor's stats differ from New's\n got %+v\nwant %+v", got, want)
	}

	lv, err := NewNamed("lastvalue", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prev Predictor
		name string
	}{{lv, DefaultName}, {fresh, "ewma"}, {nil, DefaultName}} {
		if p := Reuse(c.prev, c.name, cfg); p != nil {
			t.Errorf("Reuse(%T, %q) = %T, want nil", c.prev, c.name, p)
		}
	}
}

// TestHitCountsMatchStats checks HitCounts against every built-in
// predictor's Stats after a run: the detector's call counts for the n-gram
// mechanism, the emitted predictions for the baselines. It also checks
// frozenSize, Exit's PPA-cost read, against Stats. (Other tests register
// more names, so the list is spelled out.)
func TestHitCountsMatchStats(t *testing.T) {
	tr, err := workloads.Generate("alya", 16, workloads.Options{IterScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{GT: 20 * us, Displacement: 0.01}
	for _, name := range []string{DefaultName, "oracle", "offline", "lastvalue", "ewma", "static-gt"} {
		p, err := ForRank(name, cfg, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		opRun(t, p, tr, 0, cfg.Treact, DefaultOverheads())
		st := p.Stats()
		hits, total := HitCounts(p)
		want := [2]int{st.PredHits, st.Predictions}
		if name == DefaultName {
			want = [2]int{st.Detector.PredictedCalls, st.Detector.TotalCalls}
		}
		if [2]int{hits, total} != want || total == 0 {
			t.Errorf("%s: HitCounts = %d/%d, want %d/%d from Stats (and some opportunities)", name, hits, total, want[0], want[1])
		}
		if got := frozenSize(p); got != st.Detector.MaxPatternFrozen {
			t.Errorf("%s: frozenSize = %d, Stats says %d", name, got, st.Detector.MaxPatternFrozen)
		}
	}
}
