package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"ibpower/internal/multijob"
	"ibpower/internal/topology"
)

// TestParseFaultsRoundTrip pins the clause grammar's canonical form for every
// kind and both MTTR shapes.
func TestParseFaultsRoundTrip(t *testing.T) {
	for _, s := range []string{
		"link:poisson:10m0s:mttr=2m0s",
		"switch:fixed:5m0s",
		"term:poisson:30s:mttr=1m30s",
		"link:poisson:10m0s:mttr=2m0s,switch:fixed:5m0s,term:fixed:7s",
	} {
		clauses, err := ParseFaults(s)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", s, err)
		}
		if got := FormatFaults(clauses); got != s {
			t.Errorf("round trip changed the clauses: %q -> %q", s, got)
		}
	}
	if clauses, err := ParseFaults("  "); err != nil || clauses != nil {
		t.Errorf("blank fault spec: got %v, %v, want empty no-op", clauses, err)
	}
}

// TestParseFaultsErrors covers every clause parse failure with its message.
func TestParseFaultsErrors(t *testing.T) {
	for in, want := range map[string]string{
		"link":                     "wants kind:dist:mean",
		"disk:poisson:10m":         "unknown fault kind",
		"link:weird:10m":           "unknown arrival process",
		"link:poisson:0s":          "must be positive",
		"link:poisson:-3s":         "must be positive",
		"link:poisson:10m:mttr=":   "fault mttr",
		"link:poisson:10m:mttr=x":  "fault mttr",
		"link:poisson:10m:mttr=0s": "mttr must be positive",
		"link:poisson:10m,":        "wants kind:dist:mean",
	} {
		_, err := ParseFaults(in)
		if err == nil {
			t.Errorf("ParseFaults(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseFaults(%q) error %q, want substring %q", in, err, want)
		}
	}
}

// TestSpecFaultsRoundTrip asserts the faults key survives a full spec round
// trip, including the comma-continuation form where one faults value spans
// several comma segments.
func TestSpecFaultsRoundTrip(t *testing.T) {
	spec, err := ParseSpec("jobs=12,faults=link:poisson:10m:mttr=2m,switch:fixed:5m,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Jobs != 12 || spec.Seed != 3 {
		t.Fatalf("continuation merge disturbed neighbouring keys: %+v", spec)
	}
	if len(spec.Faults) != 2 || spec.Faults[0].Kind != multijob.FaultLink ||
		spec.Faults[1].Kind != multijob.FaultSwitch || spec.Faults[0].MTTR != 2*time.Minute {
		t.Fatalf("faults parsed to %v", spec.Faults)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("canonical form %q does not reparse: %v", spec.String(), err)
	}
	if again.String() != spec.String() {
		t.Errorf("round trip changed the spec: %q -> %q", spec.String(), again.String())
	}
	if !strings.Contains(spec.String(), ",faults=") {
		t.Errorf("canonical form %q does not carry the faults key", spec.String())
	}
}

// TestSpecErrorsFaultLayer covers the parse failures the fault layer added:
// duplicate keys, dangling continuations, and the faults key's own errors
// surfacing through ApplySpec.
func TestSpecErrorsFaultLayer(t *testing.T) {
	for in, want := range map[string]string{
		"jobs=3,jobs=4": "duplicate spec key \"jobs\"",
		"faults=link:fixed:1s,faults=term:fixed:1s": "duplicate spec key \"faults\"",
		"link:poisson:10m":                          "want key=value",
		"faults=disk:poisson:10m":                   "unknown fault kind",
		"faults=link:poisson:10m:mttr=-1s":          "mttr must be positive",
	} {
		_, err := ParseSpec(in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSpec(%q) error %q, want substring %q", in, err, want)
		}
	}
}

// streamEvents drains up to n events from a freshly built stream.
func streamEvents(t *testing.T, spec string, seed int64, n int) []multijob.FaultEvent {
	t.Helper()
	clauses, err := ParseFaults(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFaultStream(clauses, topology.Paper(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var evs []multijob.FaultEvent
	for len(evs) < n {
		ev, ok := s.Peek()
		if !ok {
			break
		}
		if got := s.Pop(); got != ev {
			t.Fatalf("Pop %+v differs from Peek %+v", got, ev)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestFaultStreamDeterministic pins the seed contract: the same (clauses,
// fabric, seed) triple always expands to the same events, and a different
// seed moves them.
func TestFaultStreamDeterministic(t *testing.T) {
	const spec = "link:poisson:5m:mttr=2m,switch:poisson:20m,term:fixed:3m:mttr=10m"
	a := streamEvents(t, spec, 7, 100)
	b := streamEvents(t, spec, 7, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("two streams of the same seed diverged")
	}
	c := streamEvents(t, spec, 8, 100)
	if reflect.DeepEqual(a, c) {
		t.Error("seed 7 and seed 8 produced identical events")
	}
	if len(a) < 100 {
		t.Fatalf("stream dried up after %d events", len(a))
	}
}

// TestFaultStreamOrderingAndPairing walks a mixed stream asserting the
// FaultSource contract: non-decreasing times, no entity fails while already
// down, every repair matches a prior failure exactly MTTR later, and
// RepairPending tracks the heap.
func TestFaultStreamOrderingAndPairing(t *testing.T) {
	clauses, err := ParseFaults("link:poisson:3m:mttr=7m,switch:fixed:11m:mttr=2m")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFaultStream(clauses, topology.Paper(), 41)
	if err != nil {
		t.Fatal(err)
	}
	mttr := map[multijob.FaultKind]time.Duration{
		multijob.FaultLink:   7 * time.Minute,
		multijob.FaultSwitch: 2 * time.Minute,
	}
	failedAt := make(map[faultKey]time.Duration)
	last := time.Duration(-1)
	repairs := 0
	for i := 0; i < 300; i++ {
		ev, ok := s.Peek()
		if !ok {
			break
		}
		if pending := s.RepairPending(); pending != (len(s.repairs) > 0) {
			t.Fatalf("RepairPending %v with %d queued repairs", pending, len(s.repairs))
		}
		s.Pop()
		if ev.At < last {
			t.Fatalf("event %d at %v after %v", i, ev.At, last)
		}
		last = ev.At
		k := faultKey{ev.Kind, ev.Index}
		if ev.Repair {
			at, down := failedAt[k]
			if !down {
				t.Fatalf("repair of healthy entity %+v", ev)
			}
			if ev.At != at+mttr[ev.Kind] {
				t.Fatalf("repair of %+v at %v, want failure time %v + MTTR %v", ev, ev.At, at, mttr[ev.Kind])
			}
			delete(failedAt, k)
			repairs++
		} else {
			if _, down := failedAt[k]; down {
				t.Fatalf("entity %+v failed while already down", ev)
			}
			failedAt[k] = ev.At
		}
	}
	if repairs == 0 {
		t.Error("stream with MTTRs produced no repairs")
	}
}

// TestFaultStreamPermanent asserts MTTR-less clauses never schedule repairs
// and dry up once every entity is down or the failure cap is hit.
func TestFaultStreamPermanent(t *testing.T) {
	evs := streamEvents(t, "switch:fixed:1s", 3, 10000)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	seen := make(map[int32]bool)
	for _, ev := range evs {
		if ev.Repair {
			t.Fatalf("permanent clause emitted repair %+v", ev)
		}
		if seen[ev.Index] {
			t.Fatalf("switch %d failed twice without repair", ev.Index)
		}
		seen[ev.Index] = true
	}
	// The paper fabric has finitely many switches; a permanent clause must
	// stop once they are all down.
	if len(evs) >= 10000 {
		t.Fatalf("permanent stream did not dry up (%d events)", len(evs))
	}
}

// TestFaultStreamUnknownPopulation asserts a clause whose population is empty
// on the chosen fabric is rejected up front.
func TestFaultStreamUnknownPopulation(t *testing.T) {
	clauses, err := ParseFaults("link:fixed:1s")
	if err != nil {
		t.Fatal(err)
	}
	small, err := topology.New(1, []int{4}, []int{1}) // single switch: no s2s cables
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFaultStream(clauses, small, 1); err == nil ||
		!strings.Contains(err.Error(), "no link entities to fail") {
		t.Errorf("single-switch fabric accepted a link clause: %v", err)
	}
}

func testFaultConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig(t)
	spec, err := ApplySpec(cfg.Spec, "jobs=8,faults=term:poisson:150ms:mttr=300ms,link:poisson:200ms:mttr=250ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec = spec
	return cfg
}

// TestRunWithFaultsDeterministic extends the acceptance contract to faulty
// runs: bit-identical results at Parallelism 1, 4, and GOMAXPROCS, with the
// resilience metrics populated.
func TestRunWithFaultsDeterministic(t *testing.T) {
	var base *multijob.ChurnResult
	for _, par := range []int{1, 1, 4, 0} {
		cfg := testFaultConfig(t)
		cfg.Replay.Parallelism = par
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			if !res.FaultsActive {
				t.Fatal("fault clauses set but FaultsActive is false")
			}
			if len(res.Capacity) == 0 {
				t.Error("no capacity profile")
			}
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("result at Parallelism %d differs from the first run", par)
		}
	}
}

// TestRunFaultFreeSpecUnchanged asserts a spec without fault clauses takes
// the exact pre-fault path: no FaultsActive, no resilience noise in the
// result.
func TestRunFaultFreeSpecUnchanged(t *testing.T) {
	res, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsActive || res.Killed != 0 || res.Capacity != nil {
		t.Errorf("fault-free run carries fault state: %+v", res)
	}
}

// TestRunCtxCancelled asserts Config.Ctx reaches the churn engine: a
// cancelled context stops the run with its error.
func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testFaultConfig(t)
	cfg.Ctx = ctx
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("cancelled ctx: err %v, want %v", err, context.Canceled)
	}
}
