package predictor

import (
	"testing"
	"time"

	"ibpower/internal/registrytest"
	"ibpower/internal/trace"
)

func validCfg() Config {
	return Config{GT: 100 * us, Displacement: 0.01}
}

// TestRegistryContract runs the shared registry property test; the predictor
// presets themselves must all be present on top of the generic contract.
func TestRegistryContract(t *testing.T) {
	for _, want := range []string{"ewma", "lastvalue", "ngram", "offline", "oracle", "static-gt"} {
		if CheckRegistered(want) != nil {
			t.Errorf("%q not registered (have %v)", want, Names())
		}
	}
	registrytest.Run(t, registrytest.Registry{
		Kind:    "predictor",
		Default: DefaultName,
		Names:   Names,
		Check:   CheckRegistered,
		RegisterValid: func(name string) {
			Register(name, func(cfg Config) (Predictor, error) { return New(cfg) })
		},
		RegisterNil: func(name string) { Register(name, nil) },
	})
}

func TestNewNamedDefault(t *testing.T) {
	p, err := NewNamed("", validCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*NGram); !ok {
		t.Errorf("empty name resolved to %T, want *NGram", p)
	}
}

func TestNewNamedValidatesConfig(t *testing.T) {
	for _, name := range Names() {
		if _, err := NewNamed(name, Config{GT: time.Microsecond}); err == nil {
			t.Errorf("%s accepted a sub-minimum GT", name)
		}
	}
	if _, err := NewNamed("ewma", Config{GT: 100 * us, Displacement: 0.01, Alpha: 1.5}); err == nil {
		t.Error("ewma accepted alpha > 1")
	}
}

// periodicStream feeds n calls separated by the given gap and returns the
// emitted actions.
func periodicStream(p Predictor, n int, gap time.Duration) []Action {
	var acts []Action
	var now time.Duration
	for i := 0; i < n; i++ {
		now += gap
		acts = append(acts, p.OnCall(41, now, now))
	}
	p.Flush()
	return acts
}

func TestLastValueOnPeriodicStream(t *testing.T) {
	p := MustNewNamed("lastvalue", validCfg())
	acts := periodicStream(p, 50, 500*us)
	var shuts int
	for _, a := range acts {
		if a.Shutdown {
			shuts++
			if a.RawIdle != 500*us {
				t.Errorf("raw idle %v, want the last observed 500µs", a.RawIdle)
			}
		}
	}
	// The first call has no gap yet and the second predicts from gap #1.
	if shuts != 49 {
		t.Errorf("shutdowns = %d, want 49", shuts)
	}
	st := p.Stats()
	if st.Calls != 50 || st.Shutdowns != 49 {
		t.Errorf("stats: %+v", st)
	}
	// Every resolved prediction matched the constant gap.
	if hr := st.HitRatePct(); hr < 95 {
		t.Errorf("hit rate %.1f%% on a constant-gap stream", hr)
	}
}

func TestLastValueMissesOnShrinkingGaps(t *testing.T) {
	p := MustNewNamed("lastvalue", validCfg())
	var now time.Duration
	// Alternate long and short gaps: predictions made after a long gap
	// overshoot the short gap that follows.
	for i := 0; i < 40; i++ {
		gap := 120 * us
		if i%2 == 1 {
			gap = 600 * us
		}
		now += gap
		p.OnCall(41, now, now)
	}
	st := p.Stats()
	if st.Predictions == 0 {
		t.Fatal("no predictions on gaps above GT")
	}
	if hr := st.HitRatePct(); hr > 60 {
		t.Errorf("hit rate %.1f%% on an alternating stream; last-value must mispredict half", hr)
	}
}

func TestEWMASmoothing(t *testing.T) {
	p := MustNewNamed("ewma", validCfg())
	acts := periodicStream(p, 40, 400*us)
	last := acts[len(acts)-1]
	if !last.Shutdown {
		t.Fatal("no shutdown at steady state")
	}
	// On a constant stream the EWMA converges to the gap itself.
	if last.RawIdle != 400*us {
		t.Errorf("steady-state EWMA %v, want 400µs", last.RawIdle)
	}
	if hr := p.Stats().HitRatePct(); hr < 90 {
		t.Errorf("hit rate %.1f%%", hr)
	}
}

func TestStaticGTDegeneratesAtMinimum(t *testing.T) {
	// At GT = 2·Treact the safety limit leaves predictedIdle = GT·(1-d) -
	// Treact <= Treact, which the link controller rejects; the policy only
	// bites at larger thresholds.
	p := MustNewNamed("static-gt", Config{GT: 300 * us, Displacement: 0.01})
	acts := periodicStream(p, 20, 500*us)
	var shuts int
	for _, a := range acts {
		if a.Shutdown {
			shuts++
			if a.RawIdle != 300*us {
				t.Errorf("static raw idle %v, want GT", a.RawIdle)
			}
		}
	}
	if shuts != 20 {
		t.Errorf("static-gt emitted %d shutdowns, want one per call", shuts)
	}
}

// buildTrainable returns a two-call-type trace with distinct gaps: 600 µs of
// computation follows call 41, 150 µs follows call 10.
func buildTrainable(iters int) *trace.Trace {
	tr := trace.New("t", 1)
	for i := 0; i < iters; i++ {
		tr.Append(0, trace.Sendrecv(0, 0, 8))
		tr.Append(0, trace.Compute(600*us))
		tr.Append(0, trace.Allreduce(8))
		tr.Append(0, trace.Compute(150*us))
	}
	return tr
}

func TestOraclePrimedPredictsExactGaps(t *testing.T) {
	tr := buildTrainable(20)
	p, err := ForRank("oracle", validCfg(), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	var raws []time.Duration
	c := tr.Open(0)
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		switch op.Kind {
		case trace.OpCompute:
			now += op.Duration
		case trace.OpCall:
			if act := p.OnCall(EventID(op.Call), now, now); act.Shutdown {
				raws = append(raws, act.RawIdle)
			}
		}
	}
	p.Flush()
	if len(raws) == 0 {
		t.Fatal("primed oracle made no predictions")
	}
	for _, r := range raws {
		if r != 600*us && r != 150*us {
			t.Errorf("oracle predicted %v, want an exact trace gap", r)
		}
	}
	if hr := p.Stats().HitRatePct(); hr != 100 {
		t.Errorf("oracle hit rate %.1f%%, want 100%%", hr)
	}
}

func TestProfilePredictsPerCallTypeMeans(t *testing.T) {
	tr := buildTrainable(20)
	p, err := ForRank("offline", validCfg(), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	seen := map[EventID]time.Duration{}
	c := tr.Open(0)
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		switch op.Kind {
		case trace.OpCompute:
			now += op.Duration
		case trace.OpCall:
			if act := p.OnCall(EventID(op.Call), now, now); act.Shutdown {
				seen[EventID(op.Call)] = act.RawIdle
			}
		}
	}
	if seen[EventID(trace.CallSendrecv)] != 600*us {
		t.Errorf("profile mean after Sendrecv = %v, want 600µs", seen[EventID(trace.CallSendrecv)])
	}
	if seen[EventID(trace.CallAllreduce)] != 150*us {
		t.Errorf("profile mean after Allreduce = %v, want 150µs", seen[EventID(trace.CallAllreduce)])
	}
}

func TestUnprimedTraceAwarePredictNothing(t *testing.T) {
	// The live PMPI layer cannot prime the oracle or the profile; they must
	// degrade to no-ops rather than guessing.
	for _, name := range []string{"oracle", "offline"} {
		p := MustNewNamed(name, validCfg())
		for _, a := range periodicStream(p, 30, 500*us) {
			if a.Shutdown {
				t.Errorf("%s emitted a shutdown without being primed", name)
			}
		}
	}
}

// TestRunOfflineGridOnePointAllPredictors runs every registered predictor
// through the single-threshold offline runner.
func TestRunOfflineGridOnePointAllPredictors(t *testing.T) {
	tr := buildTrainable(30)
	for _, name := range Names() {
		res, err := runOne(tr, name, validCfg())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Ranks) != 1 || res.Exec <= 0 {
			t.Errorf("%s: malformed result %+v", name, res)
		}
	}
	// The oracle reclaims at least as much low-power time as last-value on
	// any trace: it makes the same-or-better prediction at every call.
	or, err := runOne(tr, "oracle", validCfg())
	if err != nil {
		t.Fatal(err)
	}
	lv, err := runOne(tr, "lastvalue", validCfg())
	if err != nil {
		t.Fatal(err)
	}
	if or.TotalLow() < lv.TotalLow() {
		t.Errorf("oracle low %v below lastvalue %v", or.TotalLow(), lv.TotalLow())
	}
	if or.Delay != 0 {
		t.Errorf("oracle paid %v of reactivation delay", or.Delay)
	}
	if _, err := runOne(tr, "nosuch", validCfg()); err == nil {
		t.Error("unknown predictor accepted by offline runner")
	}
}
