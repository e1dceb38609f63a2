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

// mustNewNamed is NewNamed for a configuration the test knows is valid.
func mustNewNamed(t *testing.T, name string, cfg Config) Predictor {
	t.Helper()
	p, err := NewNamed(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
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
	p := mustNewNamed(t, "lastvalue", validCfg())
	acts := periodicStream(p, 50, 500*us)
	want := validCfg().predictedIdle(500 * us)
	var shuts int
	for _, a := range acts {
		if a.Shutdown {
			shuts++
			if a.PredictedIdle != want {
				t.Errorf("predicted idle %v, want %v from the last observed 500µs", a.PredictedIdle, want)
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
	p := mustNewNamed(t, "lastvalue", validCfg())
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
	p := mustNewNamed(t, "ewma", validCfg())
	acts := periodicStream(p, 40, 400*us)
	last := acts[len(acts)-1]
	if !last.Shutdown {
		t.Fatal("no shutdown at steady state")
	}
	// On a constant stream the EWMA converges to the gap itself.
	if want := validCfg().predictedIdle(400 * us); last.PredictedIdle != want {
		t.Errorf("steady-state predicted idle %v, want %v from an EWMA of 400µs", last.PredictedIdle, want)
	}
	if hr := p.Stats().HitRatePct(); hr < 90 {
		t.Errorf("hit rate %.1f%%", hr)
	}
}

func TestStaticGTDegeneratesAtMinimum(t *testing.T) {
	// At GT = 2·Treact the safety limit leaves predictedIdle = GT·(1-d) -
	// Treact <= Treact, which the link controller rejects; the policy only
	// bites at larger thresholds.
	cfg := Config{GT: 300 * us, Displacement: 0.01}
	p := mustNewNamed(t, "static-gt", cfg)
	acts := periodicStream(p, 20, 500*us)
	var shuts int
	for _, a := range acts {
		if a.Shutdown {
			shuts++
			if want := cfg.predictedIdle(cfg.GT); a.PredictedIdle != want {
				t.Errorf("static predicted idle %v, want %v from GT", a.PredictedIdle, want)
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
	var preds []time.Duration
	c := tr.Open(0)
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		switch op.Kind {
		case trace.OpCompute:
			now += op.Duration
		case trace.OpCall:
			if act := p.OnCall(EventID(op.Call), now, now); act.Shutdown {
				preds = append(preds, act.PredictedIdle)
			}
		}
	}
	p.Flush()
	if len(preds) == 0 {
		t.Fatal("primed oracle made no predictions")
	}
	cfg := validCfg()
	for _, r := range preds {
		if r != cfg.predictedIdle(600*us) && r != cfg.predictedIdle(150*us) {
			t.Errorf("oracle predicted idle %v, want one from an exact trace gap", r)
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
				seen[EventID(op.Call)] = act.PredictedIdle
			}
		}
	}
	cfg := validCfg()
	if got, want := seen[EventID(trace.CallSendrecv)], cfg.predictedIdle(600*us); got != want {
		t.Errorf("predicted idle after Sendrecv = %v, want %v from a 600µs mean", got, want)
	}
	if got, want := seen[EventID(trace.CallAllreduce)], cfg.predictedIdle(150*us); got != want {
		t.Errorf("predicted idle after Allreduce = %v, want %v from a 150µs mean", got, want)
	}
}

func TestUnprimedTraceAwarePredictNothing(t *testing.T) {
	// The live PMPI layer cannot prime the oracle or the profile; they must
	// degrade to no-ops rather than guessing.
	for _, name := range []string{"oracle", "offline"} {
		p := mustNewNamed(t, name, validCfg())
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
		if len(res.Ranks) != 1 || res.Ranks[0].Acct.Total() <= 0 {
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
