package predictor

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ibpower/internal/ngram"
	"ibpower/internal/power"
	"ibpower/internal/trace"
)

const us = time.Microsecond

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{GT: 10 * us, Displacement: 0.01},  // GT below 2·Treact
		{GT: 100 * us, Displacement: -0.1}, // negative displacement
		{GT: 100 * us, Displacement: 1.0},  // displacement >= 1
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	good := Config{GT: 20 * us, Displacement: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Custom Treact relaxes the GT floor.
	custom := Config{GT: 10 * us, Displacement: 0, Treact: 5 * us}
	if err := custom.Validate(); err != nil {
		t.Errorf("custom Treact config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on invalid config")
		}
	}()
	MustNew(Config{GT: time.Microsecond})
}

// runIterations pushes n iterations of a fixed two-gram pattern through a
// predictor: gram A (two calls, id 41) [gap short], then a long gap, then
// gram B (one call, id 10), then a medium gap.
func runIterations(p Predictor, n int, longGap, medGap time.Duration) []Action {
	var acts []Action
	var now time.Duration
	for i := 0; i < n; i++ {
		now += longGap
		acts = append(acts, p.OnCall(41, now, now+2*us))
		now += 2*us + 4*us
		acts = append(acts, p.OnCall(41, now, now+2*us))
		now += 2 * us
		now += medGap
		acts = append(acts, p.OnCall(10, now, now+3*us))
		now += 3 * us
	}
	return acts
}

func TestPredictorShutdownAction(t *testing.T) {
	p := MustNew(Config{GT: 20 * us, Displacement: 0.10})
	acts := runIterations(p, 12, 500*us, 300*us)
	var shutdowns int
	for _, a := range acts {
		if a.Shutdown {
			shutdowns++
			if a.PredictedIdle <= 0 || a.PredictedIdle >= 500*us {
				t.Errorf("predicted idle %v not within (0, 500µs), the longest gap", a.PredictedIdle)
			}
		}
	}
	if shutdowns == 0 {
		t.Fatal("no shutdown actions on a perfectly periodic stream")
	}
	st := p.Stats()
	if st.Shutdowns != shutdowns {
		t.Errorf("Stats.Shutdowns = %d, want %d", st.Shutdowns, shutdowns)
	}
	if st.PredictedIdle <= 0 {
		t.Error("no predicted idle accumulated")
	}
}

func TestAlgorithm3SafetyFormula(t *testing.T) {
	// With displacement d and reactivation Treact, the programmed idle must
	// equal idleTime - (idleTime*d + Treact) for the stable gap estimate,
	// which after the last gram is the long gap.
	const d = 0.10
	const raw = 500 * us
	p := MustNew(Config{GT: 20 * us, Displacement: d})
	acts := runIterations(p, 20, raw, 300*us)
	var last Action
	for _, a := range acts {
		if a.Shutdown {
			last = a
		}
	}
	if !last.Shutdown {
		t.Fatal("no shutdown action")
	}
	want := raw - time.Duration(float64(raw)*d) - power.Treact
	if last.PredictedIdle != want {
		t.Errorf("predicted = %v, want %v (raw %v)", last.PredictedIdle, want, raw)
	}
}

func TestDisplacementMonotonicity(t *testing.T) {
	// Larger displacement factors must never program longer idle times.
	idle := func(d float64) time.Duration {
		p := MustNew(Config{GT: 20 * us, Displacement: d})
		acts := runIterations(p, 15, 500*us, 300*us)
		var sum time.Duration
		for _, a := range acts {
			if a.Shutdown {
				sum += a.PredictedIdle
			}
		}
		return sum
	}
	i1, i5, i10 := idle(0.01), idle(0.05), idle(0.10)
	if !(i1 >= i5 && i5 >= i10) {
		t.Errorf("predicted idle not monotone in displacement: 1%%=%v 5%%=%v 10%%=%v", i1, i5, i10)
	}
	if i1 == 0 {
		t.Fatal("no idle predicted at 1% displacement")
	}
}

func TestHitRate(t *testing.T) {
	p := MustNew(Config{GT: 20 * us, Displacement: 0.01})
	runIterations(p, 40, 500*us, 300*us)
	p.Flush()
	st := p.Stats()
	if st.HitRatePct() < 80 {
		t.Errorf("hit rate %.1f%% on a periodic stream", st.HitRatePct())
	}
	if st.Calls != 120 {
		t.Errorf("calls = %d, want 120", st.Calls)
	}
}

// TestOnCallSteadyStateNoAllocs pins the per-call mechanism at 0 allocs/op
// once a pattern is predicted: the gram builder's two event buffers have
// grown, the detector has interned every shape, and matching the current
// gram against the expected one compares raw bytes without a copy.
func TestOnCallSteadyStateNoAllocs(t *testing.T) {
	p := MustNew(Config{GT: 20 * us, Displacement: 0.01})
	runIterations(p, 12, 500*us, 300*us)
	// One call of runIterations' stream per op, continuing its clock.
	ids := [3]EventID{41, 41, 10}
	gaps := [3]time.Duration{500 * us, 4 * us, 300 * us}
	durs := [3]time.Duration{2 * us, 2 * us, 3 * us}
	now := 12 * (500*us + 2*us + 4*us + 2*us + 300*us + 3*us)
	i := 0
	before := p.Stats()
	allocs := testing.AllocsPerRun(300, func() {
		k := i % 3
		now += gaps[k]
		p.OnCall(ids[k], now, now+durs[k])
		now += durs[k]
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state OnCall allocated %.1f/op, want 0", allocs)
	}
	after := p.Stats()
	if after.Shutdowns == before.Shutdowns {
		t.Error("no shutdown while measuring: the expected-gram match went unexercised")
	}
	if after.Detector.Mispredictions != before.Detector.Mispredictions {
		t.Errorf("mispredictions grew from %d to %d on the steady stream",
			before.Detector.Mispredictions, after.Detector.Mispredictions)
	}
}

func TestNoShutdownBeforeDetection(t *testing.T) {
	p := MustNew(Config{GT: 20 * us, Displacement: 0.01})
	acts := runIterations(p, 2, 500*us, 300*us)
	for i, a := range acts {
		if a.Shutdown {
			t.Errorf("shutdown at call %d before three pattern appearances", i)
		}
	}
}

func TestOfflineRunner(t *testing.T) {
	tr := trace.New("t", 2)
	for r := 0; r < 2; r++ {
		for i := 0; i < 30; i++ {
			tr.Append(r, trace.Compute(400*us))
			tr.Append(r, trace.Sendrecv((r+1)%2, (r+1)%2, 1024))
			tr.Append(r, trace.Compute(250*us))
			tr.Append(r, trace.Allreduce(8))
		}
	}
	res, err := runOne(tr, DefaultName, Config{GT: 20 * us, Displacement: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 2 {
		t.Fatalf("per-rank results missing: %d", len(res.Ranks))
	}
	if res.AvgHitRatePct() < 70 {
		t.Errorf("offline hit rate %.1f%%", res.AvgHitRatePct())
	}
	if res.TotalLow() <= 0 {
		t.Error("no realized low-power time")
	}
	// Every rank accounts its run, and the delay reduces the ranks'
	// outcomes.
	var delay time.Duration
	for r, ro := range res.Ranks {
		if a := ro.Acct; a.Total() <= 0 {
			t.Errorf("rank %d accounts no time", r)
		}
		if ro.HitRatePct <= 0 || ro.HitRatePct > 100 {
			t.Errorf("rank %d hit rate %.1f%%", r, ro.HitRatePct)
		}
		delay += ro.Delay
	}
	if delay != res.Delay {
		t.Errorf("reduced delay %v, want %v from the ranks", res.Delay, delay)
	}
}

func TestMeasureOverheads(t *testing.T) {
	tr := trace.New("t", 1)
	for i := 0; i < 200; i++ {
		tr.Append(0, trace.Compute(100*us))
		tr.Append(0, trace.Barrier())
		tr.Append(0, trace.Compute(60*us))
		tr.Append(0, trace.Allreduce(8))
	}
	rep, err := MeasureOverheads(DefaultName, tr, Config{GT: 20 * us, Displacement: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Calls != 400 {
		t.Errorf("calls = %d, want 400", rep.Calls)
	}
	if rep.PPAInvoked == 0 || rep.PPAInvokedPct <= 0 {
		t.Error("no PPA invocations measured")
	}
	// Prediction succeeds on this stream, so PPA runs on a small share of
	// calls (the paper's Table IV averages 2.1 %).
	if rep.PPAInvokedPct > 50 {
		t.Errorf("PPA invoked on %.1f%% of calls; prediction is not kicking in", rep.PPAInvokedPct)
	}
	if rep.PerCallAmortized <= 0 || rep.Total <= 0 {
		t.Error("missing timing measurements")
	}
}

// TestMeasureOverheadsWithoutPPA pins the report contract for a predictor
// that never invokes the PPA: no invoked calls and no per-invoked-call
// cost, while the amortized per-call cost is still measured.
func TestMeasureOverheadsWithoutPPA(t *testing.T) {
	tr := trace.New("t", 1)
	for i := 0; i < 200; i++ {
		tr.Append(0, trace.Compute(100*us))
		tr.Append(0, trace.Barrier())
	}
	rep, err := MeasureOverheads("lastvalue", tr, Config{GT: 20 * us, Displacement: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Calls != 200 {
		t.Errorf("calls = %d, want 200", rep.Calls)
	}
	if rep.PPAInvoked != 0 || rep.PPAInvokedPct != 0 || rep.PerInvokedCall != 0 {
		t.Errorf("lastvalue reported PPA work: %+v", rep)
	}
	if rep.PerCallAmortized <= 0 {
		t.Errorf("amortized per-call cost %v, want > 0", rep.PerCallAmortized)
	}
	if _, err := MeasureOverheads("nosuch", tr, Config{GT: 20 * us, Displacement: 0.01}); err == nil {
		t.Error("unknown predictor accepted by MeasureOverheads")
	}
}

// packedTrace encodes a two-rank "ibt-app" trace in the binary trace
// format: fifty (300 µs compute, barrier) pairs and a trailing compute per
// rank.
func packedTrace(t *testing.T) []byte {
	t.Helper()
	tr := trace.New("ibt-app", 2)
	for r := 0; r < 2; r++ {
		for i := 0; i < 50; i++ {
			tr.Append(r, trace.Compute(300*us))
			tr.Append(r, trace.Barrier())
		}
		tr.Append(r, trace.Compute(100*us))
	}
	enc, err := trace.EncodeBinary(tr)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// openPacked opens the first trace of a binary trace file held in memory.
func openPacked(t *testing.T, b []byte) trace.Source {
	t.Helper()
	f, err := trace.OpenBinary(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	return f.SourceAt(0)
}

// TestMeasureOverheadsPrimesFromFile runs the primed oracle over a packed
// binary trace, so MeasureOverheads decodes each rank's calls from the file
// to prime it.
func TestMeasureOverheadsPrimesFromFile(t *testing.T) {
	cfg := Config{GT: 20 * us, Displacement: 0.01}
	rep, err := MeasureOverheads("oracle", openPacked(t, packedTrace(t)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Calls != 100 || rep.PPAInvoked != 0 {
		t.Errorf("oracle over the file: %d calls, %d PPA-invoked, want 100 and 0", rep.Calls, rep.PPAInvoked)
	}
}

// probePrimed collects the call count of every primeProbe priming.
var (
	probePrimed   []int
	registerProbe sync.Once
)

// primeProbe is a primer that records the calls it is primed with.
type primeProbe struct{ stubPred }

func (*primeProbe) prime(calls []trace.CallGap, _ time.Duration) {
	probePrimed = append(probePrimed, len(calls))
}

// TestMeasureOverheadsPrimesEveryRank checks that Table IV primes each
// rank's primer with that rank's decoded calls. The oracle's report would
// read the same unprimed: only its wall-clock cost would drop.
func TestMeasureOverheadsPrimesEveryRank(t *testing.T) {
	registerProbe.Do(func() {
		Register("prime-probe", func(cfg Config) (Predictor, error) {
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return &primeProbe{}, nil
		})
	})
	probePrimed = nil
	if _, err := MeasureOverheads("prime-probe", openPacked(t, packedTrace(t)), Config{GT: 20 * us, Displacement: 0.01}); err != nil {
		t.Fatal(err)
	}
	if want := []int{50, 50}; !slices.Equal(probePrimed, want) {
		t.Errorf("primed with %v calls per rank, want %v", probePrimed, want)
	}
}

// TestOfflineDecodeErrorNamesRank corrupts rank 1 of a packed trace and
// checks that both offline entry points name the app and rank, for a
// streaming predictor (ngram) and a primed one (oracle) alike.
func TestOfflineDecodeErrorNamesRank(t *testing.T) {
	// The byte before the index ends rank 1's stream: the last op's
	// duration varint, which a set continuation bit runs past the end.
	bad := packedTrace(t)
	idx := binary.LittleEndian.Uint64(bad[len(bad)-12:])
	bad[idx-1] = 0xFF
	src := openPacked(t, bad)
	cfg := Config{GT: 20 * us, Displacement: 0.01}
	for _, name := range []string{DefaultName, "oracle"} {
		_, err := RunOfflineGrid(src, name, []time.Duration{20 * us, 40 * us}, cfg, DefaultOverheads(), 1)
		if err == nil || !strings.HasPrefix(err.Error(), "ibt-app rank 1: ") {
			t.Errorf("RunOfflineGrid %s over corrupt rank 1: error %v, want one naming ibt-app rank 1", name, err)
		}
		_, err = MeasureOverheads(name, src, cfg)
		if err == nil || !strings.HasPrefix(err.Error(), "ibt-app rank 1: ") {
			t.Errorf("MeasureOverheads %s over corrupt rank 1: error %v, want one naming ibt-app rank 1", name, err)
		}
	}
}

// stubPred returns a fixed action and reports fixed statistics.
type stubPred struct {
	act   Action
	stats Stats
}

func (s *stubPred) OnCall(EventID, time.Duration, time.Duration) Action { return s.act }
func (s *stubPred) Flush()                                              {}
func (s *stubPred) Stats() Stats                                        { return s.stats }

// TestExit pins the one call-exit sequence: a PPA invocation costs the
// model's charge after the call's end, a shutdown lands once that cost is
// paid, and the returned time is where it landed.
func TestExit(t *testing.T) {
	const end = 500 * us
	ov := DefaultOverheads()
	st := Stats{Detector: ngram.DetectorStats{MaxPatternFrozen: 4}}
	shut := Action{Shutdown: true, PredictedIdle: 200 * us}
	ppaShut := Action{PPAInvoked: true, Shutdown: true, PredictedIdle: 200 * us}
	for _, tc := range []struct {
		name string
		act  Action
		ov   OverheadModel
		want time.Duration
	}{
		{"PPA and shutdown", ppaShut, ov, end + ov.PPACost(4)},
		{"zero model", ppaShut, OverheadModel{}, end},
		{"no PPA", shut, ov, end},
		{"PPA only", Action{PPAInvoked: true}, ov, end + ov.PPACost(4)},
	} {
		ctrl := power.NewController(0)
		got, act := Exit(&stubPred{act: tc.act, stats: st}, ctrl, tc.ov, trace.CallBarrier, 100*us, end)
		if got != tc.want || act != tc.act {
			t.Errorf("%s: Exit = %v, %+v; want %v, %+v", tc.name, got, act, tc.want, tc.act)
		}
		// Full power ends where the shutdown landed.
		ctrl.Finish(got)
		full := ctrl.Accounting().Full
		if tc.act.Shutdown && (ctrl.Shutdowns != 1 || full != got) {
			t.Errorf("%s: %d shutdowns, full power until %v; want one landing at %v", tc.name, ctrl.Shutdowns, full, got)
		}
		if !tc.act.Shutdown && ctrl.Shutdowns != 0 {
			t.Errorf("%s: %d shutdowns without a shutdown action", tc.name, ctrl.Shutdowns)
		}
	}
}

func TestOverheadModel(t *testing.T) {
	m := DefaultOverheads()
	if m.Interception != time.Microsecond {
		t.Errorf("interception = %v, want 1µs (Table IV)", m.Interception)
	}
	c2 := m.PPACost(2)
	c8 := m.PPACost(8)
	if c8 <= c2 {
		t.Error("PPA cost must grow with pattern size")
	}
	// Before any pattern is frozen the PPA is charged as for a 2-gram one.
	if m.PPACost(0) != m.PPACost(2) {
		t.Error("PPACost(0) must equal PPACost(2)")
	}
}

// Property: for any valid displacement and gap scale, shutdown actions are
// consistent: 0 < predicted < the longest gap, and stats counters match the
// actions.
func TestActionConsistencyProperty(t *testing.T) {
	f := func(dRaw uint8, gapRaw uint16) bool {
		d := float64(dRaw%20) / 100
		gap := time.Duration(gapRaw%2000+100) * us
		p := MustNew(Config{GT: 20 * us, Displacement: d})
		acts := runIterations(p, 10, gap, gap/2+60*us)
		n := 0
		for _, a := range acts {
			if a.Shutdown {
				n++
				if a.PredictedIdle <= 0 || a.PredictedIdle >= gap {
					return false
				}
			}
		}
		return p.Stats().Shutdowns == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
