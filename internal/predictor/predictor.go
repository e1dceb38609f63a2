// Package predictor assembles the paper's power saving mechanism for one MPI
// process: the pattern prediction component (gram formation + PPA,
// internal/ngram) and the power mode control component (Algorithm 3), which
// converts a predicted idle interval into a WRPS turn-off-lanes command with
// a displacement-factor safety margin.
//
// The package is organised around the Predictor interface and a named
// registry (registry.go): the paper's n-gram mechanism registers as "ngram"
// (the default) next to the clairvoyant "oracle", the trace-trained
// "offline" profile, and the "lastvalue", "ewma" and "static-gt" baselines
// from the dynamic power management literature, so every harness experiment
// can swap the prediction component while keeping Algorithm 3 and the link
// power controller fixed.
//
// A predictor is driven from the PMPI layer (or the replay simulator): it
// observes every MPI call of its process and, when it expects a sufficiently
// long idle interval to follow, emits a shutdown action:
//
//	safetyLimit       = idleTime*displacement + Treact
//	predictedIdleTime = idleTime - safetyLimit
//
// so that the lanes are back up idleTime*displacement before the next
// communication is expected (Figure 4).
package predictor

import (
	"fmt"
	"time"

	"ibpower/internal/ngram"
	"ibpower/internal/power"
	"ibpower/internal/trace"
)

// EventID aliases the detector's event identifier (an MPI call ID).
type EventID = ngram.EventID

// Config parameterises the mechanism.
type Config struct {
	// GT is the grouping threshold for gram formation; it must be at least
	// 2·Treact (Section IV-C).
	GT time.Duration
	// Displacement is the displacement factor (0.01, 0.05, 0.10 in the
	// paper's evaluation).
	Displacement float64
	// Treact is the lane (de)activation time; <= 0 selects power.Treact.
	Treact time.Duration
}

// Validate checks the configuration against the paper's constraints.
func (c Config) Validate() error {
	treact := c.Treact
	if treact <= 0 {
		treact = power.Treact
	}
	if c.GT < 2*treact {
		return fmt.Errorf("predictor: GT %v below minimum 2*Treact = %v", c.GT, 2*treact)
	}
	if c.Displacement < 0 || c.Displacement >= 1 {
		return fmt.Errorf("predictor: displacement factor %v outside [0,1)", c.Displacement)
	}
	return nil
}

func (c Config) treact() time.Duration {
	if c.Treact <= 0 {
		return power.Treact
	}
	return c.Treact
}

// predictedIdle applies the Algorithm 3 safety limit to a raw idle estimate:
// predicted = raw - (raw*displacement + Treact). A result <= 0 means the
// safety margin consumes the whole window and no shutdown should be issued.
func (c Config) predictedIdle(raw time.Duration) time.Duration {
	return raw - time.Duration(float64(raw)*c.Displacement) - c.treact()
}

// Action is the outcome of observing one MPI call.
type Action struct {
	// Shutdown directs the caller to issue a turn-off-lanes command when the
	// call completes.
	Shutdown bool
	// PredictedIdle is the duration to program into the link power
	// controller's wake timer (already reduced by the safety limit).
	PredictedIdle time.Duration
	// PPAInvoked reports that the full pattern prediction algorithm ran on
	// this call (used for the Table IV overhead accounting).
	PPAInvoked bool
}

// Exit ends one intercepted MPI call occupying [start, end] (Algorithm 3):
// p observes the call, a PPA invocation costs ov's modelled overhead, and a
// shutdown arms ctrl's wake timer once that cost is paid. It returns the
// time the call hands back to the application. The replay engine, the
// offline runner and the PMPI layer end every call here; the PMPI layer
// passes a zero model because its costs are real wall time.
func Exit(p Predictor, ctrl *power.Controller, ov OverheadModel, call trace.CallID, start, end time.Duration) (time.Duration, Action) {
	act := p.OnCall(EventID(call), start, end)
	// Beyond the interception the caller already paid, a call costs only
	// when the PPA ran.
	if act.PPAInvoked {
		end += ov.PPACost(frozenSize(p))
	}
	if act.Shutdown {
		ctrl.Shutdown(end, act.PredictedIdle)
	}
	return end, act
}

// frozenSize returns p's Stats().Detector.MaxPatternFrozen, reading the
// n-gram detector directly instead of copying a Stats value on every PPA
// invocation.
func frozenSize(p Predictor) int {
	if n, ok := p.(*NGram); ok {
		return n.detector.FrozenSize()
	}
	return p.Stats().Detector.MaxPatternFrozen
}

// HitCounts returns the cumulative counts behind p's hit rate, in
// HitRatePct's order: the MPI calls inside correctly predicted grams and
// inside all grams when the detector saw any (the n-gram mechanism, read
// without copying a Stats value), else the emitted predictions that hit and
// all emitted predictions (the baselines). Replay telemetry samples their
// per-call deltas.
func HitCounts(p Predictor) (hits, total int) {
	if n, ok := p.(*NGram); ok {
		return n.detector.CallCounts()
	}
	st := p.Stats()
	if st.Detector.TotalCalls > 0 {
		return st.Detector.PredictedCalls, st.Detector.TotalCalls
	}
	return st.PredHits, st.Predictions
}

// Stats aggregates mechanism behaviour over a process lifetime.
type Stats struct {
	Calls          int           // MPI calls observed
	PPAInvocations int           // calls on which the full PPA ran
	Shutdowns      int           // shutdown actions emitted
	PredictedIdle  time.Duration // total low-power time programmed into wake timers
	Detector       ngram.DetectorStats

	// Predictions and PredHits account the baseline predictors' quality:
	// every emitted shutdown prediction counts once, and it counts as a hit
	// when the realized gap before the next call was at least the predicted
	// raw idle (so the wake timer fired before communication resumed). The
	// n-gram mechanism reports the paper's detector-based rate instead and
	// leaves these zero.
	Predictions int
	PredHits    int
}

// HitRatePct returns the predictor's correct-prediction rate in percent. For
// the n-gram mechanism this is the percentage of MPI calls that belonged to
// correctly predicted grams (Table III's "MPI call hit rate"); for the
// baseline predictors it is the fraction of emitted predictions whose
// predicted idle did not overshoot the realized gap.
func (s Stats) HitRatePct() float64 {
	if s.Detector.TotalCalls > 0 {
		return 100 * float64(s.Detector.PredictedCalls) / float64(s.Detector.TotalCalls)
	}
	if s.Predictions > 0 {
		return 100 * float64(s.PredHits) / float64(s.Predictions)
	}
	return 0
}

// NGram is the paper's per-process mechanism instance: gram formation
// (Algorithm 1), the n-gram PPA (Algorithm 2) and the displacement-factor
// power mode control (Algorithm 3). It registers as "ngram", the registry
// default.
type NGram struct {
	cfg      Config
	builder  *ngram.Builder
	detector *ngram.Detector

	prevEnd  time.Duration
	haveCall bool
	calls    int
	ppaCalls int
	shuts    int
	predIdle time.Duration
}

var _ Predictor = (*NGram)(nil)

// New returns the n-gram PPA predictor for one MPI process.
func New(cfg Config) (*NGram, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NGram{
		cfg:      cfg,
		builder:  ngram.NewBuilder(cfg.GT),
		detector: ngram.NewDetector(),
	}, nil
}

// Reuse returns prev reset in place to the state New(cfg) builds when name
// selects the n-gram mechanism and prev is an n-gram predictor, keeping its
// gram builder's and detector's storage (ngram.Detector.Reset). Otherwise it
// returns nil and the caller builds a new instance. cfg must be valid. The
// offline grid's workers and the replay engine's recycled ranks reuse their
// predictors through it.
func Reuse(prev Predictor, name string, cfg Config) Predictor {
	p, ok := prev.(*NGram)
	if !ok || Resolve(name) != DefaultName {
		return nil
	}
	p.builder.Reset(cfg.GT)
	p.detector.Reset()
	*p = NGram{cfg: cfg, builder: p.builder, detector: p.detector}
	return p
}

// MustNew is New, panicking on configuration errors (for tests/benchmarks).
func MustNew(cfg Config) *NGram {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Predicting reports whether the power mode control component is active.
func (p *NGram) Predicting() bool { return p.detector.Predicting() }

// Stats returns a snapshot of mechanism statistics.
func (p *NGram) Stats() Stats {
	return Stats{
		Calls:          p.calls,
		PPAInvocations: p.ppaCalls,
		Shutdowns:      p.shuts,
		PredictedIdle:  p.predIdle,
		Detector:       p.detector.Stats(),
	}
}

// OnCall observes one intercepted MPI call occupying [start, end] and
// returns the action to take when the call returns. Calls must be fed in
// non-decreasing start order.
func (p *NGram) OnCall(id ngram.EventID, start, end time.Duration) Action {
	var act Action
	p.calls++

	idle := time.Duration(0)
	if p.haveCall {
		idle = start - p.prevEnd
		if idle < 0 {
			idle = 0
		}
	}
	p.haveCall = true
	p.prevEnd = end

	// Pattern prediction component: form grams (Algorithm 1); each
	// finalized gram feeds the PPA (Algorithm 2). While a pattern is being
	// predicted the PPA core is mostly disabled and only the timing
	// estimates are refreshed, which AddGram handles internally.
	wasPredicting := p.detector.Predicting()
	if g := p.builder.Add(id, idle); g != nil {
		p.detector.AddGram(g)
		if !wasPredicting || !p.detector.Predicting() {
			// Full PPA work happened on this call.
			act.PPAInvoked = true
			p.ppaCalls++
		}
	}

	// Power mode control component (Algorithm 3): if prediction is enabled
	// and the group of current MPI calls matches the predicted gram in size
	// and content, shift the link to low-power mode for the predicted
	// interval less the safety limit.
	if exp, ok := p.detector.Expected(); ok {
		cur := p.builder.Current() // read-only view; no per-call copy
		if string(cur) == exp {
			idleTime := p.detector.PredictedGapAfterExpected()
			if idleTime > 0 {
				predicted := p.cfg.predictedIdle(idleTime)
				if predicted > 0 {
					act.Shutdown = true
					act.PredictedIdle = predicted
					p.shuts++
					p.predIdle += predicted
				}
			}
		}
	}
	return act
}

// Flush finalizes the gram under construction at end of run, feeding it to
// the detector so the counters include the trailing gram. (No action
// results.)
func (p *NGram) Flush() {
	if g := p.builder.Flush(); g != nil {
		p.detector.AddGram(g)
	}
}
