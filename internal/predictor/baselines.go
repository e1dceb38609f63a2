package predictor

import "time"

// This file holds the classic idle-time predictors from the dynamic power
// management literature, registered as "lastvalue", "ewma" and "static-gt".
// They share Algorithm 3's safety limit and the grouping threshold GT as an
// eligibility filter with the n-gram mechanism, so a comparison isolates the
// prediction component: same power mode control, different idle estimate.
//
// None of them sets Action.PPAInvoked, so the replay engine charges them
// only the per-call interception overhead — the fair accounting, since they
// do constant work per call.

// baseline carries the state the simple predictors share: inter-call gap
// tracking and the generic prediction-quality accounting (Stats.Predictions
// / Stats.PredHits, resolved against the realized gap at the next call).
type baseline struct {
	cfg Config
	st  Stats

	prevEnd  time.Duration
	haveCall bool

	pendingRaw  time.Duration
	havePending bool
}

// observe records one call, returning the idle gap that preceded it (ok is
// false on the first call, when no gap exists yet) and resolving the hit
// accounting of the previous prediction against the realized gap.
func (b *baseline) observe(start, end time.Duration) (gap time.Duration, ok bool) {
	b.st.Calls++
	if b.haveCall {
		gap = start - b.prevEnd
		if gap < 0 {
			gap = 0
		}
		ok = true
		if b.havePending {
			if b.pendingRaw <= gap {
				b.st.PredHits++
			}
			b.havePending = false
		}
	}
	b.haveCall = true
	b.prevEnd = end
	return gap, ok
}

// predict emits a shutdown action for the raw idle estimate when it clears
// the grouping threshold and the Algorithm 3 safety limit leaves a usable
// window; otherwise it returns the zero Action.
func (b *baseline) predict(raw time.Duration) Action {
	if raw < b.cfg.GT {
		return Action{}
	}
	predicted := b.cfg.predictedIdle(raw)
	if predicted <= 0 {
		return Action{}
	}
	b.st.Shutdowns++
	b.st.PredictedIdle += predicted
	b.st.Predictions++
	b.pendingRaw = raw
	b.havePending = true
	return Action{Shutdown: true, PredictedIdle: predicted}
}

// Flush implements Predictor: a prediction still pending at end of run
// resolves as a hit — no later call arrived early, so the wake timer fired
// undisturbed.
func (b *baseline) Flush() {
	if b.havePending {
		b.st.PredHits++
		b.havePending = false
	}
}

// Stats implements Predictor.
func (b *baseline) Stats() Stats { return b.st }

// lastValue predicts that the gap following the current call equals the last
// gap observed — the simplest history predictor.
type lastValue struct {
	baseline
	last    time.Duration
	haveGap bool
}

func (p *lastValue) OnCall(id EventID, start, end time.Duration) Action {
	if gap, ok := p.observe(start, end); ok {
		p.last, p.haveGap = gap, true
	}
	if !p.haveGap {
		return Action{}
	}
	return p.predict(p.last)
}

// ewmaAlpha is the "ewma" predictor's weight on the newest observed gap.
const ewmaAlpha = 0.5

// ewma predicts the next gap from an exponentially weighted moving average
// of all observed gaps (weight ewmaAlpha on the newest).
type ewma struct {
	baseline
	avg     time.Duration
	haveAvg bool
}

func (p *ewma) OnCall(id EventID, start, end time.Duration) Action {
	if gap, ok := p.observe(start, end); ok {
		if !p.haveAvg {
			p.avg, p.haveAvg = gap, true
		} else {
			p.avg = time.Duration(ewmaAlpha*float64(gap) + (1-ewmaAlpha)*float64(p.avg))
		}
	}
	if !p.haveAvg {
		return Action{}
	}
	return p.predict(p.avg)
}

// staticGT predicts a fixed idle of exactly GT after every call — the
// "always shut down for the threshold" policy. It quantifies what blind
// shutdown costs: inside dense communication bursts every prediction
// overshoots and the run pays a demand wake per call. At the minimum
// GT = 2·Treact the safety limit leaves predicted = Treact·(1−2d), which
// the link power controller rejects as below the useful window (<= Treact)
// for every paper displacement, so there the policy degenerates to doing
// nothing.
type staticGT struct {
	baseline
}

func (p *staticGT) OnCall(id EventID, start, end time.Duration) Action {
	p.observe(start, end)
	return p.predict(p.cfg.GT)
}

func newBaseline(cfg Config) (baseline, error) {
	if err := cfg.Validate(); err != nil {
		return baseline{}, err
	}
	return baseline{cfg: cfg}, nil
}

func init() {
	Register("lastvalue", func(cfg Config) (Predictor, error) {
		b, err := newBaseline(cfg)
		if err != nil {
			return nil, err
		}
		return &lastValue{baseline: b}, nil
	})
	Register("ewma", func(cfg Config) (Predictor, error) {
		b, err := newBaseline(cfg)
		if err != nil {
			return nil, err
		}
		return &ewma{baseline: b}, nil
	})
	Register("static-gt", func(cfg Config) (Predictor, error) {
		b, err := newBaseline(cfg)
		if err != nil {
			return nil, err
		}
		return &staticGT{baseline: b}, nil
	})
}
