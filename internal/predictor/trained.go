package predictor

import (
	"time"

	"ibpower/internal/trace"
)

// This file holds the two trace-primed predictors, registered as "oracle"
// and "offline". Both are primers: the harness hands them the rank's call
// stream before the run. They bound the design space from above — the
// oracle knows every future gap exactly, the offline profile is the best a
// per-call-type trained table can do — while the baselines in baselines.go
// bound it from below. Unprimed (e.g. inside the live PMPI layer, which has
// no trace) they never predict.

// oraclePred is the clairvoyant upper bound: primed with the rank's call
// stream, it knows the exact computation gap following every call and
// predicts it, so with Algorithm 3's safety margin applied no demand wake is
// ever triggered by the rank's own next call.
type oraclePred struct {
	baseline
	calls []trace.CallGap
	tail  time.Duration
	k     int
}

func (p *oraclePred) prime(calls []trace.CallGap, tail time.Duration) {
	p.calls, p.tail, p.k = calls, tail, 0
}

func (p *oraclePred) OnCall(id EventID, start, end time.Duration) Action {
	p.observe(start, end)
	k := p.k
	p.k++
	if k >= len(p.calls) {
		return Action{}
	}
	return p.predict(gapAfter(p.calls, p.tail, k))
}

// profilePred is the offline-trained predictor: primed with the rank's call
// stream, it tabulates the mean computation gap that follows each MPI call
// type and predicts that mean whenever the type recurs. It is what a
// profile-guided deployment (train on one run, predict on the next) would
// achieve, without the PPA's per-instance pattern tracking.
type profilePred struct {
	baseline
	mean map[EventID]time.Duration
}

func (p *profilePred) prime(calls []trace.CallGap, tail time.Duration) {
	sum := make(map[EventID]time.Duration)
	cnt := make(map[EventID]int)
	for k, c := range calls {
		sum[EventID(c.Call)] += gapAfter(calls, tail, k)
		cnt[EventID(c.Call)]++
	}
	p.mean = make(map[EventID]time.Duration, len(sum))
	for id, s := range sum {
		p.mean[id] = s / time.Duration(cnt[id])
	}
}

func (p *profilePred) OnCall(id EventID, start, end time.Duration) Action {
	p.observe(start, end)
	// An unknown id (unprimed predictor) yields a zero mean, which the
	// grouping threshold filters out.
	return p.predict(p.mean[id])
}

// gapAfter returns the computation that follows call k of a rank's call
// stream: the next call's gap, or the trailing computation after the last.
func gapAfter(calls []trace.CallGap, tail time.Duration, k int) time.Duration {
	if k+1 < len(calls) {
		return calls[k+1].Gap
	}
	return tail
}

func init() {
	Register("oracle", func(cfg Config) (Predictor, error) {
		b, err := newBaseline(cfg)
		if err != nil {
			return nil, err
		}
		return &oraclePred{baseline: b}, nil
	})
	Register("offline", func(cfg Config) (Predictor, error) {
		b, err := newBaseline(cfg)
		if err != nil {
			return nil, err
		}
		return &profilePred{baseline: b}, nil
	})
}
