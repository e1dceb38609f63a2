// Package dvs implements the related-work baseline the paper contrasts
// against (Section V, Shang et al. HPCA 2003): history-based dynamic
// voltage/frequency scaling of links. Instead of turning lanes off, the
// link's frequency is lowered when recent utilization is low; reactivation
// is fast (~100 ns re-lock) but the power saving potential is much lower
// because the static share of link power remains (Section I: "with a cost
// of much lower power saving potential").
//
// The policy is evaluated per process host link over the same traces the
// WRPS mechanism consumes: utilization is measured per fixed window, an
// exponentially weighted moving average predicts the next window, and the
// lowest frequency level whose capacity covers the predicted demand (with
// headroom) is selected. Messages serialized at reduced frequency take
// proportionally longer; that excess is the baseline's performance cost.
package dvs

import (
	"fmt"
	"time"

	"ibpower/internal/trace"
)

// level is one operating point of the link.
type level struct {
	freq          float64 // relative frequency/bandwidth (1.0 = 40 Gb/s)
	powerFraction float64 // power relative to nominal at this level
}

// levels returns the link's operating points, ascending by frequency. They
// model a SerDes whose dynamic power scales with frequency over a 55 %
// static floor: P(f) = 0.55 + 0.45·f. The quarter-rate point then draws
// 66 % of nominal — compare WRPS's 43 % — which encodes the paper's
// observation that DVS has much lower saving potential.
func levels() [4]level {
	return [4]level{
		{freq: 0.25, powerFraction: 0.55 + 0.45*0.25},
		{freq: 0.50, powerFraction: 0.55 + 0.45*0.50},
		{freq: 0.75, powerFraction: 0.55 + 0.45*0.75},
		{freq: 1.00, powerFraction: 1.0},
	}
}

// The history-based policy's parameters.
const (
	window   = 100 * time.Microsecond // utilization accounting window
	ewma     = 0.5                    // history weight on the previous estimate
	headroom = 0.5                    // capacity margin: need freq >= util/headroom
	// relock is the frequency-change penalty (~100 ns).
	relock = 100 * time.Nanosecond
	// bytesPerNS is the full-rate link speed, 40 Gb/s.
	bytesPerNS = 40e9 / 8 / 1e9
)

// RankResult is the policy outcome for one process host link.
type RankResult struct {
	Windows     int
	MeanPower   float64       // mean power fraction over windows
	AddedSerial time.Duration // extra serialization from reduced rates
}

// SavingPct returns the link power saving relative to always-full-rate.
func (r RankResult) SavingPct() float64 { return (1 - r.MeanPower) * 100 }

// Result aggregates all ranks.
type Result struct {
	PerRank []RankResult
}

// AvgSavingPct averages link power savings over ranks.
func (r *Result) AvgSavingPct() float64 {
	if len(r.PerRank) == 0 {
		return 0
	}
	s := 0.0
	for _, rr := range r.PerRank {
		s += rr.SavingPct()
	}
	return s / float64(len(r.PerRank))
}

// AvgAddedSerial averages the serialization penalty over ranks.
func (r *Result) AvgAddedSerial() time.Duration {
	if len(r.PerRank) == 0 {
		return 0
	}
	var s time.Duration
	for _, rr := range r.PerRank {
		s += rr.AddedSerial
	}
	return s / time.Duration(len(r.PerRank))
}

// Evaluate runs the history-based DVS policy over every rank of the trace,
// reading each rank once through a cursor.
func Evaluate(src trace.Source) (*Result, error) { return evaluate(src, relock) }

// evaluate is Evaluate charging relock per frequency change.
func evaluate(src trace.Source, relock time.Duration) (*Result, error) {
	if err := trace.ValidateSource(src); err != nil {
		return nil, err
	}
	m := src.Meta()
	res := &Result{PerRank: make([]RankResult, m.NP)}
	for r := 0; r < m.NP; r++ {
		var err error
		if res.PerRank[r], err = evalRank(src.Open(r), r, m.NP, relock); err != nil {
			return nil, fmt.Errorf("dvs: %s np=%d rank %d: %w", m.App, m.NP, r, err)
		}
	}
	return res, nil
}

// injectedBytes returns the bytes rank r of an np-rank job pushes into its
// host link for one call: the sum over the send parts of the call's
// trace.Steps, the schedule the replay engine charges for.
func injectedBytes(op trace.Op, r, np int) int {
	var buf [16]trace.Step
	n := 0
	for _, st := range trace.Steps(buf[:0], op, r, np) {
		if st.Send >= 0 {
			n += st.Bytes
		}
	}
	return n
}

func evalRank(c trace.Cursor, r, np int, relock time.Duration) (RankResult, error) {
	var out RankResult
	lv := levels()
	full := lv[len(lv)-1]
	cur := full

	var t time.Duration
	winEnd := window
	winBytes := 0
	estimate := 0.0
	var powerSum float64

	closeWindow := func() {
		serNS := float64(winBytes) / bytesPerNS
		util := serNS / float64(window)
		if util > 1 {
			util = 1
		}
		estimate = ewma*estimate + (1-ewma)*util
		// Actual demand served at the level chosen BEFORE this window.
		out.AddedSerial += time.Duration(serNS * (1/cur.freq - 1))
		powerSum += cur.powerFraction
		out.Windows++
		// Pick the level for the next window from the history estimate.
		next := full
		for _, l := range lv {
			if l.freq >= estimate/headroom {
				next = l
				break
			}
		}
		if next != cur {
			out.AddedSerial += relock
		}
		cur = next
		winBytes = 0
		winEnd += window
	}

	for op, ok := c.Next(); ok; op, ok = c.Next() {
		switch op.Kind {
		case trace.OpCompute:
			t += op.Duration
			for t >= winEnd {
				closeWindow()
			}
		case trace.OpCall:
			winBytes += injectedBytes(op, r, np)
		}
	}
	if err := c.Err(); err != nil {
		return out, err
	}
	if winBytes > 0 || out.Windows == 0 {
		closeWindow()
	}
	if out.Windows > 0 {
		out.MeanPower = powerSum / float64(out.Windows)
	} else {
		out.MeanPower = 1
	}
	return out, nil
}
