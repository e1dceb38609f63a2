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

// Level is one operating point of the link.
type Level struct {
	Freq          float64 // relative frequency/bandwidth (1.0 = 40 Gb/s)
	PowerFraction float64 // power relative to nominal at this level
}

// DefaultLevels models a SerDes whose dynamic power scales with frequency
// over a 55 % static floor: P(f) = 0.55 + 0.45·f. The quarter-rate point
// then draws 66 % of nominal — compare WRPS's 43 % — which encodes the
// paper's observation that DVS has much lower saving potential.
func DefaultLevels() []Level {
	return []Level{
		{Freq: 0.25, PowerFraction: 0.55 + 0.45*0.25},
		{Freq: 0.50, PowerFraction: 0.55 + 0.45*0.50},
		{Freq: 0.75, PowerFraction: 0.55 + 0.45*0.75},
		{Freq: 1.00, PowerFraction: 1.0},
	}
}

// Config parameterises the history-based policy.
type Config struct {
	Window   time.Duration // utilization accounting window
	Levels   []Level       // ascending by Freq
	EWMA     float64       // history weight on the previous estimate (0..1)
	Headroom float64       // capacity margin: need Freq >= util/Headroom
	Relock   time.Duration // frequency-change penalty (~100 ns)

	BandwidthBitsPerSec float64 // full-rate link speed
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		Window:              100 * time.Microsecond,
		Levels:              DefaultLevels(),
		EWMA:                0.5,
		Headroom:            0.5,
		Relock:              100 * time.Nanosecond,
		BandwidthBitsPerSec: 40e9,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("dvs: non-positive window")
	}
	if len(c.Levels) == 0 {
		return fmt.Errorf("dvs: no levels")
	}
	for i := 1; i < len(c.Levels); i++ {
		if c.Levels[i].Freq <= c.Levels[i-1].Freq {
			return fmt.Errorf("dvs: levels must ascend by frequency")
		}
	}
	if c.Levels[len(c.Levels)-1].Freq != 1.0 {
		return fmt.Errorf("dvs: top level must be full rate")
	}
	if c.EWMA < 0 || c.EWMA >= 1 {
		return fmt.Errorf("dvs: EWMA weight %v outside [0,1)", c.EWMA)
	}
	if c.Headroom <= 0 || c.Headroom > 1 {
		return fmt.Errorf("dvs: headroom %v outside (0,1]", c.Headroom)
	}
	if c.BandwidthBitsPerSec <= 0 {
		return fmt.Errorf("dvs: non-positive bandwidth")
	}
	return nil
}

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
func Evaluate(src trace.Source, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := trace.ValidateSource(src); err != nil {
		return nil, err
	}
	m := src.Meta()
	res := &Result{PerRank: make([]RankResult, m.NP)}
	for r := 0; r < m.NP; r++ {
		var err error
		if res.PerRank[r], err = evalRank(src.Open(r), r, m.NP, cfg); err != nil {
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

func evalRank(c trace.Cursor, r, np int, cfg Config) (RankResult, error) {
	var out RankResult
	full := cfg.Levels[len(cfg.Levels)-1]
	cur := full
	bytesPerNS := cfg.BandwidthBitsPerSec / 8 / 1e9

	var t time.Duration
	winEnd := cfg.Window
	winBytes := 0
	estimate := 0.0
	var powerSum float64

	closeWindow := func() {
		serNS := float64(winBytes) / bytesPerNS
		util := serNS / float64(cfg.Window)
		if util > 1 {
			util = 1
		}
		estimate = cfg.EWMA*estimate + (1-cfg.EWMA)*util
		// Actual demand served at the level chosen BEFORE this window.
		out.AddedSerial += time.Duration(serNS * (1/cur.Freq - 1))
		powerSum += cur.PowerFraction
		out.Windows++
		// Pick the level for the next window from the history estimate.
		next := full
		for _, l := range cfg.Levels {
			if l.Freq >= estimate/cfg.Headroom {
				next = l
				break
			}
		}
		if next != cur {
			out.AddedSerial += cfg.Relock
		}
		cur = next
		winBytes = 0
		winEnd += cfg.Window
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
