package predictor

import "time"

// OverheadModel charges the software costs of the mechanism (the paper's
// Table IV): every intercepted MPI call pays the interception cost (~1 µs,
// the measured cost of interception plus reading the system clock); calls on
// which the full PPA runs additionally pay a cost that grows with the
// current pattern size. The pattern-list lookup is O(1) — uthash in the
// paper, a Go map here — so the list's size costs nothing.
type OverheadModel struct {
	Interception time.Duration // per MPI call
	PPABase      time.Duration // per PPA-invoked call
	PPAPerGram   time.Duration // × current pattern size
}

// DefaultOverheads returns costs calibrated to the paper's Table IV
// (average 16.5 µs per invoked call, ~1 µs interception).
func DefaultOverheads() OverheadModel {
	return OverheadModel{
		Interception: time.Microsecond,
		PPABase:      7 * time.Microsecond,
		PPAPerGram:   2500 * time.Nanosecond,
	}
}

// PPACost returns the modelled cost of one PPA invocation given the current
// pattern size. A pattern size below 2 (no pattern frozen yet; the detector
// finds periods from 2 grams up) is charged as 2.
func (m OverheadModel) PPACost(patternSize int) time.Duration {
	patternSize = max(patternSize, 2)
	return m.PPABase + time.Duration(patternSize)*m.PPAPerGram
}
