// Package power models InfiniBand link power management with Width Reduction
// Power Saving (WRPS): shutting down three of the four lanes of a 4X link
// while one lane stays active, preserving connectivity (Section II-A of the
// paper).
//
// The model follows the paper's assumptions:
//
//   - Lane activation and deactivation each take Treact (up to 10 µs).
//   - While a port runs in low-power (1X) mode, the switch consumes 43 % of
//     its nominal power (Mellanox SX6036 WRPS figure); hence the maximum
//     saving while low is 57 %.
//   - During mode shifts the consumed power equals full-power consumption.
package power

import "time"

// Constants from the paper.
const (
	// Treact is the time to activate or deactivate the inactive lanes of a
	// link (Section II: state changes "could take up to 10 microseconds").
	Treact = 10 * time.Microsecond

	// LowPowerFraction is the power drawn in low-power (1X) mode relative to
	// nominal full (4X) power: the Mellanox SX6036 consumes 43 % of nominal
	// with WRPS engaged (Section II-A).
	LowPowerFraction = 0.43

	// LinkShareOfSwitch is the fraction of switch power consumed by links
	// (64 % in an IBM InfiniBand 8-port 12X switch; Section I).
	LinkShareOfSwitch = 0.64

	// FullWidthLanes and LowWidthLanes are the lane counts of a 4X link in
	// full and WRPS mode.
	FullWidthLanes = 4
	LowWidthLanes  = 1

	// FullBandwidth is the 4X QDR data rate (40 Gb/s); WRPS reduces the port
	// to 1X QDR (10 Gb/s).
	FullBandwidthBitsPerSec = 40e9
	LowBandwidthBitsPerSec  = 10e9
)

// MaxSavingFraction is the largest achievable switch power saving: spending
// 100 % of the time in low-power mode saves 1 - LowPowerFraction.
const MaxSavingFraction = 1 - LowPowerFraction

// Mode is a link power mode.
type Mode uint8

// Link power modes.
const (
	ModeFull Mode = iota // all four lanes active, power-unaware consumption
	ModeLow              // one lane active (WRPS engaged)
	ModeDown             // lanes deactivating (shift; full power charged)
	ModeUp               // lanes reactivating (shift; full power charged)
	ModeDeep             // lanes + switch elements down (Section VI scenario)
)

// String returns a short mode label.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeLow:
		return "low"
	case ModeDown:
		return "shift-down"
	case ModeUp:
		return "shift-up"
	case ModeDeep:
		return "deep"
	}
	return "?"
}

// Accounting accumulates time per power mode for one link.
type Accounting struct {
	Full  time.Duration
	Low   time.Duration
	Shift time.Duration // both shift directions; charged at full power
	Deep  time.Duration // deep mode (only with EnableDeep)

	// DeepFraction is the deep-mode draw used for this accounting; zero
	// means the deep mode was never enabled.
	DeepFraction float64
}

// Total returns the accounted wall time.
func (a Accounting) Total() time.Duration { return a.Full + a.Low + a.Shift + a.Deep }

// LowFraction returns the fraction of time spent in low-power mode.
func (a Accounting) LowFraction() float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return float64(a.Low) / float64(t)
}

// SavingPct returns the switch power saving in percent relative to the
// power-unaware always-on baseline: time at 43 % power in WRPS mode plus
// time at the deep fraction in deep mode.
func (a Accounting) SavingPct() float64 {
	return (1 - a.MeanPowerFraction()) * 100
}

// MeanPowerFraction returns average power relative to nominal.
func (a Accounting) MeanPowerFraction() float64 {
	t := a.Total()
	if t == 0 {
		return 1
	}
	df := a.DeepFraction
	if df <= 0 {
		df = DeepPowerFraction
	}
	full := float64(a.Full+a.Shift) + float64(a.Low)*LowPowerFraction + float64(a.Deep)*df
	return full / float64(t)
}

// Energy returns consumed energy in joules given the nominal link power in
// watts.
func (a Accounting) Energy(nominalWatts float64) float64 {
	return nominalWatts * a.MeanPowerFraction() * a.Total().Seconds()
}
