package multijob

import (
	"math"
	"time"
)

// FaultKind classifies which fabric entity a fault event touches.
type FaultKind uint8

// Fault targets. Link faults take out a switch-to-switch cable (routing
// detours, no job dies); switch faults down the switch and every terminal it
// hosts; terminal faults down one terminal and its host cable. Switch and
// terminal faults kill the jobs running on the affected terminals.
const (
	FaultLink FaultKind = iota
	FaultSwitch
	FaultTerminal
)

// String names the fault kind as it appears in specs and output.
func (k FaultKind) String() string {
	switch k {
	case FaultLink:
		return "link"
	case FaultSwitch:
		return "switch"
	case FaultTerminal:
		return "term"
	}
	return "unknown"
}

// FaultEvent is one hardware state change on the simulated timeline. Index
// identifies the entity per kind: a directed LinkID (even, the cable) for
// FaultLink, a switch node ID for FaultSwitch, a terminal index for
// FaultTerminal. Repair events restore what the paired failure took down.
type FaultEvent struct {
	At     time.Duration
	Kind   FaultKind
	Repair bool
	Index  int32
}

// FaultSource is a lazily generated, time-ordered fault event stream.
// RunChurn peeks the next event to fold it into its event loop and pops it
// once processed. Implementations must be deterministic (seeded) and emit
// events in non-decreasing At order; the scenario package's FaultStream is
// the standard implementation.
type FaultSource interface {
	// Peek returns the next event without consuming it; ok is false once
	// the stream is exhausted.
	Peek() (ev FaultEvent, ok bool)
	// Pop consumes and returns the next event.
	Pop() FaultEvent
	// RepairPending reports whether any repair event is still to come —
	// while true, waiting jobs may yet become schedulable, so a stuck
	// queue must keep waiting instead of being abandoned.
	RepairPending() bool
}

// RetryPolicy governs what happens to a job killed by a fault: it is
// requeued after an exponential backoff in simulated time until it has been
// killed MaxRetries+1 times, after which it is abandoned (reported, never
// silently dropped).
type RetryPolicy struct {
	MaxRetries int           // retries after the first kill; 0 = abandon on first kill
	Backoff    time.Duration // delay before retry k is Backoff << (k-1)
}

// maxBackoffShift caps the exponential: Delay stops growing at Backoff << 16.
// The cap alone cannot stop a Backoff above about 39 h from overflowing into
// a negative delay; RunChurn rejects any Backoff above maxBackoff.
const maxBackoffShift = 16

// maxBackoff is the largest Backoff RunChurn accepts: its longest delay takes
// at most half of time.Duration's range, leaving the rest for the scenario
// time it is added to.
const maxBackoff = time.Duration(math.MaxInt64 >> (maxBackoffShift + 1))

// Delay returns the requeue delay before retry attempt k (1-based).
func (p RetryPolicy) Delay(k int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	shift := k - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	return p.Backoff << uint(shift)
}
