package power

import (
	"fmt"
	"time"

	"ibpower/internal/trace"
)

// Controller is the link power controller on the HCA (Figure 5 of the
// paper): it executes turn-off-lanes commands, arms the hardware wake timer
// with the predicted idle duration, and reactivates lanes when the timer
// elapses — or on demand, paying up to Treact of delay, when communication
// arrives before the lanes are back.
//
// Management is one-directional: predicted durations are supplied to the
// controller; no feedback is required by the prediction side (Section III-B).
type Controller struct {
	treact time.Duration

	// Deep mode (EnableDeep): predicted idles above deepMinIdle also power
	// down switch elements; waking those takes deepTreact.
	deep         bool
	deepTreact   time.Duration
	deepMinIdle  time.Duration
	deepFraction float64
	deepCycle    bool // the current shutdown cycle targets deep mode

	mode      Mode
	modeSince time.Duration // when the current mode was entered
	timerFire time.Duration // absolute wake-timer time (ModeLow/ModeDeep)
	shiftEnd  time.Duration // absolute end of the current shift (ModeDown/Up)

	acct     Accounting
	timeline *trace.Timeline // optional state timeline recording
	observe  func(m Mode, from, to time.Duration)
	closed   bool

	// Counters.
	Shutdowns   int           // accepted turn-off-lanes commands
	TimerWakes  int           // reactivations triggered by the timer
	DemandWakes int           // reactivations forced by early communication
	TotalDelay  time.Duration // time communications waited for the link
}

// NewController returns a controller for a link that starts in full-power
// mode at time 0. treact <= 0 selects the paper's Treact.
func NewController(treact time.Duration) *Controller {
	return NewControllerAt(treact, 0)
}

// NewControllerAt returns a controller whose accounting window opens at
// start instead of time 0: the link is in full-power mode and no time before
// start is ever accounted. Jobs admitted mid-timeline onto a shared fabric
// use this so their energy numbers span exactly their own lifetime.
func NewControllerAt(treact, start time.Duration) *Controller {
	c := &Controller{}
	c.ResetAt(treact, start)
	return c
}

// ResetAt returns c to the state NewControllerAt(treact, start) builds, so
// one controller can serve a sequence of jobs: deep mode, the observer and
// the timeline are detached, and accounting and counters start at zero.
func (c *Controller) ResetAt(treact, start time.Duration) {
	if treact <= 0 {
		treact = Treact
	}
	*c = Controller{treact: treact, mode: ModeFull, modeSince: start}
}

// RecordTimeline attaches a timeline that receives state intervals.
func (c *Controller) RecordTimeline(label string) *trace.Timeline {
	c.timeline = &trace.Timeline{Label: label}
	return c.timeline
}

// Timeline returns the attached timeline, or nil.
func (c *Controller) Timeline() *trace.Timeline { return c.timeline }

// Observe attaches fn to receive every closed mode interval [from, to) as
// accounting advances, in time order. Unlike RecordTimeline nothing is
// stored, so streaming consumers (telemetry time series) can watch
// arbitrarily long runs; fn must not allocate if the replay hot path is to
// stay allocation-free.
func (c *Controller) Observe(fn func(m Mode, from, to time.Duration)) { c.observe = fn }

// Mode returns the power mode at time t (t must be >= the last event time).
func (c *Controller) Mode(t time.Duration) Mode {
	c.catchUp(t)
	return c.mode
}

// Accounting returns accumulated per-mode times up to the last event.
func (c *Controller) Accounting() Accounting { return c.acct }

// catchUp advances internal mode transitions that complete before t without
// consuming t itself.
func (c *Controller) catchUp(t time.Duration) {
	for {
		switch c.mode {
		case ModeDown:
			if t < c.shiftEnd {
				return
			}
			if c.deepCycle {
				c.account(c.shiftEnd, ModeDeep)
			} else {
				c.account(c.shiftEnd, ModeLow)
			}
		case ModeLow:
			if t < c.timerFire {
				return
			}
			c.account(c.timerFire, ModeUp)
			c.shiftEnd = c.timerFire + c.treact
			c.TimerWakes++
		case ModeDeep:
			// The wake timer is programmed deepTreact early so that the
			// switch elements are back together with the lanes.
			if t < c.timerFire {
				return
			}
			c.account(c.timerFire, ModeUp)
			c.shiftEnd = c.timerFire + c.deepTreact
			c.TimerWakes++
		case ModeUp:
			if t < c.shiftEnd {
				return
			}
			c.account(c.shiftEnd, ModeFull)
		default:
			return
		}
	}
}

// account closes the current mode interval at time t and enters next.
func (c *Controller) account(t time.Duration, next Mode) {
	if t < c.modeSince {
		panic(fmt.Sprintf("power: time going backwards: %v < %v", t, c.modeSince))
	}
	d := t - c.modeSince
	var s trace.LinkState
	switch c.mode {
	case ModeFull:
		c.acct.Full += d
		s = trace.StateFull
	case ModeLow:
		c.acct.Low += d
		s = trace.StateLow
	case ModeDeep:
		c.acct.Deep += d
		s = trace.StateDeep
	default:
		c.acct.Shift += d
		s = trace.StateShift
	}
	if c.timeline != nil && d > 0 {
		c.timeline.Add(c.modeSince, t, s)
	}
	if c.observe != nil && d > 0 {
		c.observe(c.mode, c.modeSince, t)
	}
	c.mode = next
	c.modeSince = t
}

// Shutdown executes a turn-off-lanes command at time t with the predicted
// idle duration (the WRPS method of Algorithm 3). The wake timer is armed at
// t and fires after predictedIdle, whereupon reactivation begins and
// completes Treact later. Commands are ignored when the link is not in
// full-power mode or when predictedIdle leaves no useful low-power window.
func (c *Controller) Shutdown(t, predictedIdle time.Duration) bool {
	c.catchUp(t)
	if c.mode != ModeFull || t < c.modeSince {
		return false
	}
	// The lanes spend Treact deactivating; a window that ends before the
	// deactivation completes would never reach low-power mode.
	if predictedIdle <= c.treact {
		return false
	}
	c.deepCycle = c.deep && predictedIdle > c.deepMinIdle && predictedIdle > c.deepTreact
	c.account(t, ModeDown)
	c.shiftEnd = t + c.treact
	if c.deepCycle {
		// Lanes must be fully up at t + predictedIdle + Treact, same as the
		// plain WRPS contract; the deep wake starts deepTreact before that.
		c.timerFire = t + predictedIdle + c.treact - c.deepTreact
		if c.timerFire < c.shiftEnd {
			c.timerFire = c.shiftEnd
		}
		c.acct.DeepFraction = c.deepFraction
	} else {
		c.timerFire = t + predictedIdle
	}
	c.Shutdowns++
	return true
}

// Acquire reports when a communication arriving at time t can use the link.
// If lanes are down or still waking, reactivation is forced immediately
// (demand wake) and the returned time reflects the remaining penalty, which
// never exceeds Treact (Section IV-D: "The penalty could be full or smaller
// than reactivation time depending whether the reactivation has been
// previously started but still the communication is not ready on time").
func (c *Controller) Acquire(t time.Duration) time.Duration {
	c.catchUp(t)
	switch c.mode {
	case ModeFull:
		// A prior demand wake may have advanced the mode boundary past t;
		// the link is usable only once that boundary is reached.
		if t < c.modeSince {
			c.delayed(t, c.modeSince)
			return c.modeSince
		}
		return t
	case ModeDown:
		// Deactivation must complete before lanes can be re-enabled.
		ready := c.shiftEnd + c.treact
		c.account(c.shiftEnd, ModeUp)
		c.shiftEnd = ready
		c.account(ready, ModeFull)
		c.deepCycle = false
		c.DemandWakes++
		c.delayed(t, ready)
		return ready
	case ModeLow:
		// Timer has not fired yet: wake on demand, full Treact penalty.
		ready := t + c.treact
		c.account(t, ModeUp)
		c.shiftEnd = ready
		c.account(ready, ModeFull)
		c.DemandWakes++
		c.delayed(t, ready)
		return ready
	case ModeDeep:
		// Demand wake from deep mode: the full switch-element reactivation
		// must be paid — the delay the paper warns "could lead to
		// unacceptable large increase of execution time" without accurate
		// prediction.
		ready := t + c.deepTreact
		c.account(t, ModeUp)
		c.shiftEnd = ready
		c.account(ready, ModeFull)
		c.deepCycle = false
		c.DemandWakes++
		c.delayed(t, ready)
		return ready
	case ModeUp:
		// Reactivation already under way; pay the remainder.
		ready := c.shiftEnd
		c.account(ready, ModeFull)
		c.delayed(t, ready)
		return ready
	}
	return t
}

func (c *Controller) delayed(t, ready time.Duration) {
	if ready > t {
		c.TotalDelay += ready - t
	}
}

// Finish closes accounting at end-of-run time t. Further use is invalid.
func (c *Controller) Finish(t time.Duration) {
	if c.closed {
		return
	}
	c.catchUp(t)
	if t < c.modeSince {
		t = c.modeSince
	}
	c.account(t, c.mode)
	c.closed = true
}
