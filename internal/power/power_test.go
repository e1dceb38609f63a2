package power

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ibpower/internal/trace"
)

const us = time.Microsecond

func TestAccountingMath(t *testing.T) {
	a := Accounting{Full: 40 * us, Low: 50 * us, Shift: 10 * us}
	if a.Total() != 100*us {
		t.Fatalf("Total = %v", a.Total())
	}
	if got := a.LowFraction(); got != 0.5 {
		t.Errorf("LowFraction = %v, want 0.5", got)
	}
	want := 0.5 * MaxSavingFraction * 100 // 28.5
	if got := a.SavingPct(); math.Abs(got-want) > 1e-9 {
		t.Errorf("SavingPct = %v, want %v", got, want)
	}
	// Mean power: 50% at full + 50% at 43%.
	if got := a.MeanPowerFraction(); math.Abs(got-0.715) > 1e-9 {
		t.Errorf("MeanPowerFraction = %v, want 0.715", got)
	}
	// Energy at 10 W nominal for 100 µs.
	wantJ := 10 * 0.715 * (100 * us).Seconds()
	if got := a.Energy(10); math.Abs(got-wantJ) > 1e-15 {
		t.Errorf("Energy = %v, want %v", got, wantJ)
	}
}

func TestAccountingEmpty(t *testing.T) {
	var a Accounting
	if a.LowFraction() != 0 || a.SavingPct() != 0 {
		t.Error("empty accounting must report zero savings")
	}
	if a.MeanPowerFraction() != 1 {
		t.Error("empty accounting must report nominal power")
	}
}

func TestControllerTimerWakeCycle(t *testing.T) {
	c := NewController(Treact)
	// Shutdown at t=0 with a 100 µs predicted idle.
	if !c.Shutdown(0, 100*us) {
		t.Fatal("shutdown rejected")
	}
	// During the down-shift the mode is ModeDown.
	if m := c.Mode(5 * us); m != ModeDown {
		t.Errorf("mode at 5µs = %v, want shift-down", m)
	}
	if m := c.Mode(50 * us); m != ModeLow {
		t.Errorf("mode at 50µs = %v, want low", m)
	}
	// Timer fires at 100 µs; reactivation completes at 110 µs.
	if m := c.Mode(105 * us); m != ModeUp {
		t.Errorf("mode at 105µs = %v, want shift-up", m)
	}
	if m := c.Mode(115 * us); m != ModeFull {
		t.Errorf("mode at 115µs = %v, want full", m)
	}
	c.Finish(200 * us)
	a := c.Accounting()
	if a.Total() != 200*us {
		t.Fatalf("total = %v, want 200µs", a.Total())
	}
	if a.Low != 90*us { // low from 10µs (down done) to 100µs (timer)
		t.Errorf("low = %v, want 90µs", a.Low)
	}
	if a.Shift != 20*us {
		t.Errorf("shift = %v, want 20µs", a.Shift)
	}
	if c.TimerWakes != 1 || c.DemandWakes != 0 {
		t.Errorf("wakes = %d/%d, want 1/0", c.TimerWakes, c.DemandWakes)
	}
}

func TestControllerDemandWakeFromLow(t *testing.T) {
	c := NewController(Treact)
	c.Shutdown(0, 1000*us)
	// A call arrives at 500 µs, long before the timer: full Treact penalty.
	ready := c.Acquire(500 * us)
	if ready != 510*us {
		t.Errorf("ready = %v, want 510µs", ready)
	}
	if c.DemandWakes != 1 {
		t.Errorf("demand wakes = %d", c.DemandWakes)
	}
	if c.TotalDelay != 10*us {
		t.Errorf("delay = %v, want 10µs", c.TotalDelay)
	}
}

func TestControllerDemandWakeDuringUpShift(t *testing.T) {
	c := NewController(Treact)
	c.Shutdown(0, 100*us)
	// Call arrives at 105 µs: reactivation began at 100 µs, completes at
	// 110 µs; only the remaining 5 µs are paid.
	ready := c.Acquire(105 * us)
	if ready != 110*us {
		t.Errorf("ready = %v, want 110µs", ready)
	}
	if c.TotalDelay != 5*us {
		t.Errorf("delay = %v, want 5µs", c.TotalDelay)
	}
}

func TestControllerDemandWakeDuringDownShift(t *testing.T) {
	c := NewController(Treact)
	c.Shutdown(0, 100*us)
	// Call arrives at 4 µs, during deactivation: lanes must finish going
	// down (until 10 µs) and come back (until 20 µs).
	ready := c.Acquire(4 * us)
	if ready != 20*us {
		t.Errorf("ready = %v, want 20µs", ready)
	}
}

func TestControllerAcquireWhenFull(t *testing.T) {
	c := NewController(Treact)
	if got := c.Acquire(42 * us); got != 42*us {
		t.Errorf("Acquire on full link = %v, want 42µs", got)
	}
	if c.TotalDelay != 0 {
		t.Error("no delay expected on a full-power link")
	}
}

func TestControllerShutdownRejections(t *testing.T) {
	c := NewController(Treact)
	if c.Shutdown(0, 5*us) {
		t.Error("predicted idle <= Treact must be rejected")
	}
	if !c.Shutdown(0, 100*us) {
		t.Fatal("valid shutdown rejected")
	}
	// Already shutting down: rejected.
	if c.Shutdown(2*us, 100*us) {
		t.Error("nested shutdown accepted")
	}
}

func TestControllerTimelineRecording(t *testing.T) {
	c := NewController(Treact)
	tl := c.RecordTimeline("link")
	c.Shutdown(10*us, 100*us)
	c.Finish(200 * us)
	if tl != c.Timeline() {
		t.Fatal("Timeline() mismatch")
	}
	if tl.TimeIn(trace.StateLow) != 90*us {
		t.Errorf("timeline low = %v, want 90µs", tl.TimeIn(trace.StateLow))
	}
	if tl.TimeIn(trace.StateShift) != 20*us {
		t.Errorf("timeline shift = %v", tl.TimeIn(trace.StateShift))
	}
	if tl.End() != 200*us {
		t.Errorf("timeline end = %v", tl.End())
	}
}

func TestControllerFinishIdempotent(t *testing.T) {
	c := NewController(Treact)
	c.Finish(100 * us)
	c.Finish(300 * us) // ignored
	if c.Accounting().Total() != 100*us {
		t.Errorf("total = %v after double finish", c.Accounting().Total())
	}
}

// Property: accounting is conserved — for any sequence of shutdowns and
// acquires, Full+Low+Shift equals the finish time, and Acquire never travels
// back in time.
func TestControllerConservationProperty(t *testing.T) {
	f := func(ops [12]uint16) bool {
		c := NewController(Treact)
		var now time.Duration
		for _, o := range ops {
			step := time.Duration(o%500) * us
			now += step
			if o%3 == 0 {
				c.Shutdown(now, time.Duration(o%200)*us)
			} else {
				ready := c.Acquire(now)
				if ready < now {
					return false
				}
				now = ready
			}
		}
		end := now + 50*us
		c.Finish(end)
		return c.Accounting().Total() == end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the reactivation penalty never exceeds Treact when the link was
// in low-power mode or waking.
func TestControllerPenaltyBoundProperty(t *testing.T) {
	f := func(shutdownIdle, arrive uint16) bool {
		idle := time.Duration(shutdownIdle%1000+11) * us
		c := NewController(Treact)
		if !c.Shutdown(0, idle) {
			return true
		}
		at := time.Duration(arrive) * us
		if at < Treact { // during down-shift the bound is 2·Treact
			return c.Acquire(at)-at <= 2*Treact
		}
		return c.Acquire(at)-at <= Treact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeFull: "full", ModeLow: "low", ModeDown: "shift-down", ModeUp: "shift-up",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	if Mode(99).String() != "?" {
		t.Error("unknown mode must stringify to ?")
	}
}

func TestPaperConstants(t *testing.T) {
	// Guard the constants the reproduction depends on (Section II-A).
	if Treact != 10*us {
		t.Errorf("Treact = %v, want 10µs", Treact)
	}
	if LowPowerFraction != 0.43 {
		t.Errorf("LowPowerFraction = %v, want 0.43", LowPowerFraction)
	}
	if math.Abs(MaxSavingFraction-0.57) > 1e-12 {
		t.Errorf("MaxSavingFraction = %v, want 0.57", MaxSavingFraction)
	}
	if FullBandwidthBitsPerSec != 40e9 || LowBandwidthBitsPerSec != 10e9 {
		t.Error("bandwidths must be 40/10 Gb/s (4X vs 1X QDR)")
	}
}

// TestControllerResetAtMatchesNew runs a controller through deep and plain
// cycles with a timeline and an observer attached, resets it with ResetAt,
// and checks it against a NewControllerAt controller: equal right after the
// reset, and equal over a Shutdown/Acquire sequence with deep mode and an
// observer enabled on both (observed intervals, accounting, counters).
func TestControllerResetAtMatchesNew(t *testing.T) {
	type interval struct {
		m        Mode
		from, to time.Duration
	}
	// drive enables deep mode and an observer, then alternates shutdowns
	// woken by the timer with ones cut short by early traffic.
	drive := func(c *Controller, start time.Duration, deep DeepConfig) []interval {
		var seen []interval
		c.EnableDeep(deep)
		c.Observe(func(m Mode, from, to time.Duration) { seen = append(seen, interval{m, from, to}) })
		now := start
		for i, idle := range []time.Duration{5 * time.Millisecond, 100 * us, 3 * time.Millisecond, 50 * us, 800 * us} {
			c.Shutdown(now, idle)
			wait := idle + 2*Treact // the timer wakes the link first
			if i%2 == 1 {
				wait = idle / 2 // traffic arrives early: a demand wake
			}
			now = c.Acquire(now+wait) + 20*us
		}
		c.Finish(now)
		return seen
	}

	c := NewControllerAt(0, 0)
	c.RecordTimeline("before")
	drive(c, 0, DeepConfig{MinIdle: 200 * us})
	if c.DemandWakes == 0 || c.TimerWakes == 0 {
		t.Fatalf("setup run: %d demand and %d timer wakes, want both", c.DemandWakes, c.TimerWakes)
	}
	const start = 40 * time.Millisecond
	c.ResetAt(2*Treact, start)
	fresh := NewControllerAt(2*Treact, start)
	if !reflect.DeepEqual(c, fresh) {
		t.Fatalf("reset controller %+v, want %+v", c, fresh)
	}

	got := drive(c, start, DeepConfig{})
	want := drive(fresh, start, DeepConfig{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observed intervals differ:\n got %v\nwant %v", got, want)
	}
	if c.Accounting() != fresh.Accounting() {
		t.Errorf("accounting %+v, want %+v", c.Accounting(), fresh.Accounting())
	}
	if c.Shutdowns != fresh.Shutdowns || c.TimerWakes != fresh.TimerWakes ||
		c.DemandWakes != fresh.DemandWakes || c.TotalDelay != fresh.TotalDelay {
		t.Errorf("counters %d/%d/%d/%v, want %d/%d/%d/%v",
			c.Shutdowns, c.TimerWakes, c.DemandWakes, c.TotalDelay,
			fresh.Shutdowns, fresh.TimerWakes, fresh.DemandWakes, fresh.TotalDelay)
	}
	if fresh.Accounting().Deep == 0 || fresh.DemandWakes == 0 {
		t.Error("the compared run entered no deep mode or took no demand wake; the check would be vacuous")
	}
	if c.Timeline() != nil {
		t.Error("the timeline survived ResetAt")
	}
}
