package replay

import (
	"time"

	"ibpower/internal/power"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
)

// Telemetry defaults and bounds.
const (
	// DefaultTelemetryTick is the initial bucket width of the telemetry
	// time series; long runs coarsen it by doubling (stats.TimeSeries).
	DefaultTelemetryTick = time.Millisecond
	// TelemetryBuckets bounds per-series bucket storage; when a run
	// outgrows it the tick doubles and buckets fold.
	TelemetryBuckets = 512
)

// TelemetryConfig opts a run into streaming time-series telemetry. It is
// purely observational: every hook records state the simulation already
// computes, so enabling it changes no simulated result and no rendered
// output — only Result.Series/MultiResult.Series become non-nil.
type TelemetryConfig struct {
	Enabled bool
	// Tick is the initial bucket width; <= 0 selects DefaultTelemetryTick.
	Tick time.Duration
}

// WithTelemetry returns cfg with telemetry enabled at the given tick
// (<= 0 selects DefaultTelemetryTick).
func (c Config) WithTelemetry(tick time.Duration) Config {
	c.Telemetry = TelemetryConfig{Enabled: true, Tick: tick}
	return c
}

// Telemetry series emitted by the replay engine (see README "Telemetry
// series" for the full registry):
//
//	power.host   span    host-link power draw, link-seconds × power fraction
//	power.low    span    link-seconds spent in low or deep mode
//	pred.hit     sample  1/0 per prediction opportunity; mean = hit rate
//	util.hostup  span    busy seconds, terminal→switch links
//	util.hostdn  span    busy seconds, switch→terminal links
//	util.up      span    busy seconds, switch→switch up-links
//	util.down    span    busy seconds, other switch→switch links
//
// Two util sketches are computed once (stats.TimeSeries.AddSpanMirror).
// Every routed path starts on the source's host up-link and ends on the
// destination's host down-link, with no other host link between, and the
// network reserves both for the same durations in the same order, so
// util.hostdn mirrors util.hostup's sketch on every fabric. On a fabric
// that routes up*/down* (topology.IsUpDown) each path also climbs as many
// switch up-links as it descends, so util.down mirrors util.up's; elsewhere
// (dragonfly, torus) util.down also holds lateral links and keeps its own.
// TestRouteMirrorInvariants and TestTelemetryMirrorsMatchTee pin both.
//
// The churn engine (internal/multijob) adds queue.depth, fabric.occupied
// and capacity.up on the same recorder.
type telemetry struct {
	ts      *stats.TimeSeries
	power   stats.SeriesID
	low     stats.SeriesID
	hit     stats.SeriesID
	linkSid []stats.SeriesID // per directed LinkID: its util.* class series

	// modes holds observeMode's observer per deep-mode draw fraction, so
	// every rank with that fraction shares one.
	modes map[float64]func(m power.Mode, from, to time.Duration)
}

// newTelemetry builds the recorder and registers the engine-level series.
// The per-LinkID class table makes ObserveBusy a flat array lookup.
func newTelemetry(tc TelemetryConfig, topo topology.Fabric) *telemetry {
	tick := tc.Tick
	if tick <= 0 {
		tick = DefaultTelemetryTick
	}
	ts := stats.NewTimeSeries(tick, TelemetryBuckets)
	t := &telemetry{
		ts:    ts,
		power: ts.AddSpanSeries("power.host", "link-seconds"),
		low:   ts.AddSpanSeries("power.low", "link-seconds"),
		hit:   ts.AddSeries("pred.hit", "hit"),
		modes: make(map[float64]func(power.Mode, time.Duration, time.Duration)),
	}
	const unit = "busy-seconds"
	hostup := ts.AddSpanSeries("util.hostup", unit)
	hostdn := ts.AddSpanMirror("util.hostdn", unit, hostup)
	up := ts.AddSpanSeries("util.up", unit)
	var down stats.SeriesID
	if topology.IsUpDown(topo) {
		down = ts.AddSpanMirror("util.down", unit, up)
	} else {
		down = ts.AddSpanSeries("util.down", unit)
	}
	classes := [4]stats.SeriesID{hostup, hostdn, up, down}
	tbl := topo.Table()
	t.linkSid = make([]stats.SeriesID, tbl.Len())
	for id := range t.linkSid {
		k := tbl.Kind[id]
		var c int
		switch {
		case k&topology.LinkFromSwitch == 0:
			c = 0 // terminal → switch
		case k&topology.LinkToSwitch == 0:
			c = 1 // switch → terminal
		case k&topology.LinkUp != 0:
			c = 2 // fabric up-link
		default:
			c = 3 // fabric down/lateral link
		}
		t.linkSid[id] = classes[c]
	}
	return t
}

// ObserveBusy implements network.BusyObserver: each reservation becomes a
// busy-seconds span on the link's class series. Allocation-free.
func (t *telemetry) ObserveBusy(link topology.LinkID, start, end time.Duration) {
	t.ts.RecordSpan(t.linkSid[link], start, end, (end - start).Seconds())
}

// observeMode is the power.Controller observer: every closed mode interval
// becomes a power-draw span (link-seconds weighted by the mode's draw
// fraction) and, for the saving modes, a low-time span. deepFraction is the
// controller's deep-mode draw (0 when deep mode is off). The observer is
// built once per fraction and shared.
func (t *telemetry) observeMode(deepFraction float64) func(m power.Mode, from, to time.Duration) {
	if deepFraction <= 0 {
		deepFraction = power.DeepPowerFraction
	}
	if fn, ok := t.modes[deepFraction]; ok {
		return fn
	}
	fn := func(m power.Mode, from, to time.Duration) {
		sec := (to - from).Seconds()
		frac := 1.0 // full power; shifts are charged at full draw too
		switch m {
		case power.ModeLow:
			frac = power.LowPowerFraction
			t.ts.RecordSpan(t.low, from, to, sec)
		case power.ModeDeep:
			frac = deepFraction
			t.ts.RecordSpan(t.low, from, to, sec)
		}
		t.ts.RecordSpan(t.power, from, to, sec*frac)
	}
	t.modes[deepFraction] = fn
	return fn
}

// recordHit records one prediction opportunity for a rank: hit is 1 when
// the realized idle confirmed the prediction. The series mean is the hit
// rate; bucket means give it per interval.
func (t *telemetry) recordHit(at time.Duration, hit float64) {
	t.ts.Record(t.hit, at, hit)
}
