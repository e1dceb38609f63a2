// Package ngram implements the paper's Pattern Prediction Algorithm (PPA):
// on-the-fly detection of repeating patterns in a per-process stream of MPI
// events using n-gram extraction (Section III-A, Algorithms 1 and 2).
//
// MPI events are first grouped into grams: consecutive events whose
// separating idle time is below the grouping threshold GT belong to the same
// gram (Algorithm 1). The gram stream is then scanned for the shortest
// pattern (sequence of grams) that repeats consecutively; after three
// consecutive appearances the pattern is declared detected and subsequent
// occurrences are predicted. A pattern that was detected once is re-predicted
// immediately when it reappears after a misprediction (Section III-A policy).
package ngram

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// EventID identifies an event type in the stream (an MPI call ID).
type EventID uint8

// Gram is a maximal group of consecutive events whose inter-event idle times
// are all below the grouping threshold.
type Gram struct {
	IDs       []EventID     // event types, in order; builder-owned, valid until the next gram is finalized
	GapBefore time.Duration // idle time preceding the gram's first event
}

// NumCalls returns the number of MPI events in the gram.
func (g *Gram) NumCalls() int { return len(g.IDs) }

// Key renders the gram's identity in the paper's notation, e.g. "41-41-41".
// It allocates; the detector identifies grams by their raw IDs instead.
func (g *Gram) Key() string { return GramKey(g.IDs) }

// GramKey renders a gram identity string from event IDs, matching the
// paper's notation ("41-41-41").
func GramKey(ids []EventID) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	return b.String()
}

// Builder forms grams from an event stream per Algorithm 1. Events are fed
// with the idle time that preceded them; a gram is finalized when an event
// arrives after an idle period of at least GT (the grouping threshold).
//
// The grouping comparison is the builder's only read of GT, so it also
// tracks the interval of thresholds that would have decided every
// comparison the same way (GTInterval).
type Builder struct {
	gt      time.Duration
	lo, hi  time.Duration // every GT in (lo, hi] groups the events fed so far identically
	cur     []EventID
	spare   []EventID // the previous gram's IDs; cur's buffer once the next gram is finalized
	curGap  time.Duration
	started bool

	done Gram // builder-owned gram returned by Add/Flush
}

// NewBuilder returns a gram builder with grouping threshold gt. GT must be
// at least 2·Treact for lane power management to be profitable (Section
// IV-C); the builder does not enforce that policy, callers do.
func NewBuilder(gt time.Duration) *Builder {
	b := new(Builder)
	b.Reset(gt)
	return b
}

// Reset returns the builder to the state NewBuilder(gt) constructs, keeping
// its buffers, so one builder can serve a sequence of runs.
func (b *Builder) Reset(gt time.Duration) {
	if gt <= 0 {
		panic(fmt.Sprintf("ngram: non-positive grouping threshold %v", gt))
	}
	*b = Builder{gt: gt, hi: math.MaxInt64, cur: b.cur[:0], spare: b.spare[:0]}
}

// GTInterval returns the interval (lo, hi] of grouping thresholds that make
// the same decision as GT at every comparison made so far: lo is the largest
// compared idle time below GT (0 if none) and hi the smallest compared idle
// time at or above GT (math.MaxInt64 if none). A builder at any threshold in
// the interval, fed the same events, forms exactly the same grams.
func (b *Builder) GTInterval() (lo, hi time.Duration) { return b.lo, b.hi }

// Add feeds one event. idleBefore is the idle time since the previous event
// ended. When the event begins a new gram, the previous (now finalized) gram
// is returned; otherwise Add returns nil.
//
// The returned Gram is builder-owned and overwritten by the next
// finalization, so finalizing allocates nothing. Its IDs alias one of the
// builder's two event buffers and stay valid until the next gram is
// finalized; callers that keep a gram copy the struct and clone its IDs.
func (b *Builder) Add(id EventID, idleBefore time.Duration) *Gram {
	var done *Gram
	if b.started {
		if idleBefore >= b.gt {
			b.hi = min(b.hi, idleBefore)
			done = b.take()
			done.GapBefore = b.curGap
			b.curGap = idleBefore
		} else {
			b.lo = max(b.lo, idleBefore)
		}
	}
	if !b.started {
		b.started = true
		b.curGap = idleBefore
	}
	b.cur = append(b.cur, id)
	return done
}

// Flush finalizes and returns the gram under construction, or nil when
// empty. The Gram is builder-owned, as Add's. The builder can keep
// accepting events afterwards.
func (b *Builder) Flush() *Gram {
	if len(b.cur) == 0 {
		return nil
	}
	g := b.take()
	g.GapBefore = b.curGap
	return g
}

// take closes the current gram into the builder-owned shared Gram without
// assigning its gap. The gram keeps the current event buffer and the next
// gram fills the spare one, so neither allocates once both have grown.
func (b *Builder) take() *Gram {
	b.done = Gram{IDs: b.cur}
	b.cur, b.spare = b.spare[:0], b.cur
	return &b.done
}

// Current returns the event IDs of the gram under construction without
// copying. The slice aliases the builder's internal buffer: it is read-only
// and only valid until the next Add or Flush.
func (b *Builder) Current() []EventID { return b.cur }
