package ngram

import (
	"strings"
	"time"
)

// Pattern is a repeating sequence of grams, stored in the detector's pattern
// list (the paper uses uthash keyed by the pattern string; the detector keys
// its list by the grams' interned IDs and renders the string on demand).
type Pattern struct {
	Freq     int  // number of observed appearances
	Detected bool // declared predictable (3 consecutive appearances)
	NumCalls int  // MPI calls per appearance

	// ids are the pattern's grams as interned detector IDs; all hot matching
	// compares these integers instead of the grams' event IDs. defs is the
	// detector's ID -> raw event-ID table as of the pattern's detection.
	ids  []GramID
	defs []string

	// gaps holds, per gram position, the idle time observed before that
	// gram: sized once to the pattern, so observing a gap never allocates.
	gaps []gapStat
}

// gapWindow is the number of recent observations kept per gap position.
const gapWindow = 8

// gapStat keeps the idle times observed before one gram of a pattern: the
// last gapWindow observations, in a ring overwritten in place. Predictions
// use their minimum, not the paper's average over previous appearances
// (Section III-B), so that the link is back up before even the fastest
// recent occurrence of the gap — the paper's "better to power up a link
// little bit earlier than needed" policy taken to its safe side.
type gapStat struct {
	n   int // observations so far; the ring holds min(n, gapWindow)
	win [gapWindow]time.Duration
}

// newPattern returns an undetected pattern over the interned grams ids, with
// an empty gap estimate for each position.
func newPattern(ids []GramID, defs []string, numCalls int) *Pattern {
	return &Pattern{NumCalls: numCalls, ids: ids, defs: defs, gaps: make([]gapStat, len(ids))}
}

// Key renders the pattern's identity: its gram keys joined by "_", e.g.
// "41-41-41_10_10".
func (p *Pattern) Key() string {
	var b strings.Builder
	for i, id := range p.ids {
		if i > 0 {
			b.WriteByte('_')
		}
		b.WriteString(GramKey([]EventID(p.defs[id])))
	}
	return b.String()
}

// ObserveGap records a newly observed idle time before gram index i of the
// pattern (i == 0 is the gap separating consecutive pattern appearances)
// in its window. Inter-communication intervals keep being updated while
// the power mode control component is active (Section III: "Just
// inter-communication intervals continue to be updated with the new values
// allowing more accurate transition between power modes"). An index outside
// the pattern is ignored.
func (p *Pattern) ObserveGap(i int, gap time.Duration) {
	if i < 0 || i >= len(p.gaps) {
		return
	}
	g := &p.gaps[i]
	g.win[g.n%gapWindow] = gap
	g.n++
}

// SafeGap returns the conservative idle estimate for position i: the minimum
// over the recent observation window (0 when no estimate is available).
func (p *Pattern) SafeGap(i int) time.Duration {
	if i < 0 || i >= len(p.gaps) || p.gaps[i].n == 0 {
		return 0
	}
	g := &p.gaps[i]
	m := g.win[0]
	for _, w := range g.win[1:min(g.n, gapWindow)] {
		if w < m {
			m = w
		}
	}
	return m
}

// Size returns the pattern length in grams.
func (p *Pattern) Size() int { return len(p.ids) }
