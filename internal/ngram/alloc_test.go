package ngram

import (
	"slices"
	"testing"
	"time"
)

// steadyDetector builds a detector predicting the Figure 3 pattern and
// returns one aligned pattern appearance of finalized grams: feeding them
// cyclically keeps the detector in prediction mode forever.
func steadyDetector(t *testing.T) ([]*Gram, *Detector) {
	t.Helper()
	b := NewBuilder(20 * us)
	d := NewDetector()
	var grams []*Gram
	for it := 0; it < 8; it++ {
		for _, ev := range []struct {
			id  EventID
			gap time.Duration
		}{
			{41, 300 * us}, {41, 5 * us}, {41, 5 * us},
			{10, 200 * us}, {10, 200 * us},
		} {
			if g := b.Add(ev.id, ev.gap); g != nil {
				d.AddGram(g)
				if it >= 4 {
					kept := *g // Add reuses the Gram struct and its IDs buffer
					kept.IDs = slices.Clone(g.IDs)
					grams = append(grams, &kept)
				}
			}
		}
	}
	if !d.Predicting() {
		t.Fatal("walkthrough stream did not reach prediction mode")
	}
	size := d.Active().Size()
	return grams[len(grams)-size:], d
}

// TestAddGramSteadyStateNoAllocs is the hot-path regression test: while a
// detected pattern is being predicted over interned grams, AddGram must not
// allocate (ring-buffered history, integer gram comparisons, fixed-size gap
// windows).
func TestAddGramSteadyStateNoAllocs(t *testing.T) {
	grams, d := steadyDetector(t)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		d.AddGram(grams[i%len(grams)])
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state AddGram allocated %.1f/op, want 0", allocs)
	}
	if !d.Predicting() {
		t.Error("detector dropped out of prediction mode during steady state")
	}
	if d.Stats().Mispredictions != 0 {
		t.Errorf("mispredictions on the steady stream: %d", d.Stats().Mispredictions)
	}
}

// Detection sizes a pattern's gap state once, so observing a gap at any
// position of a detected pattern never allocates, not even at a position
// observed for the first time.
func TestObserveGapAfterDetectNoAllocs(t *testing.T) {
	_, d := steadyDetector(t)
	fresh := newPattern(d.Active().ids, d.Active().defs, d.Active().NumCalls)
	for _, p := range []*Pattern{d.Active(), fresh} {
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			p.ObserveGap(i%(p.Size()+1), time.Duration(i)*us)
			i++
		})
		if allocs != 0 {
			t.Errorf("ObserveGap allocated %.1f/op, want 0", allocs)
		}
	}
	if fresh.gaps[0].n == 0 || fresh.SafeGap(fresh.Size()-1) == 0 {
		t.Error("observed gaps left no estimate")
	}
}

// TestDetectorHistoryBounded asserts detector memory is O(detection window):
// the gram history ring never grows past window however long the stream.
func TestDetectorHistoryBounded(t *testing.T) {
	d := NewDetector()
	if len(d.hist) != window {
		t.Fatalf("history capacity = %d, want %d", len(d.hist), window)
	}
	b := NewBuilder(20 * us)
	for i := 0; i < 100000; i++ {
		gap := 100 * us
		if g := b.Add(EventID(i%3+1), gap); g != nil {
			d.AddGram(g)
		}
	}
	if len(d.hist) != window {
		t.Errorf("history grew to %d entries, want fixed %d", len(d.hist), window)
	}
	if d.total < 90000 {
		t.Errorf("absolute gram counter = %d, expected the full stream", d.total)
	}
}

// TestBuilderSharedGram covers the Add/Flush contract: the Gram struct is
// reused, and its IDs stay valid while the next gram is under construction,
// up to that gram's finalization.
func TestBuilderSharedGram(t *testing.T) {
	b := NewBuilder(20 * us)
	b.Add(41, 0)
	b.Add(41, 5*us)
	g1 := b.Add(10, 100*us)
	if g1 == nil || g1.Key() != "41-41" {
		t.Fatalf("first finalized gram = %+v, want key 41-41", g1)
	}
	ids1 := g1.IDs
	// Events of the next gram go to the builder's other buffer.
	b.Add(10, 5*us)
	b.Add(10, 5*us)
	if !slices.Equal(ids1, []EventID{41, 41}) {
		t.Errorf("first gram's IDs = %v while the next gram grew, want [41 41]", ids1)
	}
	g2 := b.Flush()
	if g2 == nil || g2.Key() != "10-10-10" {
		t.Fatalf("flushed gram = %+v, want key 10-10-10", g2)
	}
	if g1 != g2 {
		t.Error("Add and Flush must reuse the builder-owned Gram")
	}
	// Once both buffers have grown, finalizing allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		b.Add(41, 100*us)
		b.Add(41, 5*us)
	})
	if allocs != 0 {
		t.Errorf("gram formation allocated %.1f/op, want 0", allocs)
	}
}
