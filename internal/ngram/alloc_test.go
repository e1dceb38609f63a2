package ngram

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// steadyDetector builds a detector predicting the Figure 3 pattern and
// returns one aligned pattern appearance of finalized grams: feeding them
// cyclically keeps the detector in prediction mode forever.
func steadyDetector(t *testing.T) ([]*Gram, *Detector) {
	t.Helper()
	b := NewBuilder(20 * us)
	d := NewDetector(0)
	var grams []*Gram
	var now time.Duration
	for it := 0; it < 8; it++ {
		for _, ev := range []struct {
			id  EventID
			gap time.Duration
		}{
			{41, 300 * us}, {41, 5 * us}, {41, 5 * us},
			{10, 200 * us}, {10, 200 * us},
		} {
			now += ev.gap
			if g := b.Add(ev.id, ev.gap, now, now); g != nil {
				d.AddGram(g)
				if it >= 4 {
					kept := *g // Add reuses the Gram struct
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
	fresh := newPattern(d.Active().ids, d.Active().keys, d.Active().NumCalls)
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
	if fresh.MeanGap(0) == 0 || fresh.SafeGap(fresh.Size()-1) == 0 {
		t.Error("observed gaps left no estimate")
	}
}

// TestDetectorHistoryBounded asserts detector memory is O(detection window):
// the gram history ring never grows past 3*maxSize however long the stream.
func TestDetectorHistoryBounded(t *testing.T) {
	d := NewDetector(4)
	if len(d.hist) != 12 {
		t.Fatalf("history capacity = %d, want 3*4", len(d.hist))
	}
	b := NewBuilder(20 * us)
	var now time.Duration
	for i := 0; i < 100000; i++ {
		gap := 100 * us
		now += gap
		if g := b.Add(EventID(i%3+1), gap, now, now); g != nil {
			d.AddGram(g)
		}
	}
	if len(d.hist) != 12 {
		t.Errorf("history grew to %d entries, want fixed 12", len(d.hist))
	}
	if d.total < 90000 {
		t.Errorf("absolute gram counter = %d, expected the full stream", d.total)
	}
}

// TestBuilderSharedGram covers the Add/Flush contract: the Gram struct is
// reused but Key and IDs stay valid across finalizations.
func TestBuilderSharedGram(t *testing.T) {
	b := NewBuilder(20 * us)
	b.Add(41, 0, 0, 0)
	g1 := b.Add(10, 100*us, 100*us, 100*us)
	if g1 == nil || g1.Key != "41" {
		t.Fatalf("first finalized gram = %+v, want key 41", g1)
	}
	key1, ids1 := g1.Key, g1.IDs
	g2 := b.Flush()
	if g2 == nil || g2.Key != "10" {
		t.Fatalf("flushed gram = %+v, want key 10", g2)
	}
	if g1 != g2 {
		t.Error("Add and Flush must reuse the builder-owned Gram")
	}
	// The interned identity of the first gram outlives the reuse.
	if key1 != "41" || len(ids1) != 1 || ids1[0] != 41 {
		t.Errorf("interned identity mutated: key=%q ids=%v", key1, ids1)
	}
}

// TestGramShapeInterning asserts same-shape grams share one interned Key
// string and IDs slice, across builders.
func TestGramShapeInterning(t *testing.T) {
	mk := func() *Gram {
		b := NewBuilder(20 * us)
		b.Add(41, 0, 0, 0)
		b.Add(41, 5*us, 0, 0)
		return b.Flush()
	}
	g1, g2 := mk(), mk()
	if g1.Key != "41-41" {
		t.Fatalf("key = %q", g1.Key)
	}
	if len(g1.IDs) != 2 || &g1.IDs[0] != &g2.IDs[0] {
		t.Error("same-shape grams from different builders must share the interned IDs slice")
	}
}

// TestInternShapeConcurrent interns the same new shapes from several
// goroutines at once: whichever first intern wins, every goroutine must get
// that one identity, so LoadOrStore's losing path hands back the winner's
// IDs rather than its own copy.
func TestInternShapeConcurrent(t *testing.T) {
	const workers, shapes = 8, 64
	cur := make([][]EventID, shapes)
	for s := range cur {
		// A first ID no other test uses keeps every shape new to the table.
		ids := []EventID{EventID(100 + s)}
		for range 8 + s%5 {
			ids = append(ids, 250)
		}
		cur[s] = ids
	}
	got := make([][]gramProto, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, ids := range cur {
				raw := make([]byte, len(ids))
				for i, id := range ids {
					raw[i] = byte(id)
				}
				got[w] = append(got[w], internShape(ids, raw))
			}
		}()
	}
	close(start)
	wg.Wait()
	for s, ids := range cur {
		want := got[0][s]
		if want.key != GramKey(ids) || !slices.Equal(want.ids, ids) {
			t.Fatalf("shape %d interned as key=%q ids=%v, want %q %v", s, want.key, want.ids, GramKey(ids), ids)
		}
		for w := 1; w < workers; w++ {
			if p := got[w][s]; &p.ids[0] != &want.ids[0] || p.key != want.key {
				t.Errorf("shape %d: goroutine %d got its own identity, not the interned one", s, w)
			}
		}
	}
}
