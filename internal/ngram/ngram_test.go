package ngram

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

const us = time.Microsecond

// feed pushes a synthetic event stream through a builder/detector pair. Each
// element of ids is one event; gaps[i] is the idle time before event i.
func feed(t *testing.T, b *Builder, d *Detector, ids []EventID, gaps []time.Duration) {
	if t != nil {
		t.Helper()
	}
	for i, id := range ids {
		if g := b.Add(id, gaps[i]); g != nil {
			d.AddGram(g)
		}
	}
	if g := b.Flush(); g != nil {
		d.AddGram(g)
	}
}

func TestGramKey(t *testing.T) {
	if k := GramKey([]EventID{41, 41, 41}); k != "41-41-41" {
		t.Errorf("GramKey = %q, want 41-41-41", k)
	}
	if k := GramKey(nil); k != "" {
		t.Errorf("GramKey(nil) = %q, want empty", k)
	}
}

func TestBuilderGroupsByGT(t *testing.T) {
	b := NewBuilder(20 * us)
	var grams []*Gram
	keep := func(g *Gram) {
		kept := *g // Add and Flush reuse the Gram struct and its IDs buffer
		kept.IDs = slices.Clone(g.IDs)
		grams = append(grams, &kept)
	}
	add := func(id EventID, idle time.Duration) {
		if g := b.Add(id, idle); g != nil {
			keep(g)
		}
	}
	// 41,41,41 close together; then 10 after a long gap; then 10 again after
	// a long gap — the paper's Figure 2 stream shape.
	add(41, 0)
	add(41, 5*us)
	add(41, 5*us)
	add(10, 300*us)
	add(10, 250*us)
	if g := b.Flush(); g != nil {
		keep(g)
	}
	if len(grams) != 3 {
		t.Fatalf("got %d grams, want 3", len(grams))
	}
	if grams[0].Key() != "41-41-41" || grams[1].Key() != "10" || grams[2].Key() != "10" {
		t.Errorf("gram keys = %q %q %q", grams[0].Key(), grams[1].Key(), grams[2].Key())
	}
	if grams[1].GapBefore != 300*us {
		t.Errorf("gram 1 gap = %v, want 300µs", grams[1].GapBefore)
	}
	if grams[0].NumCalls() != 3 || grams[1].NumCalls() != 1 {
		t.Errorf("NumCalls = %d, %d; want 3, 1", grams[0].NumCalls(), grams[1].NumCalls())
	}
}

func TestBuilderBoundaryExactlyGT(t *testing.T) {
	// An idle time exactly equal to GT starts a new gram (Algorithm 1 groups
	// only when previousIdleTime < groupingThreshold).
	b := NewBuilder(20 * us)
	if g := b.Add(1, 0); g != nil {
		t.Fatal("first event must not finalize a gram")
	}
	g := b.Add(2, 20*us)
	if g == nil || g.Key() != "1" {
		t.Fatalf("idle == GT must close the gram, got %v", g)
	}
}

func TestBuilderGTIntervalBoundary(t *testing.T) {
	b := NewBuilder(20 * us)
	if lo, hi := b.GTInterval(); lo != 0 || hi != math.MaxInt64 {
		t.Fatalf("fresh builder interval (%v, %v], want (0, max]", lo, hi)
	}
	// The first event's idle time is never compared with GT.
	b.Add(1, 5*us)
	if lo, hi := b.GTInterval(); lo != 0 || hi != math.MaxInt64 {
		t.Fatalf("interval (%v, %v] after the first event, want (0, max]", lo, hi)
	}
	// idle == GT starts a new gram, so it bounds the interval from above
	// and that bound is inclusive.
	b.Add(2, 20*us)
	if _, hi := b.GTInterval(); hi != 20*us {
		t.Errorf("hi = %v after idle == GT, want 20µs", hi)
	}
	// idle just below GT groups, so it bounds the interval from below.
	b.Add(3, 20*us-1)
	if lo, _ := b.GTInterval(); lo != 20*us-1 {
		t.Errorf("lo = %v after idle just below GT, want 20µs-1ns", lo)
	}
	// Looser comparisons leave the tightest bounds in place.
	b.Add(4, 3*us)
	b.Add(5, 300*us)
	if lo, hi := b.GTInterval(); lo != 20*us-1 || hi != 20*us {
		t.Errorf("interval (%v, %v], want (20µs-1ns, 20µs]", lo, hi)
	}
}

// TestBuilderGTIntervalExact checks on random streams that the reported
// interval (lo, hi] is exact: builders at lo+1 and hi form the same grams as
// the original, and builders at lo and hi+1 (just outside) do not.
func TestBuilderGTIntervalExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gaps := make([]time.Duration, 200)
	grams := func(gt time.Duration) []string {
		b := NewBuilder(gt)
		var keys []string
		for i, g := range gaps {
			if gr := b.Add(EventID(i%3), g); gr != nil {
				keys = append(keys, fmt.Sprint(gr.Key(), "/", gr.GapBefore))
			}
		}
		if gr := b.Flush(); gr != nil {
			keys = append(keys, fmt.Sprint(gr.Key(), "/", gr.GapBefore))
		}
		return keys
	}
	for trial := 0; trial < 50; trial++ {
		for i := range gaps {
			gaps[i] = time.Duration(rng.Intn(500)) * us
		}
		gt := time.Duration(20+rng.Intn(380)) * us
		b := NewBuilder(gt)
		for i, g := range gaps {
			b.Add(EventID(i%3), g)
		}
		lo, hi := b.GTInterval()
		if !(lo < gt && gt <= hi) {
			t.Fatalf("GT %v outside its own interval (%v, %v]", gt, lo, hi)
		}
		want := grams(gt)
		for _, in := range []time.Duration{lo + 1, hi} {
			if got := grams(in); !reflect.DeepEqual(got, want) {
				t.Errorf("GT %v: threshold %v inside (%v, %v] forms different grams", gt, in, lo, hi)
			}
		}
		if lo > 0 && reflect.DeepEqual(grams(lo), want) {
			t.Errorf("GT %v: threshold lo = %v forms the same grams; interval not tight", gt, lo)
		}
		if hi != math.MaxInt64 && reflect.DeepEqual(grams(hi+1), want) {
			t.Errorf("GT %v: threshold hi+1 = %v forms the same grams; interval not tight", gt, hi+1)
		}
	}
}

func TestBuilderPanicsOnBadGT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(0) must panic")
		}
	}()
	NewBuilder(0)
}

func TestBuilderResetPanicsOnBadGT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(0) must panic")
		}
	}()
	NewBuilder(20 * us).Reset(0)
}

// periodicStream builds a stream repeating the given iteration of
// (id, gap) pairs n times.
func periodicStream(iter []EventID, gapLong time.Duration, n int) ([]EventID, []time.Duration) {
	var ids []EventID
	var gaps []time.Duration
	for i := 0; i < n; i++ {
		for j, id := range iter {
			ids = append(ids, id)
			if j == 0 {
				gaps = append(gaps, gapLong)
			} else {
				gaps = append(gaps, gapLong+time.Duration(j)*us)
			}
		}
	}
	return ids, gaps
}

func TestDetectorFindsPeriodicPattern(t *testing.T) {
	for _, period := range []int{2, 3, 4, 5} {
		iter := make([]EventID, period)
		for i := range iter {
			iter[i] = EventID(10 + i)
		}
		b := NewBuilder(20 * us)
		d := NewDetector()
		ids, gaps := periodicStream(iter, 100*us, 8)
		feed(t, b, d, ids, gaps)
		st := d.Stats()
		if st.Detections == 0 {
			t.Errorf("period %d: no pattern detected", period)
		}
		if !d.Predicting() {
			t.Errorf("period %d: not predicting at end", period)
		}
		if d.Active() != nil && d.Active().Size() != period {
			t.Errorf("period %d: detected size %d", period, d.Active().Size())
		}
	}
}

func TestDetectorRequiresThreeAppearances(t *testing.T) {
	// Two appearances of a pattern must NOT trigger prediction.
	b := NewBuilder(20 * us)
	d := NewDetector()
	ids, gaps := periodicStream([]EventID{1, 2}, 100*us, 2)
	feed(t, b, d, ids, gaps)
	if d.Predicting() {
		t.Fatal("predicting after only two appearances")
	}
	// The third appearance flips it.
	b2 := NewBuilder(20 * us)
	d2 := NewDetector()
	ids, gaps = periodicStream([]EventID{1, 2}, 100*us, 4)
	feed(t, b2, d2, ids, gaps)
	if !d2.Predicting() {
		t.Fatal("not predicting after three appearances")
	}
}

func TestDetectorFigure3Walkthrough(t *testing.T) {
	// The paper's Figure 3: stream 41-41-41, 10, 10 repeating; the pattern
	// "41-41-41_10_10" must be detected and predicted.
	b := NewBuilder(20 * us)
	d := NewDetector()
	var ids []EventID
	var gaps []time.Duration
	for it := 0; it < 4; it++ {
		ids = append(ids, 41, 41, 41, 10, 10)
		gaps = append(gaps, 300*us, 5*us, 5*us, 200*us, 200*us)
	}
	feed(t, b, d, ids, gaps)
	if !d.Predicting() {
		t.Fatal("not predicting")
	}
	p := d.Active()
	if p.Key() != "41-41-41_10_10" && p.Key() != "10_41-41-41_10" && p.Key() != "10_10_41-41-41" {
		t.Fatalf("active pattern %q is not a rotation of 41-41-41_10_10", p.Key())
	}
	if p.Size() != 3 {
		t.Errorf("pattern size = %d, want 3", p.Size())
	}
	if p.NumCalls != 5 {
		t.Errorf("pattern NumCalls = %d, want 5", p.NumCalls)
	}
}

func TestDetectorImmediateReactivation(t *testing.T) {
	b := NewBuilder(20 * us)
	d := NewDetector()
	ids, gaps := periodicStream([]EventID{1, 2}, 100*us, 5)
	// Disturb with two foreign grams (the second kills the wildcard), then
	// resume the pattern.
	ids = append(ids, 7, 8)
	gaps = append(gaps, 500*us, 500*us)
	moreIDs, moreGaps := periodicStream([]EventID{1, 2}, 100*us, 1)
	ids = append(ids, moreIDs...)
	gaps = append(gaps, moreGaps...)
	feed(t, b, d, ids, gaps)
	if !d.Predicting() {
		t.Fatal("pattern not re-activated on first reappearance")
	}
	if d.Stats().Reactivations == 0 {
		t.Error("no reactivation recorded")
	}
}

func TestDetectorWildcardSubstitution(t *testing.T) {
	b := NewBuilder(20 * us)
	d := NewDetector()
	ids, gaps := periodicStream([]EventID{1, 2}, 100*us, 4)
	// One unknown gram in place of "2", then the pattern continues.
	ids = append(ids, 1, 9, 1, 2)
	gaps = append(gaps, 100*us, 101*us, 100*us, 101*us)
	feed(t, b, d, ids, gaps)
	st := d.Stats()
	if st.WildcardGrams == 0 {
		t.Error("expected a wildcard substitution")
	}
	if !d.Predicting() {
		t.Error("prediction should survive a single substitution")
	}
}

func TestDetectorMaxPatternSizeFreeze(t *testing.T) {
	b := NewBuilder(20 * us)
	d := NewDetector()
	ids, gaps := periodicStream([]EventID{1, 2, 3}, 100*us, 10)
	feed(t, b, d, ids, gaps)
	st := d.Stats()
	if st.MaxPatternFrozen != 3 {
		t.Errorf("frozen max pattern size = %d, want 3", st.MaxPatternFrozen)
	}
}

func TestPatternGapEstimates(t *testing.T) {
	p := newPattern([]GramID{0, 1}, []string{string([]EventID{41, 41}), string([]EventID{10})}, 3)
	if k := p.Key(); k != "41-41_10" {
		t.Errorf("Key = %q, want 41-41_10", k)
	}
	p.ObserveGap(0, 100*us)
	p.ObserveGap(0, 200*us)
	p.ObserveGap(0, 150*us)
	if s := p.SafeGap(0); s != 100*us {
		t.Errorf("SafeGap = %v, want 100µs", s)
	}
	p.ObserveGap(5, 100*us) // beyond the pattern: ignored
	if p.SafeGap(5) != 0 || p.SafeGap(1) != 0 {
		t.Error("out-of-range and unobserved gap estimates must be zero")
	}
	// The window holds gapWindow entries: old minima age out.
	for i := 0; i < gapWindow; i++ {
		p.ObserveGap(0, 300*us)
	}
	if s := p.SafeGap(0); s != 300*us {
		t.Errorf("SafeGap after window turnover = %v, want 300µs", s)
	}
}

func TestDetectorPredictedGap(t *testing.T) {
	b := NewBuilder(20 * us)
	d := NewDetector()
	ids, gaps := periodicStream([]EventID{1, 2}, 100*us, 6)
	feed(t, b, d, ids, gaps)
	if !d.Predicting() {
		t.Fatal("not predicting")
	}
	g := d.PredictedGapAfterExpected()
	if g < 90*us || g > 120*us {
		t.Errorf("predicted gap %v outside the stream's gap range", g)
	}
}

// TestDetectorSteadyStateHitRate checks that on a perfectly periodic stream
// the detector eventually predicts every gram.
func TestDetectorSteadyStateHitRate(t *testing.T) {
	b := NewBuilder(20 * us)
	d := NewDetector()
	const reps = 50
	ids, gaps := periodicStream([]EventID{1, 2, 3}, 100*us, reps)
	feed(t, b, d, ids, gaps)
	st := d.Stats()
	// 3 grams per rep; detection completes within the first few reps.
	if st.PredictedGrams < (reps-5)*3 {
		t.Errorf("predicted %d grams of %d", st.PredictedGrams, st.GramsFormed)
	}
	if st.Mispredictions != 0 {
		t.Errorf("mispredictions on a periodic stream: %d", st.Mispredictions)
	}
}

// Property: the detector never predicts before three appearances of any
// pattern have been seen, for random periodic shapes.
func TestDetectorThreeAppearancePolicyProperty(t *testing.T) {
	f := func(seed int64, periodRaw uint8) bool {
		period := int(periodRaw%4) + 2 // 2..5
		rng := rand.New(rand.NewSource(seed))
		iter := make([]EventID, period)
		for i := range iter {
			iter[i] = EventID(rng.Intn(5) + 1)
		}
		// Streams with repeated IDs inside the iteration can legitimately
		// form shorter periods; restrict to distinct IDs.
		seen := map[EventID]bool{}
		for i := range iter {
			for seen[iter[i]] {
				iter[i] = EventID(rng.Intn(200) + 1)
			}
			seen[iter[i]] = true
		}
		b := NewBuilder(20 * us)
		d := NewDetector()
		ids, gaps := periodicStream(iter, 100*us, 2)
		// Two appearances: never predicting.
		feed(nil, b, d, ids, gaps)
		return !d.Predicting()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: on a periodic stream, once predicting, the predicted gap equals
// one of the observed gaps (conservative minimum of the window).
func TestDetectorGapPredictionProperty(t *testing.T) {
	f := func(gapsRaw [3]uint16) bool {
		g1 := time.Duration(gapsRaw[0]%400+50) * us
		b := NewBuilder(20 * us)
		d := NewDetector()
		ids, gaps := periodicStream([]EventID{1, 2}, g1, 10)
		feed(nil, b, d, ids, gaps)
		if !d.Predicting() {
			return false
		}
		got := d.PredictedGapAfterExpected()
		return got >= g1 && got <= g1+2*us
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDetectorStatsPatternList(t *testing.T) {
	b := NewBuilder(20 * us)
	d := NewDetector()
	ids, gaps := periodicStream([]EventID{1, 2}, 100*us, 6)
	feed(t, b, d, ids, gaps)
	keys := map[string]bool{}
	for _, p := range d.detected {
		keys[p.Key()] = true
	}
	if n := len(keys); n == 0 || n != d.Stats().PatternListSize {
		t.Errorf("pattern list holds %d distinct patterns, Stats reports %d", n, d.Stats().PatternListSize)
	}
}

func TestExpectedGramIDs(t *testing.T) {
	b := NewBuilder(20 * us)
	d := NewDetector()
	var ids []EventID
	var gaps []time.Duration
	for it := 0; it < 5; it++ {
		ids = append(ids, 41, 41, 10)
		gaps = append(gaps, 300*us, 5*us, 200*us)
	}
	feed(t, b, d, ids, gaps)
	if !d.Predicting() {
		t.Fatal("not predicting")
	}
	exp, ok := d.Expected()
	if !ok {
		t.Fatal("no expected gram")
	}
	key := GramKey([]EventID(exp))
	if key != "41-41" && key != "10" {
		t.Errorf("expected gram %q is not part of the pattern", key)
	}
}

// Property: arbitrary (non-periodic) random streams never crash the
// detector, keep counters consistent, and bound the pattern list by the
// number of distinct tails seen.
func TestDetectorRandomStreamRobustness(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(20 * us)
		d := NewDetector()
		count := int(n%500) + 10
		for i := 0; i < count; i++ {
			gap := time.Duration(rng.Intn(400)) * us
			if g := b.Add(EventID(rng.Intn(6)+1), gap); g != nil {
				d.AddGram(g)
			}
		}
		if g := b.Flush(); g != nil {
			d.AddGram(g)
		}
		st := d.Stats()
		if st.PredictedGrams+st.Invocations > st.GramsFormed+st.WildcardGrams {
			return false
		}
		return st.PredictedCalls <= st.TotalCalls
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// feedGrams is feed returning a copy of every finalized gram.
func feedGrams(b *Builder, d *Detector, ids []EventID, gaps []time.Duration) []Gram {
	var grams []Gram
	add := func(g *Gram) {
		if g != nil {
			kept := *g
			kept.IDs = slices.Clone(g.IDs)
			grams = append(grams, kept)
			d.AddGram(g)
		}
	}
	for i, id := range ids {
		add(b.Add(id, gaps[i]))
	}
	add(b.Flush())
	return grams
}

// patternView is a pattern's state apart from its GramIDs.
type patternView struct {
	Freq, NumCalls int
	Detected       bool
	Gaps           []gapStat
}

// detectorView is a detector's state with every GramID replaced by the
// gram shape it stands for: a detector that kept its intern table across a
// Reset numbers shapes differently from a fresh one, and nothing else may
// differ.
type detectorView struct {
	Hist     []string // each ring slot: its gram shape and gap, or the raw entry if never written
	Total    int
	RunLen   []int
	Patterns map[string]patternView
	Detected []string // detected pattern keys, in detection order
	Known    []string // shapes in a detected pattern, sorted
	Active   string
	Phase    int
	Wildcard bool
	Stats    DetectorStats
}

func viewOf(d *Detector) detectorView {
	v := detectorView{Total: d.total, RunLen: d.runLen, Patterns: map[string]patternView{},
		Phase: d.phase, Wildcard: d.wildcard, Stats: d.Stats()}
	for slot, e := range d.hist {
		if slot < d.total { // written this run
			v.Hist = append(v.Hist, fmt.Sprint(GramKey([]EventID(d.defs[e.id])), "/", e.gap))
		} else {
			v.Hist = append(v.Hist, fmt.Sprint("raw ", e))
		}
	}
	for _, p := range d.detected {
		v.Patterns[p.Key()] = patternView{p.Freq, p.NumCalls, p.Detected, p.gaps}
	}
	for _, p := range d.detected {
		v.Detected = append(v.Detected, p.Key())
	}
	for id, ok := range d.known {
		if ok {
			v.Known = append(v.Known, GramKey([]EventID(d.defs[id])))
		}
	}
	slices.Sort(v.Known)
	if d.Predicting() {
		v.Active = d.Active().Key()
	}
	return v
}

// TestBuilderDetectorReset feeds one builder/detector pair, reset before
// every stream, a sequence of streams and compares each run with a fresh
// pair fed the same stream: grams, GT interval, statistics, pattern list,
// prediction state, history ring, run lengths and known shapes must all
// match, up to GramID numbering. The first stream freezes the pattern size
// at 3 and the second needs 5, which a detector that kept the freeze or its
// run lengths could not reach. The reset detector's intern table holds each
// shape of every stream so far exactly once.
func TestBuilderDetectorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rids []EventID
	var rgaps []time.Duration
	for i := 0; i < 300; i++ {
		rids = append(rids, EventID(rng.Intn(4)+1))
		rgaps = append(rgaps, time.Duration(rng.Intn(150))*us)
	}
	p3, g3 := periodicStream([]EventID{1, 2, 3}, 100*us, 10)
	p5, g5 := periodicStream([]EventID{4, 5, 6, 7, 8}, 100*us, 10)
	runs := []struct {
		gt     time.Duration
		ids    []EventID
		gaps   []time.Duration
		frozen int // the fresh detector's frozen pattern size
	}{
		{20 * us, p3, g3, 3},
		{20 * us, p5, g5, 5},
		{60 * us, rids, rgaps, 0},
		{102 * us, p5, g5, 3},
		{20 * us, p3, g3, 3},
	}
	b, d := NewBuilder(runs[0].gt), NewDetector()
	shapes := map[string]bool{}
	for i, run := range runs {
		if i > 0 {
			b.Reset(run.gt)
			d.Reset()
		}
		got := feedGrams(b, d, run.ids, run.gaps)
		fb, fd := NewBuilder(run.gt), NewDetector()
		want := feedGrams(fb, fd, run.ids, run.gaps)
		if f := fd.Stats().MaxPatternFrozen; f != run.frozen {
			t.Fatalf("run %d: fresh detector froze size %d, want %d", i, f, run.frozen)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: reset builder formed %d grams, differing from a fresh builder's %d", i, len(got), len(want))
		}
		if lo, hi := b.GTInterval(); b.gt != fb.gt || lo != fb.lo || hi != fb.hi {
			t.Errorf("run %d: GT %v interval (%v, %v], want %v (%v, %v]", i, b.gt, lo, hi, fb.gt, fb.lo, fb.hi)
		}
		if got, want := viewOf(d), viewOf(fd); !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: reset detector\n%+v\nwant a fresh detector's\n%+v", i, got, want)
		}
		for _, g := range got {
			shapes[string(g.IDs)] = true
		}
		if len(d.defs) != len(shapes) || len(d.gramIDs) != len(shapes) || len(d.known) != len(shapes) {
			t.Errorf("run %d: intern table holds %d shapes (%d keys, %d known flags), want the %d seen so far",
				i, len(d.defs), len(d.gramIDs), len(d.known), len(shapes))
		}
		for id, shape := range d.defs {
			if d.gramIDs[shape] != GramID(id) {
				t.Errorf("run %d: shape %q interned as %d, defined as %d", i, shape, d.gramIDs[shape], id)
			}
		}
	}
}

// TestDetectorResetReusesPatterns checks that a reset detector keeps its
// pattern table without letting it show: a run over streams an earlier run
// already detected allocates no pattern (nor anything else), while each
// run's view, the pattern list and PatternListSize included, equals a fresh
// detector's fed the same grams. The middle stream detects another
// pattern, so the first run's pattern is left over while it runs.
func TestDetectorResetReusesPatterns(t *testing.T) {
	ids3, gaps3 := periodicStream([]EventID{1, 2, 3}, 100*us, 10)
	ids5, gaps5 := periodicStream([]EventID{4, 5, 6, 7, 8}, 100*us, 6)
	p3 := feedGrams(NewBuilder(20*us), NewDetector(), ids3, gaps3)
	p5 := feedGrams(NewBuilder(20*us), NewDetector(), ids5, gaps5)
	feed := func(d *Detector, grams []Gram) {
		for k := range grams {
			d.AddGram(&grams[k])
		}
	}
	check := func(name string, d *Detector, grams []Gram) {
		t.Helper()
		fd := NewDetector()
		feed(fd, grams)
		if fd.Stats().PatternListSize == 0 {
			t.Fatalf("%s: the fresh detector found no pattern; the check would be vacuous", name)
		}
		if got, want := viewOf(d), viewOf(fd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reset detector\n%+v\nwant a fresh detector's\n%+v", name, got, want)
		}
	}
	d := NewDetector()
	feed(d, p3)
	check("first run", d, p3)
	known := len(d.plByIDs)
	d.Reset()
	feed(d, p5)
	check("second run", d, p5)
	if len(d.plByIDs) <= known {
		t.Fatalf("the second stream added no pattern to the table (%d held)", len(d.plByIDs))
	}
	known = len(d.plByIDs)
	allocs := testing.AllocsPerRun(5, func() {
		d.Reset()
		feed(d, p3)
	})
	if allocs != 0 {
		t.Errorf("a reset run over known patterns allocated %.1f times, want 0", allocs)
	}
	check("re-run", d, p3)
	if len(d.plByIDs) != known {
		t.Errorf("pattern table holds %d patterns after the re-run, want the %d known before", len(d.plByIDs), known)
	}
}

func ExampleGramKey() {
	fmt.Println(GramKey([]EventID{41, 41, 41}))
	fmt.Println(GramKey([]EventID{10}))
	// Output:
	// 41-41-41
	// 10
}
