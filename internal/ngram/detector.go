package ngram

import "time"

// MaxPatternSize bounds pattern growth before a pattern is detected.
// Once a pattern is detected, maxPatternSize is frozen to the detected size
// so that later iterations are predicted from recent timings rather than
// merging many iterations into one huge pattern (Algorithm 2, line 32).
const MaxPatternSize = 16

// window is the gram history ring's capacity: a fresh detection needs three
// consecutive occurrences of a pattern of at most MaxPatternSize grams.
const window = 3 * MaxPatternSize

// GramID is a dense identifier a detector interns for a gram shape (its
// sequence of event IDs). Interning happens once per distinct shape per
// detector, which keeps its table across Reset; every hot comparison the
// detector performs afterwards (periodicity run lengths, pattern matching,
// re-anchoring) is an integer comparison instead of a slice comparison.
type GramID uint32

// DetectorStats aggregates PPA bookkeeping used by Table IV and Table III.
type DetectorStats struct {
	GramsFormed      int // grams fed to the detector
	Invocations      int // grams processed with full PPA active (prediction off)
	Detections       int // patterns declared detected (fresh)
	Reactivations    int // immediate re-predictions of a known pattern
	Mispredictions   int // pattern mispredictions (gram mismatch)
	WildcardGrams    int // mismatched grams absorbed as one-off substitutions
	PredictedGrams   int // grams matched while predicting
	PredictedCalls   int // MPI calls inside matched grams
	TotalCalls       int // MPI calls inside all grams fed
	PatternListSize  int // live entries in the pattern list
	MaxPatternFrozen int // frozen maxPatternSize (0 if never detected)
}

// histEntry is one gram observation in the bounded history ring.
type histEntry struct {
	id  GramID
	gap time.Duration // idle time before the gram
}

// Detector implements the pattern prediction algorithm over a stream of
// finalized grams. Detector memory is O(detection window + distinct grams +
// pattern list), not O(trace): the gram history is a ring of window
// entries, which is exactly how far the algorithm ever looks back
// (re-anchoring walks back at most MaxPatternSize grams).
type Detector struct {
	maxSize int
	frozen  bool

	// Gram intern table, keyed by a shape's raw event-ID bytes: the only
	// map[string] lookup on the per-gram path. It outlives Reset, so a
	// detector serving a sequence of runs pays each shape's miss once.
	gramIDs map[string]GramID
	defs    []string // GramID -> raw event-ID bytes (the gramIDs key)
	known   []bool   // GramID -> appears in a detected pattern

	// hist holds the last `window` grams: the gram with absolute index i
	// (i < total) lives at hist[i%window] while i >= total-window.
	hist   []histEntry
	total  int
	runLen []int // runLen[s] = trailing length of matches gram[i]==gram[i-s]

	// plByIDs is the pattern table, keyed by packed GramID bytes
	// (alloc-free lookup). Like the intern table it outlives Reset. Every
	// pattern is detected the moment it enters the table, so the pattern
	// list of the current run is exactly detected: a pattern with Detected
	// false was left by an earlier run and counts as absent.
	plByIDs  map[string]*Pattern
	idKey    []byte     // plByIDs lookup scratch
	detected []*Pattern // the current run's patterns, for fast re-prediction

	active   *Pattern
	phase    int  // index in active of the next expected gram
	wildcard bool // the last gram was accepted as a one-off substitution

	cands []reanchorCand // reanchor scratch, reused across invocations

	stats DetectorStats
}

// NewDetector returns a detector whose patterns grow to at most
// MaxPatternSize grams until the first detection freezes the size.
func NewDetector() *Detector {
	return &Detector{
		maxSize: MaxPatternSize,
		gramIDs: make(map[string]GramID),
		hist:    make([]histEntry, window),
		runLen:  make([]int, MaxPatternSize+1),
		plByIDs: make(map[string]*Pattern),
	}
}

// Reset returns the detector to the state NewDetector constructs, keeping
// its tables' storage, so one detector can serve a sequence of runs. It has
// two callers, both through predictor.Reuse: a pool worker of
// predictor.RunOfflineGrid resets its detector for every n-gram run, and a
// replay session (replay.Churn) resets each finished rank's detector for a
// rank of a later admission, whatever app that rank runs. The gram intern
// table is kept too: GramIDs then differ from a fresh detector's, but they
// only ever meet in equality tests, so the detector behaves identically.
// The pattern list keeps its patterns as well, so a run that detects a
// pattern an earlier run knew re-initializes it in place instead of
// allocating; until then it is absent from Stats and Patterns. A pattern
// from before the Reset must not be used after it.
func (d *Detector) Reset() {
	hist, runLen := d.hist, d.runLen[:cap(d.runLen)]
	// AddGram writes both before reading them; zeroing them anyway leaves
	// exactly NewDetector's state.
	clear(hist)
	clear(runLen)
	clear(d.known)
	for _, p := range d.detected {
		p.Detected = false
	}
	clear(d.detected)
	clear(d.cands[:cap(d.cands)])
	*d = Detector{
		maxSize:  MaxPatternSize,
		gramIDs:  d.gramIDs,
		defs:     d.defs,
		known:    d.known,
		hist:     hist,
		runLen:   runLen,
		plByIDs:  d.plByIDs,
		idKey:    d.idKey[:0],
		detected: d.detected[:0],
		cands:    d.cands[:0],
	}
}

// gramAt returns the gram ID at absolute history index i; i must be within
// the last `window` grams.
func (d *Detector) gramAt(i int) GramID { return d.hist[i%window].id }

// gapAt returns the idle time before the gram at absolute history index i.
func (d *Detector) gapAt(i int) time.Duration { return d.hist[i%window].gap }

// intern maps a gram to its dense ID, assigning a new one for a first-seen
// shape. After the first appearance this is a single map lookup with no
// allocation; a miss copies the gram's IDs once into a string that serves
// as both the map key and the definition.
func (d *Detector) intern(g *Gram) GramID {
	if id, ok := d.gramIDs[string(g.IDs)]; ok {
		return id
	}
	shape := string(g.IDs)
	id := GramID(len(d.defs))
	d.gramIDs[shape] = id
	d.defs = append(d.defs, shape)
	d.known = append(d.known, false)
	return id
}

// Predicting reports whether a detected pattern is currently driving
// predictions (the power mode control component is active).
func (d *Detector) Predicting() bool { return d.active != nil }

// Active returns the pattern currently driving predictions, or nil.
func (d *Detector) Active() *Pattern { return d.active }

// Expected returns the raw event-ID bytes of the next expected gram while
// predicting: string(ids) == exp tells whether the events ids match it,
// without allocating.
func (d *Detector) Expected() (string, bool) {
	if d.active == nil {
		return "", false
	}
	return d.defs[d.active.ids[d.phase]], true
}

// PredictedGapAfterExpected returns the conservative idle estimate that
// follows the currently expected gram (the gap before the pattern's next
// gram): the minimum over the recent observation window. Zero means no
// estimate is available.
func (d *Detector) PredictedGapAfterExpected() time.Duration {
	if d.active == nil {
		return 0
	}
	next := (d.phase + 1) % d.active.Size()
	return d.active.SafeGap(next)
}

// Stats returns a snapshot of detector statistics.
func (d *Detector) Stats() DetectorStats {
	s := d.stats
	s.PatternListSize = len(d.detected)
	s.MaxPatternFrozen = d.FrozenSize()
	return s
}

// FrozenSize returns DetectorStats.MaxPatternFrozen without copying the
// statistics: the frozen maximum pattern size, or 0 before any detection.
func (d *Detector) FrozenSize() int {
	if d.frozen {
		return d.maxSize
	}
	return 0
}

// CallCounts returns DetectorStats.PredictedCalls and TotalCalls without
// copying the statistics.
func (d *Detector) CallCounts() (predicted, total int) {
	return d.stats.PredictedCalls, d.stats.TotalCalls
}

// AddGram feeds one finalized gram. It returns true when this gram switched
// the detector into (or kept it in) prediction mode. In steady state —
// predicting an already-detected pattern over already-interned grams — this
// path performs no allocation.
func (d *Detector) AddGram(g *Gram) bool {
	d.stats.GramsFormed++
	d.stats.TotalCalls += g.NumCalls()
	id := d.intern(g)
	i := d.total
	d.hist[i%window] = histEntry{id: id, gap: g.GapBefore}
	d.total++

	// Maintain periodicity run lengths. While the power mode control
	// component is active the core of the prediction part is disabled
	// (Section III); we still keep runLen consistent so that a later
	// misprediction can restart detection without a cold start.
	for s := 1; s <= d.maxSize; s++ {
		if i >= s && id == d.gramAt(i-s) {
			d.runLen[s]++
		} else {
			d.runLen[s] = 0
		}
	}

	if d.active != nil {
		if id == d.active.ids[d.phase] {
			// Correct prediction: refresh the timing estimate for this gap
			// and advance to the next gram of the pattern.
			d.active.ObserveGap(d.phase, g.GapBefore)
			if d.phase == 0 {
				d.active.Freq++
			}
			d.phase = (d.phase + 1) % d.active.Size()
			d.wildcard = false
			d.stats.PredictedGrams++
			d.stats.PredictedCalls += g.NumCalls()
			return true
		}
		d.stats.Mispredictions++
		// One-off substitution: a mismatched gram that belongs to no
		// detected pattern (e.g. an alternative communication variant of
		// the same iteration slot) advances the phase instead of dropping
		// prediction, so the regular grams around it stay predicted. A
		// second consecutive mismatch deactivates. This is the timing-style
		// misprediction of Section III-B that does not force a PPA restart.
		if !d.wildcard && !d.known[id] {
			d.wildcard = true
			d.phase = (d.phase + 1) % d.active.Size()
			d.stats.WildcardGrams++
			return true
		}
		// Pattern misprediction: relaunch the pattern prediction part
		// (Section III-B: "the patternPrediction variable is set to False
		// and the pattern prediction part is relaunched again").
		d.active = nil
		d.phase = 0
		d.wildcard = false
	}

	// Full PPA runs on this gram.
	d.stats.Invocations++

	// Immediate re-prediction: a previously detected pattern that appears
	// again is declared repeatable on its first new appearance — without
	// waiting for three consecutive repeats (Section III-A policy). The
	// current gram is aligned against every detected pattern; ambiguity is
	// resolved by looking further back in the gram stream and finally by
	// pattern frequency.
	if d.reanchor(i, id) {
		return true
	}

	// Fresh detection: smallest period s whose pattern occupies the tail
	// three consecutive times (runLen >= 2s means grams[i-2s+1..i] repeat
	// the s-gram twice after its first appearance).
	for s := 2; s <= d.maxSize; s++ {
		if i+1 < 3*s || d.runLen[s] < 2*s {
			continue
		}
		d.detect(s, i)
		return true
	}
	return false
}

// reanchorCand is one (pattern, phase) alignment of the current gram.
type reanchorCand struct {
	p *Pattern
	q int // phase of the matched gram inside p
}

// reanchor tries to resume prediction at the gram ending at index i by
// locating it inside a previously detected pattern. It returns true when a
// pattern was (re)activated with the phase advanced past the matched gram.
func (d *Detector) reanchor(i int, id GramID) bool {
	cands := d.cands[:0]
	for _, p := range d.detected {
		for q, gid := range p.ids {
			if gid == id {
				cands = append(cands, reanchorCand{p, q})
			}
		}
	}
	d.cands = cands[:0] // keep grown scratch capacity for the next call
	if len(cands) == 0 {
		return false
	}
	// Disambiguate by walking backwards through the gram stream; the depth
	// never exceeds the history window.
	for depth := 1; len(cands) > 1 && depth <= d.maxSize && i-depth >= 0; depth++ {
		prev := d.gramAt(i - depth)
		// In-place compaction: the write index never passes the read index,
		// and when nothing matches the original candidates stay intact.
		filtered := cands[:0]
		for _, c := range cands {
			s := c.p.Size()
			idx := ((c.q-depth)%s + s) % s
			if c.p.ids[idx] == prev {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			break // history diverges from every candidate; keep all, use frequency
		}
		cands = filtered
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.p.Freq > best.p.Freq {
			best = c
		}
	}
	d.active = best.p
	d.phase = (best.q + 1) % best.p.Size()
	d.wildcard = false
	d.stats.Reactivations++
	return true
}

// detect declares the s-gram pattern ending at index i as predicted.
func (d *Detector) detect(s, i int) {
	// Re-detections of a known pattern (the common case after a prediction
	// relaunch) resolve through the packed-ID index without allocating.
	d.idKey = d.idKey[:0]
	for j := 0; j < s; j++ {
		gid := d.gramAt(i - s + 1 + j)
		d.idKey = append(d.idKey, byte(gid), byte(gid>>8), byte(gid>>16), byte(gid>>24))
	}
	p, ok := d.plByIDs[string(d.idKey)] // alloc-free lookup on repeats
	if !ok {
		ids := make([]GramID, s)
		nc := 0
		for j := 0; j < s; j++ {
			ids[j] = d.gramAt(i - s + 1 + j)
			nc += len(d.defs[ids[j]])
		}
		// The gram table only grows, so its entries render this
		// pattern's key.
		p = newPattern(ids, d.defs, nc)
		d.plByIDs[string(d.idKey)] = p
	}
	if !p.Detected {
		// New, or left by an earlier run: the same GramIDs name the same
		// grams, so only the run's own state starts afresh.
		p.Freq = 0
		clear(p.gaps)
		p.Detected = true
		d.detected = append(d.detected, p)
		d.stats.Detections++
		for _, gid := range p.ids {
			d.known[gid] = true
		}
	}
	// Freeze the maximum pattern size to the natural iteration size so the
	// algorithm does not keep merging iterations into ever larger patterns.
	// The history window keeps its capacity; only the lookback shrinks.
	if !d.frozen || s < d.maxSize {
		d.maxSize = s
		d.frozen = true
	}
	// Seed gap averages from the three observed occurrences. Occurrence o
	// starts at i-(3-o)*s+1 for o in 1..3; gram j of occurrence o sits at
	// start+j. The gap before the first gram of the first occurrence may
	// predate the periodic region, so it is skipped. All three occurrences
	// lie within the history window.
	p.Freq += 3
	for o := 0; o < 3; o++ {
		start := i - (3-o)*s + 1
		if start < 0 {
			continue
		}
		for j := 0; j < s; j++ {
			if o == 0 && j == 0 {
				continue
			}
			p.ObserveGap(j, d.gapAt(start+j))
		}
	}
	// Switch to prediction mode: the gram at index i is the last gram of an
	// appearance of p, so the next expected gram is p's first.
	d.active = p
	d.phase = 0
	d.wildcard = false
}
