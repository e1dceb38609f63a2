package stats

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// SeriesID indexes one registered series of a TimeSeries.
type SeriesID int32

// TimeSeries is an interval-bucketed telemetry recorder: every registered
// series owns a preallocated ring of fixed-width time buckets plus a
// run-wide Sketch, and the record path touches only those — 0 allocs/op.
//
// Memory stays bounded for arbitrarily long runs by tick doubling: when a
// sample lands past the last bucket, the tick width doubles and adjacent
// bucket pairs fold together in place, halving the resolution but keeping
// whole-run coverage in the same storage. The fold schedule is a pure
// function of the recorded data, so two identical event streams always
// produce identical buckets — the determinism rule replay telemetry relies
// on (see DESIGN.md §"Streaming telemetry").
//
// Two series kinds exist. A sample series (AddSeries) records point values:
// the bucket accumulates count and compensated sum, so sum/count is the
// per-interval mean and the sketch summarizes the value distribution. A
// span series (AddSpanSeries) records a weight spread over [t0, t1)
// proportionally to bucket overlap — link busy seconds, low-power
// link-seconds — and its sketch summarizes the per-span weights.
//
// A mirror (AddSpanMirror) is a span series whose per-span weights are
// known to equal, one for one and in the same order, those of an earlier
// span series, its leader: replay telemetry's switch→terminal links carry
// exactly the spans of the terminal→switch links, for instance. A mirror
// fills its own buckets, but the applier skips its sketch update, and every
// reader (Sketch, Snapshot, WriteProm) reports the leader's sketch for it:
// the same sketch the mirror would have computed, for one set of P² updates
// instead of two. The caller vouches for the equality; nothing checks it.
//
// Recording is pipelined. Record and RecordSpan only append the call to a
// batch; full batches queue, in order, for one applier goroutine that runs
// the bucket and sketch updates while the caller keeps simulating, and
// exits once the queue drains. Every reader, and AddSeries, first settles:
// it waits for the applier and applies the partial batch itself. Each
// update therefore happens once, in record order, with the same float
// operations as a direct call, and a reader never sees a partly applied
// stream. Like any unsynchronized value, a TimeSeries is recorded and read
// by one goroutine at a time.
type TimeSeries struct {
	// Applied state: owned by the applier goroutine while batches are
	// queued and by the caller once it has settled.
	tick       time.Duration
	maxBuckets int
	used       int // buckets in use: highest touched index + 1
	s          []tsSeries

	// The producer writes its fields on every record. On the applied
	// state's cache line, each write would bounce that line between the
	// two cores (EXPERIMENTS.md E26).
	_ [64]byte

	// Producer state: touched only by the recording goroutine.
	cur []tsOp // batch being filled
	n   int    // ops in cur
	q   tsQueue
}

// Pipeline sizing: records travel in batches of tsBatchLen ops, and a
// recorder owns tsBatches batches (2 MB), allocated once at construction so
// the record path never allocates. When every batch is full or being
// applied, the recording goroutine waits for the applier.
const (
	tsBatchLen = 4096
	tsBatches  = 16
)

// tsOp is one deferred Record (span false, t1 unused) or RecordSpan call.
type tsOp struct {
	id     SeriesID
	span   bool
	t0, t1 time.Duration
	w      float64
}

// tsQueue hands full batches from the recording goroutine to the applier
// in arrival order.
type tsQueue struct {
	mu         sync.Mutex
	cond       sync.Cond         // a batch was freed, or the applier exited
	full       [tsBatches][]tsOp // FIFO ring of batches awaiting apply
	head, size int               // ring position and occupancy
	free       [][]tsOp          // batches ready to fill
	running    bool              // an applier goroutine owns the applied state
	applier    func()            // ts.drain, bound once so starting it allocates nothing
}

type tsSeries struct {
	name  string
	unit  string
	span  bool
	skOf  SeriesID  // whose sketch this series reports: itself, or its leader
	sk    Sketch    // unused by a mirror
	count []int64   // per-bucket samples (or overlapping spans)
	sum   []float64 // per-bucket compensated sum (or span weight)
	comp  []float64 // per-bucket Neumaier compensation for sum
}

// NewTimeSeries returns a recorder with the given initial bucket width and
// per-series bucket capacity. tick must be positive; maxBuckets is clamped
// to at least 2 (folding needs a pair).
func NewTimeSeries(tick time.Duration, maxBuckets int) *TimeSeries {
	if tick <= 0 {
		panic(fmt.Sprintf("stats: non-positive time series tick %v", tick))
	}
	if maxBuckets < 2 {
		maxBuckets = 2
	}
	ts := &TimeSeries{tick: tick, maxBuckets: maxBuckets}
	pool := make([]tsOp, tsBatches*tsBatchLen)
	ts.cur = pool[:tsBatchLen:tsBatchLen]
	ts.q.free = make([][]tsOp, 0, tsBatches)
	for i := 1; i < tsBatches; i++ {
		ts.q.free = append(ts.q.free, pool[i*tsBatchLen:(i+1)*tsBatchLen:(i+1)*tsBatchLen])
	}
	ts.q.cond.L = &ts.q.mu
	ts.q.applier = ts.drain
	return ts
}

// AddSeries registers a sample series and returns its ID. All series must
// be registered before recording begins; registration allocates the
// series' whole bucket ring up front.
func (ts *TimeSeries) AddSeries(name, unit string) SeriesID {
	return ts.add(name, unit, false, -1)
}

// AddSpanSeries registers a span series (see the type comment).
func (ts *TimeSeries) AddSpanSeries(name, unit string) SeriesID {
	return ts.add(name, unit, true, -1)
}

// AddSpanMirror registers a span series that mirrors leader's sketch (see
// the type comment): the caller guarantees that the weights recorded on the
// new series equal, in order, those recorded on leader. leader must be a
// registered span series that mirrors no other; anything else panics.
func (ts *TimeSeries) AddSpanMirror(name, unit string, leader SeriesID) SeriesID {
	if uint(leader) >= uint(len(ts.s)) || !ts.s[leader].span || ts.s[leader].skOf != leader {
		panic(fmt.Sprintf("stats: mirror %q of series %d, which is no registered leading span series", name, leader))
	}
	return ts.add(name, unit, true, leader)
}

// add registers a series; leader < 0 gives it its own sketch.
func (ts *TimeSeries) add(name, unit string, span bool, leader SeriesID) SeriesID {
	ts.settle()
	id := SeriesID(len(ts.s))
	if leader < 0 {
		leader = id
	}
	se := tsSeries{
		name: name, unit: unit, span: span, skOf: leader,
		count: make([]int64, ts.maxBuckets),
		sum:   make([]float64, ts.maxBuckets),
		comp:  make([]float64, ts.maxBuckets),
	}
	se.sk.Init()
	ts.s = append(ts.s, se)
	return id
}

// Tick returns the current bucket width (it grows by doubling).
func (ts *TimeSeries) Tick() time.Duration {
	ts.settle()
	return ts.tick
}

// Buckets returns the number of buckets in use.
func (ts *TimeSeries) Buckets() int {
	ts.settle()
	return ts.used
}

// NumSeries returns the number of registered series.
func (ts *TimeSeries) NumSeries() int { return len(ts.s) }

// Name returns the series name.
func (ts *TimeSeries) Name(id SeriesID) string { return ts.s[id].name }

// Unit returns the series unit label.
func (ts *TimeSeries) Unit(id SeriesID) string { return ts.s[id].unit }

// Sketch returns the series' run-wide sketch; a mirror's is its leader's.
// The pointer aliases live state and is valid until the next Record or
// RecordSpan, after which the applier may be updating it: read it again
// through Sketch. Callers must not Add through it.
func (ts *TimeSeries) Sketch(id SeriesID) *Sketch {
	ts.settle()
	return ts.sketch(id)
}

// sketch returns the sketch series id reports, its own or its leader's.
func (ts *TimeSeries) sketch(id SeriesID) *Sketch { return &ts.s[ts.s[id].skOf].sk }

// BucketCount returns the sample (or overlapping-span) count of bucket b.
func (ts *TimeSeries) BucketCount(id SeriesID, b int) int64 {
	ts.settle()
	return ts.s[id].count[b]
}

// BucketSum returns the compensated value sum (or span weight) of bucket b.
func (ts *TimeSeries) BucketSum(id SeriesID, b int) float64 {
	ts.settle()
	return ts.s[id].sum[b] + ts.s[id].comp[b]
}

// Lookup returns the ID of the named series.
func (ts *TimeSeries) Lookup(name string) (SeriesID, bool) {
	for i := range ts.s {
		if ts.s[i].name == name {
			return SeriesID(i), true
		}
	}
	return 0, false
}

// Record adds one sample at time t. Non-finite values are ignored. The
// path is allocation-free; the sample reaches its bucket and sketch on the
// applier (see the type comment).
func (ts *TimeSeries) Record(id SeriesID, t time.Duration, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	ts.push(tsOp{id: id, t0: t, w: v})
}

// RecordSpan adds weight w spread over [t0, t1) proportionally to bucket
// overlap; a zero-length span lands entirely in t0's bucket. The sketch
// absorbs w once. Non-finite weights are ignored. The path is
// allocation-free.
func (ts *TimeSeries) RecordSpan(id SeriesID, t0, t1 time.Duration, w float64) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return
	}
	ts.push(tsOp{id: id, span: true, t0: t0, t1: t1, w: w})
}

// push appends op to the batch being filled and hands the batch to the
// applier once it is full, so cur always has room.
func (ts *TimeSeries) push(op tsOp) {
	if uint(op.id) >= uint(len(ts.s)) { // panic here, not on the applier
		panic(fmt.Sprintf("stats: record to unregistered series %d", op.id))
	}
	ts.cur[ts.n] = op
	if ts.n++; ts.n == len(ts.cur) {
		ts.flush()
	}
}

// flush queues the full batch, starts the applier if none is running, and
// takes a free batch, waiting for the applier when none is free.
func (ts *TimeSeries) flush() {
	q := &ts.q
	q.mu.Lock()
	q.full[(q.head+q.size)%tsBatches] = ts.cur
	q.size++
	if !q.running {
		q.running = true
		go q.applier()
	}
	for len(q.free) == 0 {
		q.cond.Wait()
	}
	ts.cur = q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	q.mu.Unlock()
	ts.n = 0
}

// drain is the applier goroutine: it applies the queued batches in arrival
// order and exits when the queue is empty, so no goroutine outlives its
// work, even for a recorder that is never read.
func (ts *TimeSeries) drain() {
	q := &ts.q
	q.mu.Lock()
	for q.size > 0 {
		b := q.full[q.head]
		q.head = (q.head + 1) % tsBatches
		q.size--
		q.mu.Unlock()
		ts.apply(b)
		q.mu.Lock()
		q.free = append(q.free, b)
		q.cond.Broadcast()
	}
	q.running = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// settle brings the applied state up to date with every record so far:
// it waits for the applier to exit, then applies the partial batch on the
// caller's goroutine.
func (ts *TimeSeries) settle() {
	q := &ts.q
	q.mu.Lock()
	for q.running {
		q.cond.Wait()
	}
	q.mu.Unlock()
	if ts.n > 0 {
		ts.apply(ts.cur[:ts.n])
		ts.n = 0
	}
}

// apply performs the deferred calls of one batch in order.
func (ts *TimeSeries) apply(ops []tsOp) {
	for i := range ops {
		op := &ops[i]
		if op.span {
			ts.recordSpan(op.id, op.t0, op.t1, op.w)
		} else {
			ts.record(op.id, op.t0, op.w)
		}
	}
}

// bucket returns the bucket index for time t, folding the ring as often as
// needed to bring t inside it. Negative times clamp to bucket 0.
func (ts *TimeSeries) bucket(t time.Duration) int {
	if t < 0 {
		t = 0
	}
	b := int(t / ts.tick)
	for b >= ts.maxBuckets {
		ts.fold()
		b = int(t / ts.tick)
	}
	if b >= ts.used {
		ts.used = b + 1
	}
	return b
}

// fold doubles the tick and merges adjacent bucket pairs in place.
func (ts *TimeSeries) fold() {
	ts.tick *= 2
	half := (ts.used + 1) / 2
	for i := range ts.s {
		se := &ts.s[i]
		for j := 0; j < half; j++ {
			a, b := 2*j, 2*j+1
			cnt, sum, comp := se.count[a], se.sum[a], se.comp[a]
			if b < ts.used {
				cnt += se.count[b]
				sum, comp = neumaierAdd(sum, comp, se.sum[b])
				sum, comp = neumaierAdd(sum, comp, se.comp[b])
			}
			se.count[j], se.sum[j], se.comp[j] = cnt, sum, comp
		}
		for j := half; j < ts.used; j++ {
			se.count[j], se.sum[j], se.comp[j] = 0, 0, 0
		}
	}
	ts.used = half
}

// record applies one finite sample.
func (ts *TimeSeries) record(id SeriesID, t time.Duration, v float64) {
	se := &ts.s[id]
	se.sk.add(v)
	b := ts.bucket(t)
	se.count[b]++
	se.sum[b], se.comp[b] = neumaierAdd(se.sum[b], se.comp[b], v)
}

// recordSpan applies one finite span weight; a mirror's sketch update is
// skipped, since its leader's sketch already absorbs the same weight.
func (ts *TimeSeries) recordSpan(id SeriesID, t0, t1 time.Duration, w float64) {
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	se := &ts.s[id]
	if se.skOf == id {
		se.sk.add(w)
	}
	if t0 < 0 {
		t0 = 0
	}
	if t1 < 0 {
		t1 = 0
	}
	// The last covered bucket is the one containing t1's final nanosecond;
	// a span ending exactly on a boundary must not open the next bucket.
	end := t1
	if end > t0 {
		end--
	}
	b1 := ts.bucket(end)
	b0 := int(t0 / ts.tick) // tick is settled now: t0 <= end always fits
	if b0 == b1 || t1 == t0 {
		se.count[b0]++
		se.sum[b0], se.comp[b0] = neumaierAdd(se.sum[b0], se.comp[b0], w)
		return
	}
	span := float64(t1 - t0)
	for b := b0; b <= b1; b++ {
		lo := time.Duration(b) * ts.tick
		hi := lo + ts.tick
		if hi < lo { // the last bucket's edge lies past MaxInt64
			hi = math.MaxInt64
		}
		if t0 > lo {
			lo = t0
		}
		if t1 < hi {
			hi = t1
		}
		if hi <= lo {
			continue
		}
		se.count[b]++
		part := w * float64(hi-lo) / span
		se.sum[b], se.comp[b] = neumaierAdd(se.sum[b], se.comp[b], part)
	}
}
