package stats

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTimeSeriesRegistration(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 16)
	a := ts.AddSeries("queue.depth", "jobs")
	b := ts.AddSpanSeries("util.up", "busy-seconds")
	if ts.NumSeries() != 2 {
		t.Fatalf("NumSeries = %d", ts.NumSeries())
	}
	if ts.Name(a) != "queue.depth" || ts.Unit(a) != "jobs" || ts.s[a].span {
		t.Errorf("series a metadata wrong: %q %q span=%v", ts.Name(a), ts.Unit(a), ts.s[a].span)
	}
	if !ts.s[b].span {
		t.Error("span series not marked as span")
	}
	if id, ok := ts.Lookup("util.up"); !ok || id != b {
		t.Errorf("Lookup(util.up) = %v, %v", id, ok)
	}
	if _, ok := ts.Lookup("nope"); ok {
		t.Error("Lookup of unknown series succeeded")
	}
}

func TestTimeSeriesRecordBuckets(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 16)
	id := ts.AddSeries("v", "x")
	ts.Record(id, 0, 1)
	ts.Record(id, 500*time.Microsecond, 3)
	ts.Record(id, 2500*time.Microsecond, 10)
	ts.Record(id, -time.Second, 7) // clamps to bucket 0
	if ts.Buckets() != 3 {
		t.Fatalf("buckets = %d, want 3", ts.Buckets())
	}
	if c := ts.BucketCount(id, 0); c != 3 {
		t.Errorf("bucket 0 count = %d, want 3", c)
	}
	if s := ts.BucketSum(id, 0); s != 11 {
		t.Errorf("bucket 0 sum = %v, want 11", s)
	}
	if c, s := ts.BucketCount(id, 1), ts.BucketSum(id, 1); c != 0 || s != 0 {
		t.Errorf("empty bucket 1: count=%d sum=%v", c, s)
	}
	if c, s := ts.BucketCount(id, 2), ts.BucketSum(id, 2); c != 1 || s != 10 {
		t.Errorf("bucket 2: count=%d sum=%v", c, s)
	}
	if n := ts.Sketch(id).Count(); n != 4 {
		t.Errorf("sketch count = %d, want 4", n)
	}
	ts.Record(id, time.Millisecond, math.NaN())
	if ts.Sketch(id).Count() != 4 || ts.BucketCount(id, 1) != 0 {
		t.Error("non-finite sample reached a bucket")
	}
}

// TestTimeSeriesRecordSpan pins proportional weight spreading: a span
// covering 2.5 buckets deposits weight by bucket overlap, a span ending
// exactly on a boundary does not open the next bucket, and a zero-length
// span lands entirely in its start bucket.
func TestTimeSeriesRecordSpan(t *testing.T) {
	tick := time.Millisecond
	ts := NewTimeSeries(tick, 16)
	id := ts.AddSpanSeries("busy", "s")

	// [0.5ms, 3ms): covers half of bucket 0, all of 1 and 2.
	ts.RecordSpan(id, tick/2, 3*tick, 2.5)
	if ts.Buckets() != 3 {
		t.Fatalf("buckets = %d, want 3 (boundary-ending span opened bucket 3)", ts.Buckets())
	}
	for b, want := range []float64{0.5, 1.0, 1.0} {
		if got := ts.BucketSum(id, b); math.Abs(got-want) > 1e-12 {
			t.Errorf("bucket %d weight = %v, want %v", b, got, want)
		}
		if c := ts.BucketCount(id, b); c != 1 {
			t.Errorf("bucket %d span count = %d, want 1", b, c)
		}
	}
	if n := ts.Sketch(id).Count(); n != 1 {
		t.Errorf("sketch absorbed the span %d times", n)
	}

	// Zero-length span: all weight in the start bucket.
	ts.RecordSpan(id, 5*tick, 5*tick, 7)
	if got := ts.BucketSum(id, 5); got != 7 {
		t.Errorf("zero-length span weight = %v, want 7", got)
	}
	// Reversed endpoints swap.
	ts.RecordSpan(id, 8*tick, 7*tick, 4)
	if got := ts.BucketSum(id, 7); got != 4 {
		t.Errorf("reversed span weight = %v, want 4", got)
	}
	// Negative times clamp to zero.
	before := ts.BucketSum(id, 0)
	ts.RecordSpan(id, -2*tick, -tick, 9)
	if got := ts.BucketSum(id, 0) - before; math.Abs(got-9) > 1e-12 {
		t.Errorf("negative span deposited %v in bucket 0, want 9", got)
	}
}

// TestTimeSeriesFold drives the recorder past its ring and checks the tick
// doubles while per-series totals are conserved exactly (the folds use
// compensated addition).
func TestTimeSeriesFold(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 8)
	id := ts.AddSeries("v", "x")
	r := rand.New(rand.NewSource(3))
	var total float64
	var n int64
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		total += v
		n++
		ts.Record(id, time.Duration(i)*300*time.Microsecond, v)
	}
	// 1000 * 0.3ms = 300ms of run in 8 buckets: tick must have doubled to
	// at least 300ms/8, staying a power-of-two multiple of 1ms.
	if ts.Tick() < 300*time.Millisecond/8 || ts.Tick()%time.Millisecond != 0 {
		t.Errorf("tick after folding = %v", ts.Tick())
	}
	if ts.Buckets() > 8 {
		t.Errorf("buckets = %d, exceeds ring of 8", ts.Buckets())
	}
	var sum float64
	var cnt int64
	for b := 0; b < ts.Buckets(); b++ {
		sum += ts.BucketSum(id, b)
		cnt += ts.BucketCount(id, b)
	}
	if cnt != n {
		t.Errorf("folded counts total %d, want %d", cnt, n)
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("folded sums total %v, want %v", sum, total)
	}
}

// TestTimeSeriesDeterminism is the rule replay goldens rely on: identical
// record streams produce byte-identical JSON documents.
func TestTimeSeriesDeterminism(t *testing.T) {
	build := func() *TimeSeries {
		ts := NewTimeSeries(time.Millisecond, 8)
		a := ts.AddSeries("a", "x")
		b := ts.AddSpanSeries("b", "s")
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 500; i++ {
			at := time.Duration(i) * 777 * time.Microsecond
			ts.Record(a, at, r.NormFloat64())
			ts.RecordSpan(b, at, at+3*time.Millisecond, r.Float64())
		}
		return ts
	}
	var j1, j2 bytes.Buffer
	if err := build().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("identical record streams produced different JSON documents")
	}
	if !bytes.HasSuffix(j1.Bytes(), []byte("\n")) {
		t.Error("JSON document missing trailing newline")
	}
	doc := build().Snapshot()
	if doc.Version != TimeSeriesDocVersion {
		t.Errorf("snapshot version = %d, want %d", doc.Version, TimeSeriesDocVersion)
	}
	if doc.Buckets != len(doc.Series[0].Counts) || doc.Buckets != len(doc.Series[0].Sums) {
		t.Errorf("snapshot bucket arrays disagree with Buckets=%d", doc.Buckets)
	}
}

// TestTimeSeriesSpanNearMaxInt64 pins the last bucket's edge: on a span
// ending near math.MaxInt64, (b+1)·tick overflows, and the slice of the
// span in that bucket used to be dropped (the sum read 0.99526).
func TestTimeSeriesSpanNearMaxInt64(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 512)
	id := ts.AddSpanSeries("busy", "s")
	const century = 100 * 365 * 24 * time.Hour
	ts.RecordSpan(id, math.MaxInt64-century, math.MaxInt64, 1)
	var sum float64
	for b := 0; b < ts.Buckets(); b++ {
		sum += ts.BucketSum(id, b)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("span weight over the buckets = %v, want 1", sum)
	}
}

// recordStream records n calls of a fixed pseudo-random stream on three
// series: samples (with a NaN now and then), spans and reversed spans,
// advancing ~20µs per call so a small ring folds several times. after, when
// non-nil, runs after every call.
func recordStream(ts *TimeSeries, n int, after func(i int)) {
	a := ts.AddSeries("a", "x")
	b := ts.AddSpanSeries("b", "s")
	c := ts.AddSpanSeries("c", "s")
	r := rand.New(rand.NewSource(11))
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(r.Intn(40)) * time.Microsecond
		switch i % 3 {
		case 0:
			v := r.NormFloat64()
			if i%1000 == 0 {
				v = math.NaN()
			}
			ts.Record(a, at, v)
		case 1:
			d := time.Duration(r.Intn(5000)) * time.Microsecond
			ts.RecordSpan(b, at, at+d, d.Seconds())
		default:
			ts.RecordSpan(c, at+time.Millisecond, at, r.Float64())
		}
		if after != nil {
			after(i)
		}
	}
}

// stateBits encodes every applied field of the recorder — tick, buckets in
// use, and each series' sketch and whole bucket ring — bit for bit.
func stateBits(t *testing.T, ts *TimeSeries) []byte {
	t.Helper()
	ts.settle()
	var buf bytes.Buffer
	for _, v := range []any{int64(ts.tick), int64(ts.used)} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ts.s {
		se := &ts.s[i]
		for _, v := range []any{&se.sk, se.count, se.sum, se.comp} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// streamLen spans more batches than the queue holds, twice over.
const streamLen = 2*tsBatches*tsBatchLen + tsBatchLen/2

// TestTimeSeriesPipelineMatchesSettled records a stream long enough to
// cycle every batch of the queue and fold the ring several times, and
// checks it ends bit-identical to the same stream with a settle (a Buckets
// read) after every record: batching changes where updates run, never
// which float operations run or in what order.
func TestTimeSeriesPipelineMatchesSettled(t *testing.T) {
	piped := NewTimeSeries(time.Millisecond, 64)
	recordStream(piped, streamLen, nil)
	settled := NewTimeSeries(time.Millisecond, 64)
	recordStream(settled, streamLen, func(int) { settled.Buckets() })
	if tick := piped.Tick(); tick < 8*time.Millisecond {
		t.Fatalf("tick %v: the stream folded fewer than three times", tick)
	}
	if !bytes.Equal(stateBits(t, piped), stateBits(t, settled)) {
		t.Error("pipelined recorder differs from the settle-per-record recorder")
	}
}

// TestTimeSeriesMidStreamReadsLeaveDocument takes Snapshot and WriteProm
// reads in the middle of a stream and checks the final document and state
// equal those of the same stream read only at the end.
func TestTimeSeriesMidStreamReadsLeaveDocument(t *testing.T) {
	final := func(ts *TimeSeries) ([]byte, []byte) {
		var doc bytes.Buffer
		if err := ts.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.Bytes(), stateBits(t, ts)
	}
	quiet := NewTimeSeries(time.Millisecond, 64)
	recordStream(quiet, streamLen, nil)
	wantDoc, wantBits := final(quiet)

	read := NewTimeSeries(time.Millisecond, 64)
	recordStream(read, streamLen, func(i int) {
		switch i % 9973 {
		case 0:
			read.Snapshot()
		case 5000:
			if err := read.WriteProm(io.Discard, ""); err != nil {
				t.Fatal(err)
			}
		}
	})
	gotDoc, gotBits := final(read)
	if !bytes.Equal(gotDoc, wantDoc) {
		t.Error("mid-stream reads changed the final JSON document")
	}
	if !bytes.Equal(gotBits, wantBits) {
		t.Error("mid-stream reads changed the recorder state")
	}
}

// recordMirrored records n pseudo-random span weights twice each, on lead
// and, shifted half a millisecond later and twice as long, on second, with
// a sample series in between, so the two series' buckets differ while
// their weight streams are equal. after, when non-nil, runs after every
// weight.
func recordMirrored(ts *TimeSeries, lead, second, sample SeriesID, n int, after func()) {
	r := rand.New(rand.NewSource(3))
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(r.Intn(40)) * time.Microsecond
		d := time.Duration(r.Intn(3000)) * time.Microsecond
		w := d.Seconds()
		ts.RecordSpan(lead, at, at+d, w)
		ts.Record(sample, at, r.NormFloat64())
		ts.RecordSpan(second, at+500*time.Microsecond, at+500*time.Microsecond+2*d, w)
		if after != nil {
			after()
		}
	}
}

// TestTimeSeriesMirror checks a mirror against an independent series fed
// the same weights: pipelined and settled after every record alike, the
// mirror fills its own buckets, reports its leader's sketch, and the
// recorder's JSON and Prometheus documents are byte-identical to the
// independent recorder's.
func TestTimeSeriesMirror(t *testing.T) {
	const n = tsBatches * tsBatchLen / 2 // the stream spans every batch of the queue
	build := func(mirror, settle bool) (*TimeSeries, SeriesID, SeriesID) {
		ts := NewTimeSeries(time.Millisecond, 64)
		lead := ts.AddSpanSeries("lead", "s")
		sample := ts.AddSeries("v", "x")
		var second SeriesID
		if mirror {
			second = ts.AddSpanMirror("second", "s", lead)
		} else {
			second = ts.AddSpanSeries("second", "s")
		}
		var after func()
		if settle {
			after = func() { ts.Buckets() }
		}
		recordMirrored(ts, lead, second, sample, n, after)
		return ts, lead, second
	}
	docs := func(ts *TimeSeries) (string, string) {
		var j, p bytes.Buffer
		if err := ts.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := ts.WriteProm(&p, ""); err != nil {
			t.Fatal(err)
		}
		return j.String(), p.String()
	}
	ref, _, _ := build(false, false)
	wantJSON, wantProm := docs(ref)
	for _, settle := range []bool{false, true} {
		ts, lead, second := build(true, settle)
		if ts.Sketch(second) != ts.Sketch(lead) {
			t.Errorf("settle=%v: the mirror does not report its leader's sketch", settle)
		}
		if ts.Sketch(lead).Count() != n {
			t.Errorf("settle=%v: leader sketch count %d, want %d", settle, ts.Sketch(lead).Count(), n)
		}
		if ts.BucketCount(second, 0) == ts.BucketCount(lead, 0) {
			t.Errorf("settle=%v: the mirror's first bucket holds the leader's count %d", settle, ts.BucketCount(lead, 0))
		}
		gotJSON, gotProm := docs(ts)
		if gotJSON != wantJSON {
			t.Errorf("settle=%v: JSON document differs from the independent recorder's", settle)
		}
		if gotProm != wantProm {
			t.Errorf("settle=%v: Prometheus document differs from the independent recorder's", settle)
		}
	}
}

// TestTimeSeriesMirrorBadLeaderPanics checks AddSpanMirror refuses a leader
// that is unregistered, a sample series, or itself a mirror.
func TestTimeSeriesMirrorBadLeaderPanics(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 8)
	sample := ts.AddSeries("v", "x")
	span := ts.AddSpanSeries("s", "s")
	mirror := ts.AddSpanMirror("m", "s", span)
	for _, leader := range []SeriesID{-1, 99, sample, mirror} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddSpanMirror with leader %d did not panic", leader)
				}
			}()
			ts.AddSpanMirror("bad", "s", leader)
		}()
	}
}

// TestTimeSeriesApplierExits drops a recorder mid-stream, never read, and
// checks the goroutine count returns to where it started once the queue
// drains: the applier does not outlive its work.
func TestTimeSeriesApplierExits(t *testing.T) {
	start := runtime.NumGoroutine()
	func() {
		ts := NewTimeSeries(time.Millisecond, 64)
		recordStream(ts, tsBatches*tsBatchLen+tsBatchLen/2, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, started with %d", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimeSeriesRecordUnknownSeriesPanics checks a bad ID panics in the
// recording call, where the caller can see it, not later on the applier.
func TestTimeSeriesRecordUnknownSeriesPanics(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 8)
	ts.AddSeries("v", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("recording to an unregistered series did not panic")
		}
	}()
	ts.Record(1, 0, 1)
}

func TestTimeSeriesWriteProm(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 8)
	id := ts.AddSeries("pred.hit", "hit")
	for i := 0; i < 100; i++ {
		ts.Record(id, time.Duration(i)*time.Millisecond, float64(i%2))
	}
	var buf bytes.Buffer
	if err := ts.WriteProm(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ibpower_pred_hit summary",
		`ibpower_pred_hit{quantile="0.5"}`,
		`ibpower_pred_hit{quantile="0.99"}`,
		"ibpower_pred_hit_sum 50",
		"ibpower_pred_hit_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("prom output contains NaN")
	}
}

func TestNewTimeSeriesPanicsOnBadTick(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive tick")
		}
	}()
	NewTimeSeries(0, 8)
}

// Allocation pins: Record and RecordSpan run inside the replay event loop
// for every transfer and mode change, so they are hard 0 allocs/op
// contracts (satellite of the telemetry PR; the replay-loop pin lives in
// internal/replay).
func TestTimeSeriesRecordAllocs(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 64)
	id := ts.AddSeries("v", "x")
	at := time.Duration(0)
	if avg := testing.AllocsPerRun(1000, func() {
		ts.Record(id, at, 1.5)
		at += 17 * time.Microsecond
	}); avg != 0 {
		t.Errorf("TimeSeries.Record allocates %.1f/op, want 0", avg)
	}
}

func TestTimeSeriesRecordSpanAllocs(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond, 64)
	id := ts.AddSpanSeries("v", "s")
	at := time.Duration(0)
	if avg := testing.AllocsPerRun(1000, func() {
		ts.RecordSpan(id, at, at+5*time.Millisecond, 0.25)
		at += 23 * time.Microsecond
	}); avg != 0 {
		t.Errorf("TimeSeries.RecordSpan allocates %.1f/op, want 0", avg)
	}
}
