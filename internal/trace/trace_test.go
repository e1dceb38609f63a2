package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

const us = time.Microsecond

func TestCallIDString(t *testing.T) {
	if CallSendrecv.String() != "MPI_Sendrecv" {
		t.Errorf("Sendrecv = %q", CallSendrecv.String())
	}
	if CallAllreduce.String() != "MPI_Allreduce" {
		t.Errorf("Allreduce = %q", CallAllreduce.String())
	}
	if !strings.Contains(CallID(99).String(), "99") {
		t.Error("unknown ID must include its number")
	}
}

func TestPaperIDs(t *testing.T) {
	// Figure 2 of the paper identifies MPI_Sendrecv as 41 and
	// MPI_Allreduce as 10; the walkthroughs depend on these values.
	if CallSendrecv != 41 || CallAllreduce != 10 {
		t.Fatalf("paper IDs changed: sendrecv=%d allreduce=%d", CallSendrecv, CallAllreduce)
	}
}

func TestIsCollective(t *testing.T) {
	for _, c := range []CallID{CallAllreduce, CallBarrier, CallBcast, CallReduce, CallAlltoall} {
		if !c.IsCollective() {
			t.Errorf("%v not collective", c)
		}
	}
	for _, c := range []CallID{CallSend, CallRecv, CallSendrecv} {
		if c.IsCollective() {
			t.Errorf("%v wrongly collective", c)
		}
	}
}

func buildValid() *Trace {
	tr := New("test", 2)
	tr.Append(0, Compute(100*us))
	tr.Append(0, Send(1, 1024))
	tr.Append(0, Compute(50*us))
	tr.Append(0, Allreduce(8))
	tr.Append(1, Recv(0))
	tr.Append(1, Compute(30*us))
	tr.Append(1, Allreduce(8))
	return tr
}

// Every cursor returns an Op by value for every op it reads: a field that
// re-pads the struct past 32 bytes must fail here, not in a benchmark.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Op{}) = %d, want 32", got)
	}
}

func TestValidateOK(t *testing.T) {
	if err := buildValid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
	}{
		{"peer out of range", func(tr *Trace) { tr.Append(0, Send(5, 1)) }},
		{"self message", func(tr *Trace) { tr.Append(0, Send(0, 1)) }},
		{"negative bytes", func(tr *Trace) { tr.Append(0, Op{Kind: OpCall, Call: CallSend, Peer: 1, Bytes: -1}) }},
		{"negative compute", func(tr *Trace) { tr.Append(0, Op{Kind: OpCompute, Duration: -time.Second}) }},
		{"bad root", func(tr *Trace) { tr.Append(0, Bcast(9, 1)) }},
		{"bad sendrecv peer", func(tr *Trace) { tr.Append(0, Sendrecv(1, 7, 1)) }},
	}
	for _, c := range cases {
		tr := buildValid()
		c.mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := (&Trace{NP: 0}).Validate(); err == nil {
		t.Error("NP=0 accepted")
	}
}

// Validate reports the first failing op of the lowest rank, whatever order
// the bad ops were appended in.
func TestValidateReportsLowestRankFirst(t *testing.T) {
	tr := buildValid()        // rank 0 holds 4 ops, rank 1 holds 3
	tr.Append(1, Send(7, 1))  // rank 1 op 3
	tr.Append(0, Bcast(9, 1)) // rank 0 op 4, appended later
	tr.Append(0, Send(5, 1))  // a second failure on rank 0
	want := "trace: rank 0 op 4: root 9 out of range"
	if err := tr.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %q", err, want)
	}
}

// An op no encoding can hold, of an unknown kind or call ID, is not
// stored, and not dropped silently either: Validate, the rank's cursor and
// the pack writer all report it, and the rank ignores the ops after it.
func TestAppendRejectsUnencodableOp(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Kind: 7, Peer: -1, RecvPeer: -1, Root: -1}, "trace: rank 1 op 3: unknown kind 7"},
		{Op{Kind: OpCall, Call: CallNone, Peer: -1, RecvPeer: -1, Root: -1}, "trace: rank 1 op 3: unsupported call ID 0"},
		{Op{Kind: OpCall, Call: 99, Peer: 0, RecvPeer: -1, Root: -1}, "trace: rank 1 op 3: unsupported call ID 99"},
	}
	for _, c := range cases {
		tr := buildValid()
		tr.Append(1, c.op)
		tr.Append(1, Barrier())
		if err := tr.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%+v: Validate = %v, want %q", c.op, err, c.want)
		}
		if tr.NumOps() != 7 || tr.NumCalls() != 4 {
			t.Errorf("%+v: stored %d ops, %d calls, want 7 and 4", c.op, tr.NumOps(), tr.NumCalls())
		}
		ops, err := drain(tr.Open(1))
		if len(ops) != 3 || err == nil || err.Error() != c.want {
			t.Errorf("%+v: cursor read %d ops then %v, want 3 then %q", c.op, len(ops), err, c.want)
		}
		if _, err := EncodeBinary(tr); err == nil || err.Error() != c.want {
			t.Errorf("%+v: EncodeBinary = %v, want %q", c.op, err, c.want)
		}
	}
}

func TestCounting(t *testing.T) {
	tr := buildValid()
	if got := tr.NumCalls(); got != 4 {
		t.Errorf("NumCalls = %d, want 4", got)
	}
	if got := tr.NumOps(); got != 7 {
		t.Errorf("NumOps = %d, want 7", got)
	}
	if got := tr.ComputeTime(0); got != 150*us {
		t.Errorf("ComputeTime(0) = %v, want 150µs", got)
	}
}

func TestIdleDistributionBuckets(t *testing.T) {
	var d IdleDist
	d.Add(19 * us)  // short
	d.Add(20 * us)  // medium (boundary is inclusive on the left)
	d.Add(200 * us) // medium
	d.Add(201 * us) // long
	if d.Count != [3]int{1, 2, 1} {
		t.Errorf("counts = %v", d.Count)
	}
	if d.TotalCount() != 4 {
		t.Errorf("total = %d", d.TotalCount())
	}
	if d.CountPct(1) != 50 {
		t.Errorf("medium pct = %v", d.CountPct(1))
	}
	if d.TotalTime() != 440*us {
		t.Errorf("total time = %v", d.TotalTime())
	}
}

func TestRankIdleIntervals(t *testing.T) {
	tr := New("x", 1)
	tr.Append(0, Compute(100*us)) // before first call: not an interval
	tr.Append(0, Barrier())
	tr.Append(0, Compute(30*us))
	tr.Append(0, Compute(20*us)) // merged: 50µs between calls
	tr.Append(0, Barrier())
	tr.Append(0, Compute(99*us)) // trailing: not an interval
	d, err := SourceIdleDistribution(tr)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != [3]int{0, 1, 0} || d.TotalTime() != 50*us {
		t.Errorf("intervals = %v totalling %v, want one of 50µs", d.Count, d.TotalTime())
	}
}

func TestIdleDistributionAggregates(t *testing.T) {
	tr := New("x", 2)
	for r := 0; r < 2; r++ {
		tr.Append(r, Barrier())
		tr.Append(r, Compute(300*us))
		tr.Append(r, Barrier())
		tr.Append(r, Compute(50*us))
		tr.Append(r, Barrier())
	}
	d, err := SourceIdleDistribution(tr)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != [3]int{0, 2, 2} {
		t.Errorf("counts = %v", d.Count)
	}
}

func TestIOTripRound(t *testing.T) {
	tr := New("demo", 3)
	tr.Append(0, Compute(123*time.Nanosecond))
	tr.Append(0, Send(1, 77))
	tr.Append(1, Recv(0))
	tr.Append(1, Sendrecv(2, 0, 55))
	tr.Append(2, Sendrecv(0, 1, 55))
	tr.Append(0, Sendrecv(1, 2, 55))
	tr.Append(2, Allreduce(8))
	tr.Append(2, Barrier())
	tr.Append(2, Bcast(0, 16))
	tr.Append(2, Reduce(1, 32))
	tr.Append(2, Alltoall(64))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "demo" || got.NP != 3 {
		t.Fatalf("header = %q/%d", got.App, got.NP)
	}
	if g, w := rankOps(t, got), rankOps(t, tr); !reflect.DeepEqual(g, w) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", g, w)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no header":      "0 c 100\n",
		"bad rank":       "#app x 2\n9 c 100\n",
		"unknown record": "#app x 2\n0 zz 1\n",
		"bad np":         "#app x zero\n",
		"missing field":  "#app x 2\n0 s 1\n",
		"empty":          "",
		"peer > int32":   "#app x 2\n0 s 4294967297 1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Op stores peers and roots as int32. A text operand beyond int32 must be
// rejected by name and line, not wrapped: each operand below wraps to rank 1,
// which is in range, so a wrapped value would parse as a valid trace.
func TestReadRejectsRankBeyondInt32(t *testing.T) {
	cases := []struct{ in, want string }{
		{"#app x 2\n0 s 4294967297 8\n", "line 2: peer 4294967297 exceeds int32"},
		{"#app x 2\n0 r 4294967297\n", "line 2: peer 4294967297 exceeds int32"},
		{"#app x 2\n0 sr 4294967297 1 8\n", "line 2: peer 4294967297 exceeds int32"},
		{"#app x 2\n0 sr 1 4294967297 8\n", "line 2: recv peer 4294967297 exceeds int32"},
		{"#app x 2\n0 bc 4294967297 8\n", "line 2: root 4294967297 exceeds int32"},
		{"#app x 2\n\n0 rd -4294967295 8\n", "line 3: root -4294967295 exceeds int32"},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want %q", c.in, err, c.want)
		}
	}
}

func TestReadSkipsComments(t *testing.T) {
	in := "#app x 2\n# a comment\n\n0 ba\n1 ba\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCalls() != 2 {
		t.Errorf("calls = %d, want 2", tr.NumCalls())
	}
}

// Property: any structurally valid random trace round-trips through the text
// format unchanged.
func TestIORoundTripProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		np := rng.Intn(4) + 2
		tr := New("q", np)
		for i := 0; i < int(nOps%50)+1; i++ {
			r := rng.Intn(np)
			peer := (r + 1 + rng.Intn(np-1)) % np
			switch rng.Intn(6) {
			case 0:
				tr.Append(r, Compute(time.Duration(rng.Intn(10000))*time.Nanosecond))
			case 1:
				tr.Append(r, Send(peer, rng.Intn(1<<20)))
			case 2:
				tr.Append(r, Recv(peer))
			case 3:
				tr.Append(r, Sendrecv(peer, peer, rng.Intn(1<<20)))
			case 4:
				tr.Append(r, Allreduce(rng.Intn(4096)))
			case 5:
				tr.Append(r, Bcast(rng.Intn(np), rng.Intn(4096)))
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(rankOps(t, got), rankOps(t, tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTimelineAddMerges(t *testing.T) {
	var tl Timeline
	tl.Add(0, 10*us, StateFull)
	tl.Add(10*us, 20*us, StateFull) // contiguous same state: merged
	tl.Add(20*us, 30*us, StateLow)
	tl.Add(35*us, 30*us, StateLow) // empty: dropped
	if len(tl.Intervals) != 2 {
		t.Fatalf("intervals = %d, want 2", len(tl.Intervals))
	}
	if tl.TimeIn(StateFull) != 20*us || tl.TimeIn(StateLow) != 10*us {
		t.Errorf("TimeIn full=%v low=%v", tl.TimeIn(StateFull), tl.TimeIn(StateLow))
	}
	if tl.End() != 30*us {
		t.Errorf("End = %v", tl.End())
	}
}

func TestRenderTimeline(t *testing.T) {
	tl := &Timeline{Label: "rank 0"}
	tl.Add(0, 50*us, StateFull)
	tl.Add(50*us, 100*us, StateLow)
	var sb strings.Builder
	if err := Render(&sb, []*Timeline{tl}, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "rank 0") || !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Errorf("render output:\n%s", out)
	}
	// Empty timeline.
	sb.Reset()
	if err := Render(&sb, nil, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Error("empty rendering missing placeholder")
	}
}

func TestWriteParaver(t *testing.T) {
	a := &Timeline{Label: "a"}
	a.Add(10*us, 20*us, StateLow)
	b := &Timeline{Label: "b"}
	b.Add(0, 5*us, StateFull)
	var sb strings.Builder
	if err := WriteParaver(&sb, []*Timeline{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("records = %d, want 2", len(lines))
	}
	// Sorted by start time: b's interval first.
	if !strings.HasPrefix(lines[0], "2:1:0:") {
		t.Errorf("first record %q", lines[0])
	}
}

func TestLinkStateString(t *testing.T) {
	if StateFull.String() != "FULL" || StateLow.String() != "LOW" || StateShift.String() != "SHIFT" {
		t.Error("state labels wrong")
	}
	if LinkState(9).String() != "?" {
		t.Error("unknown state label")
	}
}

// TestConstructorsRejectWideRanks asserts every rank-taking constructor
// panics naming the operand when a rank does not fit Op's int32 field,
// instead of wrapping it silently to another process.
func TestConstructorsRejectWideRanks(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int rank cannot exceed int32 on this platform")
	}
	wide := math.MaxInt32
	wide++
	for _, c := range []struct {
		name, operand string
		op            func() Op
	}{
		{"Send", "peer", func() Op { return Send(wide, 8) }},
		{"Recv", "peer", func() Op { return Recv(wide) }},
		{"Sendrecv/send", "send peer", func() Op { return Sendrecv(wide, 0, 8) }},
		{"Sendrecv/recv", "recv peer", func() Op { return Sendrecv(0, wide, 8) }},
		{"Bcast", "root", func() Op { return Bcast(wide, 8) }},
		{"Reduce", "root", func() Op { return Reduce(wide, 8) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, c.operand+" rank 2147483648 out of int32 range") {
					t.Errorf("panic %q does not name the %s operand", msg, c.operand)
				}
			}()
			op := c.op()
			t.Errorf("accepted rank %d as %+v", wide, op)
		})
	}
}
