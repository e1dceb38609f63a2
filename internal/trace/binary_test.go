package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// buildFull exercises every op kind and call type once.
func buildFull() *Trace {
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
	return tr
}

// sources returns every entry of f as a Source, in file order.
func sources(f *File) []Source {
	out := make([]Source, f.Len())
	for i := range out {
		out[i] = f.SourceAt(i)
	}
	return out
}

// encodeSources packs srcs with WriteBinarySources.
func encodeSources(srcs ...Source) ([]byte, error) {
	var b bytes.Buffer
	err := WriteBinarySources(&b, srcs...)
	return b.Bytes(), err
}

func TestBinaryRoundTrip(t *testing.T) {
	a, b := buildFull(), buildValid()
	enc, err := EncodeBinary(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	want := []Meta{{App: "demo", NP: 3}, {App: "test", NP: 2}}
	if !reflect.DeepEqual(f.Entries(), want) {
		t.Fatalf("Entries = %v", f.Entries())
	}
	got := sources(f)
	for i, orig := range []*Trace{a, b} {
		if got[i].Meta() != orig.Meta() {
			t.Fatalf("trace %d meta %v", i, got[i].Meta())
		}
		if g, w := rankOps(t, got[i]), rankOps(t, orig); !reflect.DeepEqual(g, w) {
			t.Errorf("trace %d roundtrip mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
	// Re-encoding the decoded ops is byte-identical.
	enc2, err := encodeSources(got...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("re-encode differs from original encoding")
	}
	if f.NumOps(0) != int64(a.NumOps()) {
		t.Errorf("NumOps(0) = %d, want %d", f.NumOps(0), a.NumOps())
	}
	if f.Has("demo", 3) == false || f.Has("demo", 4) || f.Has("nope", 3) {
		t.Error("Has lookups wrong")
	}
	if _, err := f.Source("nope", 3); err == nil {
		t.Error("Source for missing trace accepted")
	}
}

// maxOps is a rank-0 stream of every op kind that includes the longest
// valid encodings: int32-max peers and roots, and operands of 1<<62.
func maxOps() []Op {
	const big = 1 << 62
	return []Op{
		Compute(big), Send(math.MaxInt32, big), Recv(math.MaxInt32),
		Sendrecv(math.MaxInt32, math.MaxInt32-1, big), Allreduce(big),
		Barrier(), Bcast(math.MaxInt32, big), Reduce(math.MaxInt32, big),
		Alltoall(big), Compute(123), Send(1, 77), Sendrecv(2, 1, 55), Barrier(),
		Sendrecv(math.MaxInt32, math.MaxInt32, big),
	}
}

// rankFile builds a File whose one trace has rank 0 encoded as data, read
// through ra (a bytes.Reader over data when nil). Its np is past int32, so
// any peer an Op can hold passes CheckOp.
func rankFile(data []byte, nops int, ra io.ReaderAt) *File {
	if ra == nil {
		ra = bytes.NewReader(data)
	}
	ent := fileEntry{meta: Meta{App: "max", NP: math.MaxInt32 + 1},
		ranks: []rankIndex{{off: 0, nbytes: int64(len(data)), nops: int64(nops)}}}
	return &File{ra: ra, entries: []fileEntry{ent}, window: window}
}

// drain reads cursor c to its end.
func drain(c Cursor) ([]Op, error) {
	var ops []Op
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		ops = append(ops, op)
	}
	return ops, c.Err()
}

// sourceOps drains every rank of src in rank order, stopping at the first
// cursor error.
func sourceOps(src Source) ([][]Op, error) {
	out := make([][]Op, src.Meta().NP)
	for r := range out {
		ops, err := drain(src.Open(r))
		if err != nil {
			return nil, err
		}
		out[r] = ops
	}
	return out, nil
}

// rankOps drains every rank of src, failing t on a cursor error.
func rankOps(t testing.TB, src Source) [][]Op {
	t.Helper()
	out, err := sourceOps(src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBinarySmallWindow sweeps the window from maxOpLen to 64 bytes over
// the longest valid ops, so that every op straddles a refill at some size.
func TestBinarySmallWindow(t *testing.T) {
	ops := maxOps()
	var data []byte
	for _, op := range ops {
		data = appendOp(data, &op)
	}
	f := rankFile(data, len(ops), nil)
	for w := maxOpLen; w <= 64; w++ {
		f.window = w
		got, err := drain(f.SourceAt(0).Open(0))
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if !reflect.DeepEqual(got, ops) {
			t.Errorf("window %d: decoded\n %+v\nwant\n %+v", w, got, ops)
		}
	}
}

// TestFileCursorWindowBound pins the O(window) contract: opening and
// draining a rank costs the window and the cursor whatever the rank's
// length.
func TestFileCursorWindowBound(t *testing.T) {
	alloc := func(kb int) uint64 {
		tr := New("w", 1)
		for i := 0; tr.NumOps()*3 < kb<<10; i++ {
			tr.Append(0, Compute(time.Duration(1000+i%7)))
		}
		enc, err := EncodeBinary(tr)
		if err != nil {
			t.Fatal(err)
		}
		f, err := OpenBinary(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			t.Fatal(err)
		}
		src := f.SourceAt(0)
		best := uint64(math.MaxUint64)
		for range 5 { // the least of five runs drops other goroutines' allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c := src.Open(0)
			for _, ok := c.Next(); ok; _, ok = c.Next() {
			}
			runtime.ReadMemStats(&after)
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := alloc(40), alloc(400)
	t.Logf("40 KB rank: %d B, 400 KB rank: %d B", small, large)
	if small != large {
		t.Errorf("a 40 KB rank allocates %d B and a 400 KB rank %d B; want the same", small, large)
	}
	if limit := uint64(window + 512); large > limit {
		t.Errorf("draining a 400 KB rank allocates %d B, want at most %d", large, limit)
	}
}

// failingReaderAt fails every read that reaches past limit.
type failingReaderAt struct {
	r     *bytes.Reader
	limit int64
}

func (f failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.limit {
		return 0, errors.New("disk on fire")
	}
	return f.r.ReadAt(p, off)
}

// eofReaderAt returns io.EOF with the read that reaches the end of its
// input, as io.ReaderAt allows.
type eofReaderAt struct{ r *bytes.Reader }

func (e eofReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := e.r.ReadAt(p, off)
	if err == nil && off+int64(n) == e.r.Size() {
		err = io.EOF
	}
	return n, err
}

// TestFileCursorCorrupt feeds the decoder broken rank streams: each must
// end with Next false and an Err naming the rank and op, never a panic.
func TestFileCursorCorrupt(t *testing.T) {
	// long is three windows of 3-byte ops.
	var long []byte
	const nlong = window
	for range nlong {
		long = append(long, rawOp(tagCompute, 1000)...)
	}
	overflow := append([]byte{tagCompute}, bytes.Repeat([]byte{0x80}, 10)...)
	cases := []struct {
		name string
		data []byte
		nops int
		ra   io.ReaderAt
		want string
	}{
		{"ends before nops", rawOp(tagBarrier), 2, nil, "rank 0 op 1: decode: EOF"},
		{"ends inside an op", rawOp(tagSend, 1, 300)[:3], 1, nil, "rank 0 op 0: decode: unexpected EOF"},
		{"trailing bytes", append(rawOp(tagBarrier), tagBarrier), 1, nil, "rank 0: trailing bytes after op 1"},
		{"11-byte varint", append(overflow, 0x01), 1, nil, "rank 0 op 0: decode: binary: varint overflows a 64-bit integer"},
		{"operand past 1<<62", rawOp(tagAllreduce, 1<<62+1), 1, nil, "rank 0 op 0: decode: varint operand 4611686018427387905 overflows"},
		{"bad tag past the first window", append(bytes.Clone(long), 0xEE), nlong + 1, nil,
			fmt.Sprintf("rank 0 op %d: decode: unknown op tag 0xee", nlong)},
		{"read fails mid-rank", long, nlong, failingReaderAt{bytes.NewReader(long), window + 100},
			": decode: disk on fire"},
	}
	named := regexp.MustCompile(`^trace: rank 0( op \d+:|: trailing bytes after op \d+$)`)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ops, err := drain(rankFile(c.data, c.nops, c.ra).SourceAt(0).Open(0))
			if err == nil || !strings.Contains(err.Error(), c.want) || !named.MatchString(err.Error()) {
				t.Fatalf("after %d ops: err = %v, want %q naming rank and op", len(ops), err, c.want)
			}
		})
	}

	// io.EOF returned with a full read at the end of the input is no error,
	// at any window size and for the footer read of OpenBinary.
	for _, w := range []int{maxOpLen, 64, window} {
		f := rankFile(long, nlong, eofReaderAt{bytes.NewReader(long)})
		f.window = w
		if ops, err := drain(f.SourceAt(0).Open(0)); err != nil || len(ops) != nlong {
			t.Errorf("window %d: %d ops, err %v; want %d ops", w, len(ops), err, nlong)
		}
	}
	enc, err := EncodeBinary(buildFull())
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenBinary(eofReaderAt{bytes.NewReader(enc)}, int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rankOps(t, f.SourceAt(0)), rankOps(t, buildFull())) {
		t.Error("decode through an io.EOF-at-end reader differs")
	}
}

// TestBinaryCursorReopen reads one packed rank through two cursors, the
// second opened after the first is drained: each yields the whole rank.
func TestBinaryCursorReopen(t *testing.T) {
	tr := buildFull()
	enc, err := EncodeBinary(tr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenBinary(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	src := f.SourceAt(0)
	first, err := drain(src.Open(2))
	if err != nil {
		t.Fatal(err)
	}
	second, err := drain(src.Open(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("reopen mismatch:\n got %+v\nwant %+v", second, first)
	}
	if !reflect.DeepEqual(first, rankOps(t, tr)[2]) {
		t.Errorf("cursor ops != rank ops")
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	enc, err := EncodeBinary(buildFull())
	if err != nil {
		t.Fatal(err)
	}
	open := func(b []byte) (*File, error) {
		return OpenBinary(bytes.NewReader(b), int64(len(b)))
	}
	if _, err := open(enc[:4]); err == nil {
		t.Error("truncated image accepted")
	}
	bad := append([]byte("XXXX"), enc[4:]...)
	if _, err := open(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = bytes.Clone(enc)
	bad[4] = 99
	if _, err := open(bad); err == nil {
		t.Error("bad version accepted")
	}
	bad = bytes.Clone(enc)
	bad[len(bad)-1] = 'Z'
	if _, err := open(bad); err == nil {
		t.Error("bad index magic accepted")
	}
	bad = bytes.Clone(enc)
	bad[len(bad)-12] = 0xFF // index offset out of range
	if _, err := open(bad); err == nil {
		t.Error("bad index offset accepted")
	}
	// Corrupt one data byte: an out-of-range peer or bad tag must surface
	// through Cursor.Err, not crash.
	bad = bytes.Clone(enc)
	bad[5] = 0xFF // first op's tag
	f, err := open(bad)
	if err != nil {
		return // index parse may legitimately fail too
	}
	c := f.SourceAt(0).Open(0)
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if c.Err() == nil {
		t.Error("corrupt op stream decoded without error")
	}
}

func TestWriteBinaryRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf); err == nil {
		t.Error("empty pack accepted")
	}
	tr := buildValid()
	if err := WriteBinary(&buf, tr, tr); err == nil {
		t.Error("duplicate (app, np) accepted")
	}
	bad := New("x", 2)
	bad.Append(0, Send(7, 1)) // peer out of range
	if err := WriteBinary(&buf, bad); err == nil {
		t.Error("invalid op accepted at pack time")
	}
}

func TestFileOpenClose(t *testing.T) {
	path := t.TempDir() + "/t.ibt"
	tr := buildFull()
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(out, tr); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rankOps(t, f.SourceAt(0)), rankOps(t, tr)) {
		t.Error("file roundtrip mismatch")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

// rawOp encodes one op as a tag byte and uvarint operands, with no CheckOp.
func rawOp(tag byte, operands ...uint64) []byte {
	b := []byte{tag}
	for _, v := range operands {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// rawImage packs one trace "raw" whose rank r holds the encoded ops
// ranks[r]. It bypasses the writer's CheckOp, so tests can build images the
// writer would refuse.
func rawImage(ranks ...[][]byte) []byte {
	img := append([]byte(binMagic), binVersion)
	idx := binary.AppendUvarint(nil, 1)
	idx = binary.AppendUvarint(idx, 3)
	idx = append(idx, "raw"...)
	idx = binary.AppendUvarint(idx, uint64(len(ranks)))
	for _, ops := range ranks {
		off := len(img)
		for _, op := range ops {
			img = append(img, op...)
		}
		idx = binary.AppendUvarint(idx, uint64(off))
		idx = binary.AppendUvarint(idx, uint64(len(img)-off))
		idx = binary.AppendUvarint(idx, uint64(len(ops)))
	}
	idxOff := len(img)
	img = append(img, idx...)
	img = binary.LittleEndian.AppendUint64(img, uint64(idxOff))
	return append(img, idxMagic...)
}

// Op stores peers and roots as int32. A varint operand beyond int32 must be
// rejected by name, not wrapped: 2^32+1 wraps to rank 1, which is in range
// for np 2, so a wrapped value would decode as a valid op.
func TestDecodeRejectsRankBeyondInt32(t *testing.T) {
	const big = 1<<32 + 1
	recv := [][]byte{rawOp(tagRecv, 0)}
	cases := []struct {
		op   []byte
		want string
	}{
		{rawOp(tagSend, big, 8), "peer operand 4294967297 exceeds int32"},
		{rawOp(tagRecv, big), "peer operand 4294967297 exceeds int32"},
		{rawOp(tagSendrecv, big, 1, 8), "peer operand 4294967297 exceeds int32"},
		{rawOp(tagSendrecv, 1, big, 8), "recv peer operand 4294967297 exceeds int32"},
		{rawOp(tagBcast, big, 8), "root operand 4294967297 exceeds int32"},
		{rawOp(tagReduce, big, 8), "root operand 4294967297 exceeds int32"},
	}
	for _, c := range cases {
		img := rawImage([][]byte{c.op}, recv)
		f, err := OpenBinary(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sourceOps(f.SourceAt(0))
		if err == nil || !strings.Contains(err.Error(), "rank 0 op 0: decode: "+c.want) {
			t.Errorf("op % x: err = %v, want %q", c.op, err, c.want)
		}
	}
	// The same image with an in-range peer decodes: the rejection above is
	// the operand's, not the hand-built image's.
	img := rawImage([][]byte{rawOp(tagSend, 1, 8)}, recv)
	f, err := OpenBinary(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rankOps(t, f.SourceAt(0))[0][0], Send(1, 8); got != want {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}
