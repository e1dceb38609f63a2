package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fuzzSeedTrace builds a small trace exercising every op kind for the fuzz
// seed corpora.
func fuzzSeedTrace() *Trace {
	t := New("seed", 3)
	t.Append(0, Compute(120*time.Microsecond))
	t.Append(0, Send(1, 4096))
	t.Append(1, Recv(0))
	t.Append(1, Sendrecv(2, 0, 64))
	t.Append(2, Allreduce(8))
	t.Append(2, Barrier())
	t.Append(0, Bcast(0, 256))
	t.Append(1, Reduce(2, 32))
	t.Append(2, Alltoall(16))
	return t
}

// FuzzTraceText fuzzes the line-oriented text parser: any input either fails
// to parse or round-trips — re-encoding the parsed trace and parsing that
// again must reproduce the same trace and identical bytes. This pins the
// parser against silently dropping or mangling records.
func FuzzTraceText(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeedTrace().Write(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("#app alya 2\n0 c 100\n1 r 0\n0 s 1 64\n"))
	f.Add([]byte("#app x 1\n0 ba\n# comment\n\n0 aa 8\n"))
	f.Add([]byte("0 c 100\n"))           // record before header
	f.Add([]byte("#app x 2\n5 c 1\n"))   // rank out of range
	f.Add([]byte("#app x 2\n0 s 9 1\n")) // peer out of range
	// A peer beyond int32.
	f.Add([]byte("#app x 2\n0 s 4294967299 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it does not panic
		}
		var enc1 bytes.Buffer
		if err := tr.Write(&enc1); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		tr2, err := Read(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of own encoding failed: %v\n%s", err, enc1.Bytes())
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("text round-trip changed the trace\nin:  %+v\nout: %+v", tr, tr2)
		}
		var enc2 bytes.Buffer
		if err := tr2.Write(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("text encoding is not stable:\n%q\nvs\n%q", enc1.Bytes(), enc2.Bytes())
		}
	})
}

// FuzzTraceBinary fuzzes the packed binary reader: any input either fails to
// open (or fails while streaming an entry) or materializes to traces whose
// re-encoding is stable — encode(decode(x)) re-decodes deep-equal with
// byte-identical bytes. This pins the varint decoder and index parser
// against accepting corrupt frames.
func FuzzTraceBinary(f *testing.F) {
	enc, err := EncodeBinary(fuzzSeedTrace())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	small := New("s", 1)
	small.Append(0, Compute(time.Microsecond))
	enc2, err := EncodeBinary(small)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc2)
	f.Add([]byte("IBTP....garbage....IBTX"))
	f.Add(append(append([]byte{}, enc[:len(enc)-4]...), 'X', 'X', 'X', 'X'))
	// A peer beyond int32 that would wrap to the valid rank 1.
	f.Add(rawImage([][]byte{rawOp(tagSend, 1<<32+1, 8)}, [][]byte{rawOp(tagRecv, 0)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		bf, err := OpenBinary(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return // rejected at open: fine, as long as it does not panic
		}
		srcs := sources(bf)
		ops := make([][][]Op, len(srcs))
		for i, src := range srcs {
			if ops[i], err = sourceOps(src); err != nil {
				return // rejected while streaming: also a parse failure
			}
		}
		if len(srcs) == 0 {
			return
		}
		enc1, err := encodeSources(srcs...)
		if err != nil {
			t.Fatalf("re-encode of accepted file failed: %v", err)
		}
		bf2, err := OpenBinary(bytes.NewReader(enc1), int64(len(enc1)))
		if err != nil {
			t.Fatalf("re-open of own encoding failed: %v", err)
		}
		if bf2.Len() != len(srcs) {
			t.Fatalf("re-open holds %d entries, want %d", bf2.Len(), len(srcs))
		}
		srcs2 := sources(bf2)
		for i, src := range srcs2 {
			got, err := sourceOps(src)
			if err != nil {
				t.Fatalf("re-decode of own encoding failed: %v", err)
			}
			if src.Meta() != srcs[i].Meta() || !reflect.DeepEqual(ops[i], got) {
				t.Fatalf("binary round-trip changed entry %d\nin:  %v %+v\nout: %v %+v",
					i, srcs[i].Meta(), ops[i], src.Meta(), got)
			}
		}
		enc3, err := encodeSources(srcs2...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc3) {
			t.Fatal("binary encoding is not stable")
		}
	})
}

// FuzzTraceAppend appends constructor-built ops of every kind, and ops of
// no kind or call the encoding holds, to a packed trace and checks it
// against an []Op reference that applies CheckOp the way Append documents.
// Peers and roots range over int32's extremes, byte counts and durations
// over zero, negative and huge values. Every stored op reads back equal,
// each rank's cursor reports the op Append rejected, and NumOps, NumCalls,
// ComputeTime, SourceIdleDistribution and Validate agree with the reference. The
// pack writer's verbatim copy of the ranks equals packing them op by op.
func FuzzTraceAppend(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 7, 1, 0, 1, 6, 8, 2, 1, 0, 3, 2, 7, 0, 7, 5, 2, 4, 0, 9})
	f.Add(uint8(2), []byte{1, 0, 2, 2, 6, 1, 3, 8, 0, 4, 0, 0, 4, 1, 1, 5, 1, 0})
	f.Add(uint8(0), []byte{9, 0, 1, 2, 0, 2, 3, 0, 3, 0, 4, 5})
	f.Fuzz(func(t *testing.T, npByte uint8, data []byte) {
		np := int(npByte)%6 + 1
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// value returns an operand: a small valid rank, an extreme, or
		// eight raw bytes.
		value := func() int64 {
			switch next() % 9 {
			case 0:
				return int64(next()) % int64(np)
			case 1:
				return 0
			case 2:
				return -1
			case 3:
				return math.MaxInt32
			case 4:
				return math.MinInt32
			case 5:
				return 1 << 62
			case 6:
				return math.MaxInt64
			case 7:
				return math.MinInt64
			}
			var v uint64
			for range 8 {
				v = v<<8 | uint64(next())
			}
			return int64(v)
		}
		rank := func() int { return int(int32(value())) }
		tr := New("fuzz", np)
		ref := make([][]Op, np)
		refErr := make([]error, np)
		for len(data) > 0 {
			var op Op
			switch next() % 10 {
			case 0:
				op = Compute(time.Duration(value()))
			case 1:
				op = Send(rank(), int(value()))
			case 2:
				op = Recv(rank())
			case 3:
				op = Sendrecv(rank(), rank(), int(value()))
			case 4:
				op = Allreduce(int(value()))
			case 5:
				op = Barrier()
			case 6:
				op = Bcast(rank(), int(value()))
			case 7:
				op = Reduce(rank(), int(value()))
			case 8:
				op = Alltoall(int(value()))
			default: // any kind and call, most of which no encoding holds
				op = Op{Kind: OpKind(next()), Call: CallID(next()), Peer: int32(rank()), Bytes: int(value())}
			}
			r := int(next()) % np
			tr.Append(r, op)
			if refErr[r] == nil {
				if refErr[r] = CheckOp(np, r, len(ref[r]), &op); refErr[r] == nil {
					ref[r] = append(ref[r], constructed(op))
				}
			}
		}

		ops, calls := 0, 0
		var idle IdleDist
		var wantErr error
		for r := range np {
			got, err := drain(tr.Open(r))
			if !reflect.DeepEqual(got, ref[r]) {
				t.Fatalf("rank %d read back\n %+v\nwant\n %+v", r, got, ref[r])
			}
			if fmt.Sprint(err) != fmt.Sprint(refErr[r]) {
				t.Fatalf("rank %d cursor error %v, want %v", r, err, refErr[r])
			}
			if wantErr == nil {
				wantErr = refErr[r]
			}
			var compute, gap time.Duration
			rankCalls := 0
			for _, op := range ref[r] {
				ops++
				if op.Kind == OpCompute {
					compute += op.Duration
					gap += op.Duration
					continue
				}
				if calls++; rankCalls > 0 && gap > 0 {
					idle.Add(gap)
				}
				rankCalls++
				gap = 0
			}
			if got := tr.ComputeTime(r); got != compute {
				t.Fatalf("rank %d ComputeTime %v, want %v", r, got, compute)
			}
		}
		if tr.NumOps() != ops || tr.NumCalls() != calls {
			t.Fatalf("NumOps %d NumCalls %d, want %d and %d", tr.NumOps(), tr.NumCalls(), ops, calls)
		}
		if wantErr != nil {
			idle = IdleDist{} // an invalid trace has no distribution
		}
		// SourceIdleDistribution wraps the first rank's cursor error.
		if got, err := SourceIdleDistribution(tr); got != idle || fmt.Sprint(errors.Unwrap(err)) != fmt.Sprint(wantErr) {
			t.Fatalf("SourceIdleDistribution %+v, %v; want %+v, %v", got, err, idle, wantErr)
		}
		if err := tr.Validate(); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Validate = %v, want %v", err, wantErr)
		}
		// The op-by-op writer wraps the cursor's error with the trace and
		// rank; the verbatim copy reports it as Validate does.
		verbatim, err := EncodeBinary(tr)
		var opByOp bytes.Buffer
		err2 := WriteBinarySources(&opByOp, plainSource{tr})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil) != (err2 == nil) ||
			err != nil && !strings.HasSuffix(err2.Error(), err.Error()) {
			t.Fatalf("pack errors: verbatim %v, op by op %v, want %v", err, err2, wantErr)
		}
		if err == nil && !bytes.Equal(verbatim, opByOp.Bytes()) {
			t.Fatal("verbatim pack differs from the op-by-op pack")
		}
	})
}

// constructed returns op as its constructor builds it: the fields its kind
// and call do not use hold the sentinel -1 or zero. op must pass CheckOp.
func constructed(op Op) Op {
	if op.Kind == OpCompute {
		return Compute(op.Duration)
	}
	switch op.Call {
	case CallSend:
		return Send(int(op.Peer), op.Bytes)
	case CallRecv:
		return Recv(int(op.Peer))
	case CallSendrecv:
		return Sendrecv(int(op.Peer), int(op.RecvPeer), op.Bytes)
	case CallAllreduce:
		return Allreduce(op.Bytes)
	case CallBarrier:
		return Barrier()
	case CallBcast:
		return Bcast(int(op.Root), op.Bytes)
	case CallReduce:
		return Reduce(int(op.Root), op.Bytes)
	}
	return Alltoall(op.Bytes)
}

// plainSource hides a source's cursor type, so the pack writer reads it op
// by op.
type plainSource struct{ Source }

func (s plainSource) Open(r int) Cursor { return plainCursor{s.Source.Open(r)} }

type plainCursor struct{ Cursor }
