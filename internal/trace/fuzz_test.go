package trace

import (
	"bytes"
	"reflect"
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
		var traces []*Trace
		for i := 0; i < bf.Len(); i++ {
			tr, err := Materialize(bf.SourceAt(i))
			if err != nil {
				return // rejected while streaming: also a parse failure
			}
			traces = append(traces, tr)
		}
		if len(traces) == 0 {
			return
		}
		enc1, err := EncodeBinary(traces...)
		if err != nil {
			t.Fatalf("re-encode of accepted file failed: %v", err)
		}
		bf2, err := OpenBinary(bytes.NewReader(enc1), int64(len(enc1)))
		if err != nil {
			t.Fatalf("re-open of own encoding failed: %v", err)
		}
		for i := 0; i < bf2.Len(); i++ {
			tr, err := Materialize(bf2.SourceAt(i))
			if err != nil {
				t.Fatalf("re-decode of own encoding failed: %v", err)
			}
			if !reflect.DeepEqual(traces[i], tr) {
				t.Fatalf("binary round-trip changed entry %d\nin:  %+v\nout: %+v", i, traces[i], tr)
			}
		}
		enc3, err := EncodeBinary(traces...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc3) {
			t.Fatal("binary encoding is not stable")
		}
	})
}
