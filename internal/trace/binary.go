package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// The binary trace format packs one or more traces into a single file read
// through bounded per-rank windows:
//
//	header  "IBTP" + version byte (1)
//	data    per trace, per rank: ops back-to-back, varint-encoded
//	index   uvarint ntraces; per trace: uvarint len(app), app bytes,
//	        uvarint np; per rank: uvarint offset, uvarint nbytes, uvarint nops
//	footer  uint64 LE index offset + "IBTX" (fixed 12 bytes)
//
// Each op is a tag byte followed by its uvarint operands (all values are
// non-negative by construction — Validate/CheckOp enforce it):
//
//	0x00 compute   duration_ns
//	0x01 send      peer bytes
//	0x02 recv      peer
//	0x03 sendrecv  peer recvpeer bytes
//	0x04 allreduce bytes
//	0x05 barrier
//	0x06 bcast     root bytes
//	0x07 reduce    root bytes
//	0x08 alltoall  bytes
//
// The index sits at the end so packing needs only a counting writer (no
// io.Seeker): WriteBinarySources streams each rank straight to the output
// and records offsets as it goes, holding O(one rank window) memory when the
// sources themselves stream.

const (
	binMagic    = "IBTP"
	binVersion  = 1
	idxMagic    = "IBTX"
	binFooterSz = 8 + len(idxMagic)

	// window is a file cursor's read buffer, or the rank's length when
	// shorter: the bounded memory a streamed rank costs during replay,
	// whatever the rank's length.
	window = 4 << 10
	// maxOpLen is the most bytes checkOp reads for one op, valid or not: a
	// tag and three operands of at most binary.MaxVarintLen64 bytes. A
	// cursor refills its window whenever fewer remain, so a window shorter
	// than its rank must hold at least this many.
	maxOpLen = 1 + 3*binary.MaxVarintLen64

	// Parser caps: a corrupt or adversarial index must not drive huge
	// allocations before any data is read.
	maxBinTraces = 1 << 20
	maxBinRanks  = 1 << 20
	maxBinApp    = 4096
)

// Op tags of the binary format.
const (
	tagCompute byte = iota
	tagSend
	tagRecv
	tagSendrecv
	tagAllreduce
	tagBarrier
	tagBcast
	tagReduce
	tagAlltoall
	tagMax = tagAlltoall
)

// rankIndex locates one rank's encoded stream inside the file.
type rankIndex struct {
	off    int64
	nbytes int64
	nops   int64
}

// fileEntry is one packed trace: its identity plus the per-rank index.
type fileEntry struct {
	meta  Meta
	ranks []rankIndex
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// appendOp encodes op onto buf. It is the one encoder of the format: Rank
// stores ops through it and the pack writer writes them. The op must
// satisfy CheckOp, which rejects every kind and call this switch lacks.
func appendOp(buf []byte, op *Op) []byte {
	if op.Kind == OpCompute {
		buf = append(buf, tagCompute)
		return binary.AppendUvarint(buf, uint64(op.Duration))
	}
	switch op.Call {
	case CallSend:
		buf = append(buf, tagSend)
		buf = binary.AppendUvarint(buf, uint64(op.Peer))
	case CallRecv:
		buf = append(buf, tagRecv)
		return binary.AppendUvarint(buf, uint64(op.Peer))
	case CallSendrecv:
		buf = append(buf, tagSendrecv)
		buf = binary.AppendUvarint(buf, uint64(op.Peer))
		buf = binary.AppendUvarint(buf, uint64(op.RecvPeer))
	case CallAllreduce:
		buf = append(buf, tagAllreduce)
	case CallBarrier:
		return append(buf, tagBarrier)
	case CallBcast:
		buf = append(buf, tagBcast)
		buf = binary.AppendUvarint(buf, uint64(op.Root))
	case CallReduce:
		buf = append(buf, tagReduce)
		buf = binary.AppendUvarint(buf, uint64(op.Root))
	default: // CallAlltoall
		buf = append(buf, tagAlltoall)
	}
	return binary.AppendUvarint(buf, uint64(op.Bytes))
}

// EncodedLen returns the number of bytes the .ibt encoding of op takes. The
// op must satisfy CheckOp. The workloads generator sizes its trace arena
// from it.
func EncodedLen(op Op) int {
	var b [maxOpLen]byte
	return len(appendOp(b[:0], &op))
}

// opOperands holds, at each tag, the number of uvarint operands after it.
const opOperands = "\x01\x02\x01\x03\x01\x00\x02\x02\x01"

// rankOperand returns the name of operand i of an op with tag when it is a
// rank, a peer or a root, and "" when it is a byte count or a duration.
// Ranks lead the operands.
func rankOperand(tag byte, i int) string {
	switch {
	case i == 0 && (tag == tagSend || tag == tagRecv || tag == tagSendrecv):
		return "peer"
	case i == 1 && tag == tagSendrecv:
		return "recv peer"
	case i == 0 && (tag == tagBcast || tag == tagReduce):
		return "root"
	}
	return ""
}

// checkOp checks that b starts with a whole op that packedCursor can
// decode. It reports an unknown tag,
// a truncated or over-long uvarint, an operand above 1<<62, and a peer or
// root beyond int32, whose int32 field would wrap, possibly onto a valid
// rank. Operands are checked in order, so the first bad one is reported. b
// ending inside the op reads as io.EOF before the tag and before an
// operand, and as io.ErrUnexpectedEOF inside one. It reads at most
// maxOpLen bytes: binary.MaxVarintLen64 per operand, as binary.ReadUvarint
// does.
func checkOp(b []byte) error {
	if len(b) == 0 {
		return io.EOF
	}
	tag := b[0]
	if tag > tagMax {
		return fmt.Errorf("unknown op tag 0x%02x", tag)
	}
	n := 1
	for i := range int(opOperands[tag]) {
		rest := b[n:]
		if len(rest) > 0 && rest[0] < 0x80 { // one byte: below every cap
			n++
			continue
		}
		v, k := binary.Uvarint(rest[:min(len(rest), binary.MaxVarintLen64)])
		switch {
		case k > 0 && v > 1<<62:
			return fmt.Errorf("varint operand %d overflows", v)
		case k > 0:
		case k < 0 || len(rest) >= binary.MaxVarintLen64:
			return errors.New("binary: varint overflows a 64-bit integer")
		case len(rest) == 0:
			return io.EOF
		default:
			return io.ErrUnexpectedEOF
		}
		if v > math.MaxInt32 {
			if name := rankOperand(tag, i); name != "" {
				return fmt.Errorf("%s operand %d exceeds int32", name, v)
			}
		}
		n += k
	}
	return nil
}

// packedCursor decodes encoded ops in place: a Rank's, whose ops Append
// checked one by one, or a file cursor's window, once checkOp has passed
// the next op. It is the one decoder of the format, and it checks nothing.
type packedCursor struct {
	b []byte // the ops not yet decoded
	k *Rank  // the rank opened; nil when decoding a file cursor's window
}

// Next decodes the op at the start of b. Each case returns its op as a
// literal: an Op copied through a temporary after its fields were stored
// one by one stalls the load on the stores and costs about half again the
// decode.
func (c *packedCursor) Next() (Op, bool) {
	b := c.b
	if len(b) == 0 {
		return Op{}, false
	}
	tag := b[0]
	var v [3]uint64
	n := 1
	for i := range int(opOperands[tag]) {
		var x uint64
		for s := uint(0); ; s += 7 {
			ch := b[n]
			n++
			x |= uint64(ch&0x7f) << s
			if ch < 0x80 {
				break
			}
		}
		v[i] = x
	}
	c.b = b[n:]
	// Unused fields carry the constructors' sentinels (-1), so a decoded
	// trace compares equal to its original.
	switch tag {
	case tagCompute:
		return Op{Kind: OpCompute, Duration: time.Duration(v[0]), Peer: -1, RecvPeer: -1, Root: -1}, true
	case tagSend:
		return Op{Kind: OpCall, Call: CallSend, Peer: int32(v[0]), Bytes: int(v[1]), RecvPeer: -1, Root: -1}, true
	case tagRecv:
		return Op{Kind: OpCall, Call: CallRecv, Peer: int32(v[0]), RecvPeer: -1, Root: -1}, true
	case tagSendrecv:
		return Op{Kind: OpCall, Call: CallSendrecv, Peer: int32(v[0]), RecvPeer: int32(v[1]), Bytes: int(v[2]), Root: -1}, true
	case tagAllreduce:
		return Op{Kind: OpCall, Call: CallAllreduce, Bytes: int(v[0]), Peer: -1, RecvPeer: -1, Root: -1}, true
	case tagBarrier:
		return Op{Kind: OpCall, Call: CallBarrier, Peer: -1, RecvPeer: -1, Root: -1}, true
	case tagBcast:
		return Op{Kind: OpCall, Call: CallBcast, Root: int32(v[0]), Bytes: int(v[1]), Peer: -1, RecvPeer: -1}, true
	case tagReduce:
		return Op{Kind: OpCall, Call: CallReduce, Root: int32(v[0]), Bytes: int(v[1]), Peer: -1, RecvPeer: -1}, true
	default: // tagAlltoall
		return Op{Kind: OpCall, Call: CallAlltoall, Bytes: int(v[0]), Peer: -1, RecvPeer: -1, Root: -1}, true
	}
}

func (c *packedCursor) Err() error { return c.k.err }

// WriteBinarySources packs the sources into the binary format. Ranks are
// drained one cursor at a time, so packing a streaming source (the workloads
// generator, another file) holds one rank window in memory, never the whole
// trace. A rank held packed (a *Trace's, the generator's) is copied
// verbatim, reporting the op Append rejected if there is one; any other
// cursor's ops are validated with CheckOp and encoded. Duplicate (app, NP)
// identities are rejected because the file index is keyed on them.
func WriteBinarySources(w io.Writer, srcs ...Source) error {
	if len(srcs) == 0 {
		return fmt.Errorf("trace: nothing to pack")
	}
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if _, err := cw.Write(append([]byte(binMagic), binVersion)); err != nil {
		return err
	}
	seen := make(map[Meta]bool, len(srcs))
	entries := make([]fileEntry, 0, len(srcs))
	var buf []byte
	for _, src := range srcs {
		m := src.Meta()
		if m.NP <= 0 {
			return fmt.Errorf("trace: %s: NP must be positive, got %d", m.App, m.NP)
		}
		if len(m.App) > maxBinApp {
			return fmt.Errorf("trace: app name %q too long", m.App[:32]+"...")
		}
		if seen[m] {
			return fmt.Errorf("trace: duplicate trace %s np=%d in pack", m.App, m.NP)
		}
		seen[m] = true
		ent := fileEntry{meta: m, ranks: make([]rankIndex, m.NP)}
		for r := 0; r < m.NP; r++ {
			start := cw.n
			c := src.Open(r)
			var nops int64
			if pc, ok := c.(*packedCursor); ok {
				// A Rank's bytes are this encoding already, and Append
				// checked each op: copy them verbatim.
				if pc.k.err != nil {
					return pc.k.err
				}
				if _, err := cw.Write(pc.b); err != nil {
					return err
				}
				nops = int64(pc.k.ops)
			} else {
				for op, ok := c.Next(); ok; op, ok = c.Next() {
					if err := CheckOp(m.NP, r, int(nops), &op); err != nil {
						return err
					}
					buf = appendOp(buf[:0], &op)
					if _, err := cw.Write(buf); err != nil {
						return err
					}
					nops++
				}
				if err := c.Err(); err != nil {
					return fmt.Errorf("trace: %s np=%d rank %d: %w", m.App, m.NP, r, err)
				}
			}
			ent.ranks[r] = rankIndex{off: start, nbytes: cw.n - start, nops: nops}
		}
		entries = append(entries, ent)
	}
	idxOff := cw.n
	buf = binary.AppendUvarint(buf[:0], uint64(len(entries)))
	for _, ent := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(ent.meta.App)))
		buf = append(buf, ent.meta.App...)
		buf = binary.AppendUvarint(buf, uint64(ent.meta.NP))
		for _, rix := range ent.ranks {
			buf = binary.AppendUvarint(buf, uint64(rix.off))
			buf = binary.AppendUvarint(buf, uint64(rix.nbytes))
			buf = binary.AppendUvarint(buf, uint64(rix.nops))
		}
	}
	if _, err := cw.Write(buf); err != nil {
		return err
	}
	var foot [binFooterSz]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(idxOff))
	copy(foot[8:], idxMagic)
	if _, err := cw.Write(foot[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinary packs in-memory traces into the binary format.
func WriteBinary(w io.Writer, traces ...*Trace) error {
	srcs := make([]Source, len(traces))
	for i, t := range traces {
		srcs[i] = t
	}
	return WriteBinarySources(w, srcs...)
}

// EncodeBinary packs in-memory traces and returns the encoded bytes.
func EncodeBinary(traces ...*Trace) ([]byte, error) {
	var b bytes.Buffer
	if err := WriteBinary(&b, traces...); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// File is an opened binary trace file: the handle plus the decoded index.
// Ops are never held here — each Open of a rank reads the rank's byte range
// through its own fixed window, so a File's memory footprint is the index,
// not the trace. A File is safe for concurrent cursor opens (io.ReaderAt is
// position-independent).
type File struct {
	ra      io.ReaderAt
	closer  io.Closer
	entries []fileEntry
	window  int // cursor window size; tests shrink it to force refills
}

// OpenFile opens a binary trace file from disk.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	bf, err := OpenBinary(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	bf.closer = f
	return bf, nil
}

// OpenBinary opens a binary trace image from any random-access reader of the
// given size. Only the index is decoded.
func OpenBinary(ra io.ReaderAt, size int64) (*File, error) {
	hdrLen := int64(len(binMagic) + 1)
	if size < hdrLen+int64(binFooterSz) {
		return nil, fmt.Errorf("trace: binary image too short (%d bytes)", size)
	}
	var hdr [5]byte
	if err := readFullAt(ra, hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if hdr[4] != binVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", hdr[4])
	}
	var foot [binFooterSz]byte
	if err := readFullAt(ra, foot[:], size-int64(binFooterSz)); err != nil {
		return nil, err
	}
	if string(foot[8:]) != idxMagic {
		return nil, fmt.Errorf("trace: bad index magic %q", foot[8:])
	}
	idxOff := int64(binary.LittleEndian.Uint64(foot[:8]))
	if idxOff < hdrLen || idxOff > size-int64(binFooterSz) {
		return nil, fmt.Errorf("trace: index offset %d out of range", idxOff)
	}
	dataEnd := idxOff
	br := bufio.NewReader(io.NewSectionReader(ra, idxOff, size-int64(binFooterSz)-idxOff))
	uv := func(what string) (int64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("trace: index: %s: %w", what, err)
		}
		if v > 1<<62 {
			return 0, fmt.Errorf("trace: index: %s %d overflows", what, v)
		}
		return int64(v), nil
	}
	ntr, err := uv("trace count")
	if err != nil {
		return nil, err
	}
	if ntr == 0 || ntr > maxBinTraces {
		return nil, fmt.Errorf("trace: index: implausible trace count %d", ntr)
	}
	f := &File{ra: ra, window: window}
	seen := make(map[Meta]bool, ntr)
	for t := int64(0); t < ntr; t++ {
		alen, err := uv("app name length")
		if err != nil {
			return nil, err
		}
		if alen > maxBinApp {
			return nil, fmt.Errorf("trace: index: implausible app name length %d", alen)
		}
		app := make([]byte, alen)
		if _, err := io.ReadFull(br, app); err != nil {
			return nil, fmt.Errorf("trace: index: app name: %w", err)
		}
		np, err := uv("process count")
		if err != nil {
			return nil, err
		}
		if np <= 0 || np > maxBinRanks {
			return nil, fmt.Errorf("trace: index: implausible process count %d", np)
		}
		ent := fileEntry{meta: Meta{App: string(app), NP: int(np)}, ranks: make([]rankIndex, np)}
		if seen[ent.meta] {
			return nil, fmt.Errorf("trace: index: duplicate trace %s np=%d", ent.meta.App, ent.meta.NP)
		}
		seen[ent.meta] = true
		for r := int64(0); r < np; r++ {
			off, err := uv("rank offset")
			if err != nil {
				return nil, err
			}
			nbytes, err := uv("rank byte length")
			if err != nil {
				return nil, err
			}
			nops, err := uv("rank op count")
			if err != nil {
				return nil, err
			}
			if off < hdrLen || nbytes < 0 || off+nbytes > dataEnd {
				return nil, fmt.Errorf("trace: index: %s np=%d rank %d: byte range [%d,%d) outside data section",
					ent.meta.App, np, r, off, off+nbytes)
			}
			if nops > nbytes {
				return nil, fmt.Errorf("trace: index: %s np=%d rank %d: %d ops cannot fit in %d bytes",
					ent.meta.App, np, r, nops, nbytes)
			}
			ent.ranks[r] = rankIndex{off: off, nbytes: nbytes, nops: nops}
		}
		f.entries = append(f.entries, ent)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: index: trailing bytes")
	}
	return f, nil
}

// Entries lists the packed traces in file order.
func (f *File) Entries() []Meta {
	out := make([]Meta, len(f.entries))
	for i, e := range f.entries {
		out[i] = e.meta
	}
	return out
}

// Has reports whether the file packs a trace for (app, np).
func (f *File) Has(app string, np int) bool {
	for _, e := range f.entries {
		if e.meta.App == app && e.meta.NP == np {
			return true
		}
	}
	return false
}

// Source returns the streaming source for the packed (app, np) trace.
func (f *File) Source(app string, np int) (Source, error) {
	for i := range f.entries {
		if f.entries[i].meta.App == app && f.entries[i].meta.NP == np {
			return &FileSource{f: f, ent: &f.entries[i]}, nil
		}
	}
	return nil, fmt.Errorf("trace: file has no trace %s np=%d", app, np)
}

// SourceAt returns the i'th packed trace as a streaming source.
func (f *File) SourceAt(i int) Source {
	return &FileSource{f: f, ent: &f.entries[i]}
}

// Len returns the number of packed traces.
func (f *File) Len() int { return len(f.entries) }

// NumOps returns the total op count of the i'th packed trace, from the index
// alone.
func (f *File) NumOps(i int) int64 {
	var n int64
	for _, rix := range f.entries[i].ranks {
		n += rix.nops
	}
	return n
}

// DataBytes returns the encoded byte size of the i'th packed trace.
func (f *File) DataBytes(i int) int64 {
	var n int64
	for _, rix := range f.entries[i].ranks {
		n += rix.nbytes
	}
	return n
}

// Close closes the underlying file when the File owns one (OpenFile).
func (f *File) Close() error {
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// readFullAt fills p from ra at off. io.ReaderAt may return io.EOF with a
// full read at the end of its input; that read succeeded.
func readFullAt(ra io.ReaderAt, p []byte, off int64) error {
	n, err := ra.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// FileSource streams one packed trace. Implements Source; each Open reads
// the rank's byte range through a fresh fixed window.
type FileSource struct {
	f   *File
	ent *fileEntry
}

// Meta returns the packed trace's identity.
func (s *FileSource) Meta() Meta { return s.ent.meta }

// Open returns a cursor over rank r's encoded stream. The cursor holds one
// window, never larger than the rank, however long the rank is; Next
// decodes in place and allocates nothing. Open panics on a rank outside
// [0, np).
func (s *FileSource) Open(r int) Cursor {
	if r < 0 || r >= len(s.ent.ranks) {
		panic(fmt.Sprintf("trace: rank %d out of range [0, %d)", r, s.ent.meta.NP))
	}
	rix := s.ent.ranks[r]
	return &fileCursor{
		ra: s.f.ra, off: rix.off, left: rix.nbytes, buf: make([]byte, min(int64(s.f.window), rix.nbytes)),
		np: s.ent.meta.NP, rank: r, nops: rix.nops,
	}
}

// fileCursor reads one rank's stream through a fixed window. It checks each
// op's bytes with checkOp, decodes them in place with the packed cursor, and
// validates the op with CheckOp.
type fileCursor struct {
	ra   io.ReaderAt
	off  int64  // file offset of the rank's first byte not yet read
	left int64  // the rank's bytes not yet read
	buf  []byte // the window
	p    []byte // read but not yet decoded: a suffix of buf's filled part
	np   int
	rank int
	nops int64
	i    int64
	err  error
}

// Next decodes the next op in place, first refilling the window when fewer
// bytes than one maximal op are left in it: the undecoded bytes move to its
// front and the rank's next bytes follow them.
func (c *fileCursor) Next() (Op, bool) {
	if c.err != nil || c.i >= c.nops {
		return Op{}, false
	}
	var err error
	if len(c.p) < maxOpLen && c.left > 0 {
		k := copy(c.buf, c.p)
		n := int(min(int64(len(c.buf)-k), c.left))
		err = readFullAt(c.ra, c.buf[k:k+n], c.off)
		c.off += int64(n)
		c.left -= int64(n)
		c.p = c.buf[:k+n]
	}
	if err == nil {
		err = checkOp(c.p)
	}
	if err != nil {
		c.err = fmt.Errorf("trace: rank %d op %d: decode: %w", c.rank, c.i, err)
		return Op{}, false
	}
	dec := packedCursor{b: c.p}
	op, _ := dec.Next()
	c.p = dec.b
	if err := CheckOp(c.np, c.rank, int(c.i), &op); err != nil {
		c.err = err
		return Op{}, false
	}
	c.i++
	if c.i == c.nops && (len(c.p) > 0 || c.left > 0) {
		// The index said this many ops in this many bytes; trailing bytes
		// mean the two disagree.
		c.err = fmt.Errorf("trace: rank %d: trailing bytes after op %d", c.rank, c.nops)
		return Op{}, false
	}
	return op, true
}

func (c *fileCursor) Err() error { return c.err }
