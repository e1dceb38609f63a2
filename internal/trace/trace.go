// Package trace defines the MPI event-trace model consumed by the pattern
// prediction algorithm and the replay simulator.
//
// A trace holds, for every MPI rank, the sequence of operations the rank
// performed: computation bursts (with their recorded durations, as in a
// Dimemas trace) interleaved with MPI calls. Computation is never executed
// during replay; it is represented by its duration, exactly as in the paper's
// methodology (Section IV-A).
package trace

import (
	"fmt"
	"time"
)

// CallID identifies an MPI call type. The numeric values for MPI_Sendrecv
// (41) and MPI_Allreduce (10) follow the IDs used in the paper's Figure 2 so
// that walkthrough output is directly comparable.
type CallID uint8

// MPI call identifiers.
const (
	CallNone      CallID = 0
	CallAllreduce CallID = 10 // paper ID
	CallBarrier   CallID = 8
	CallBcast     CallID = 7
	CallReduce    CallID = 9
	CallAlltoall  CallID = 11
	CallSend      CallID = 33
	CallRecv      CallID = 34
	CallIsend     CallID = 31
	CallIrecv     CallID = 32
	CallWait      CallID = 5
	CallWaitall   CallID = 6
	CallSendrecv  CallID = 41 // paper ID
)

var callNames = map[CallID]string{
	CallNone:      "none",
	CallAllreduce: "MPI_Allreduce",
	CallBarrier:   "MPI_Barrier",
	CallBcast:     "MPI_Bcast",
	CallReduce:    "MPI_Reduce",
	CallAlltoall:  "MPI_Alltoall",
	CallSend:      "MPI_Send",
	CallRecv:      "MPI_Recv",
	CallIsend:     "MPI_Isend",
	CallIrecv:     "MPI_Irecv",
	CallWait:      "MPI_Wait",
	CallWaitall:   "MPI_Waitall",
	CallSendrecv:  "MPI_Sendrecv",
}

// String returns the MPI routine name for the identifier.
func (c CallID) String() string {
	if n, ok := callNames[c]; ok {
		return n
	}
	return fmt.Sprintf("MPI_Unknown(%d)", uint8(c))
}

// IsCollective reports whether the call involves every rank of the
// communicator.
func (c CallID) IsCollective() bool {
	switch c {
	case CallAllreduce, CallBarrier, CallBcast, CallReduce, CallAlltoall:
		return true
	}
	return false
}

// OpKind discriminates trace operations.
type OpKind uint8

// Operation kinds.
const (
	OpCompute OpKind = iota // a computation burst of recorded duration
	OpCall                  // an MPI call
)

// Op is a single operation in a rank's stream, as a cursor returns it.
// Peers and roots are int32 and the fields are ordered widest first, so an
// Op is 32 bytes with no padding. A Trace does not hold Ops: it packs each
// rank's ops in the .ibt encoding (Rank). int32 loses nothing: both trace
// readers cap rank counts at maxBinRanks (2^20), and they reject a peer or
// root operand beyond int32 instead of letting it wrap. The constructors
// keep int parameters.
type Op struct {
	// Compute fields.
	Duration time.Duration // duration of the computation burst

	// Call fields.
	Bytes    int   // payload size for the sending direction
	Peer     int32 // destination (send) / source (recv); -1 when not applicable
	RecvPeer int32 // source for Sendrecv; -1 otherwise
	Root     int32 // root rank for rooted collectives; -1 otherwise

	Kind OpKind
	Call CallID
}

// Compute returns a computation burst of duration d.
func Compute(d time.Duration) Op {
	return Op{Kind: OpCompute, Duration: d, Peer: -1, RecvPeer: -1, Root: -1}
}

// rank32 narrows a rank operand to Op's int32 field. A rank beyond int32
// would wrap to another process silently, so it panics naming the operand.
func rank32(operand string, r int) int32 {
	if int(int32(r)) != r {
		panic(rankRangeError{operand, r})
	}
	return int32(r)
}

// rankRangeError is rank32's panic value. Formatting the message only when
// it is printed keeps rank32, and so the constructors, cheap enough to inline.
type rankRangeError struct {
	operand string
	rank    int
}

func (e rankRangeError) Error() string {
	return fmt.Sprintf("trace: %s rank %d out of int32 range", e.operand, e.rank)
}

// Send returns a blocking send of n bytes to rank peer.
func Send(peer, n int) Op {
	return Op{Kind: OpCall, Call: CallSend, Peer: rank32("peer", peer), RecvPeer: -1, Bytes: n, Root: -1}
}

// Recv returns a blocking receive from rank peer.
func Recv(peer int) Op {
	return Op{Kind: OpCall, Call: CallRecv, Peer: rank32("peer", peer), RecvPeer: -1, Root: -1}
}

// Sendrecv returns a combined send (n bytes to sendPeer) and receive (from
// recvPeer).
func Sendrecv(sendPeer, recvPeer, n int) Op {
	return Op{Kind: OpCall, Call: CallSendrecv, Peer: rank32("send peer", sendPeer), RecvPeer: rank32("recv peer", recvPeer), Bytes: n, Root: -1}
}

// Allreduce returns an all-reduce of n bytes per rank.
func Allreduce(n int) Op {
	return Op{Kind: OpCall, Call: CallAllreduce, Peer: -1, RecvPeer: -1, Bytes: n, Root: -1}
}

// Barrier returns a barrier.
func Barrier() Op {
	return Op{Kind: OpCall, Call: CallBarrier, Peer: -1, RecvPeer: -1, Root: -1}
}

// Bcast returns a broadcast of n bytes from root.
func Bcast(root, n int) Op {
	return Op{Kind: OpCall, Call: CallBcast, Peer: -1, RecvPeer: -1, Bytes: n, Root: rank32("root", root)}
}

// Reduce returns a reduction of n bytes to root.
func Reduce(root, n int) Op {
	return Op{Kind: OpCall, Call: CallReduce, Peer: -1, RecvPeer: -1, Bytes: n, Root: rank32("root", root)}
}

// Alltoall returns an all-to-all of n bytes per pair.
func Alltoall(n int) Op {
	return Op{Kind: OpCall, Call: CallAlltoall, Peer: -1, RecvPeer: -1, Bytes: n, Root: -1}
}

// Trace is a complete multi-rank execution trace. Each rank is held as a
// Rank: its ops packed in the .ibt op encoding, about 4.5 bytes per op on
// the paper's workloads against 32 for an Op.
type Trace struct {
	App   string // application name, e.g. "gromacs"
	NP    int    // number of MPI processes
	ranks []Rank
}

// New returns an empty trace for np ranks.
func New(app string, np int) *Trace {
	t := &Trace{App: app, NP: np, ranks: make([]Rank, np)}
	for r := range t.ranks {
		t.ranks[r] = Rank{np: np, r: r}
	}
	return t
}

// Append checks op with CheckOp and adds it to rank r's stream, as
// Rank.Append does.
func (t *Trace) Append(r int, op Op) { t.ranks[r].Append(op) }

// SetRank makes k, built by NewRank(t.NP, r, ·), rank r's stream. k's
// capacity is cut to its length, so a later Append to rank r reallocates
// instead of writing over whatever follows k's bytes in their buffer.
func (t *Trace) SetRank(r int, k Rank) {
	if k.np != t.NP || k.r != r {
		panic(fmt.Sprintf("trace: SetRank(%d) given rank %d of np=%d, want np=%d", r, k.r, k.np, t.NP))
	}
	k.b = k.b[:len(k.b):len(k.b)]
	t.ranks[r] = k
}

// RankBytes returns rank r's ops in the .ibt op encoding, back to back. The
// bytes belong to the trace: the caller must not modify them.
func (t *Trace) RankBytes(r int) []byte { return t.ranks[r].b }

// NumCalls returns the total number of MPI calls across all ranks.
func (t *Trace) NumCalls() int {
	n := 0
	for r := range t.ranks {
		n += t.ranks[r].calls
	}
	return n
}

// NumOps returns the total number of operations across all ranks.
func (t *Trace) NumOps() int {
	n := 0
	for r := range t.ranks {
		n += t.ranks[r].ops
	}
	return n
}

// ComputeTime returns the sum of recorded computation durations on rank r.
func (t *Trace) ComputeTime(r int) time.Duration {
	var d time.Duration
	c := packedCursor{b: t.ranks[r].b}
	for op, ok := c.Next(); ok; op, ok = c.Next() {
		if op.Kind == OpCompute {
			d += op.Duration
		}
	}
	return d
}

// Validate checks structural invariants: peer ranks in range (both sendrecv
// directions), non-negative sizes and durations. Collectives consistent
// across ranks is NOT required here (replay validates alignment when
// executing). The per-op rules live in CheckOp, which Append runs on every
// op, so Validate reads no op: it reports the first op Append rejected on
// the lowest rank that rejected one, naming the rank and op index.
func (t *Trace) Validate() error {
	if t.NP <= 0 {
		return fmt.Errorf("trace: NP must be positive, got %d", t.NP)
	}
	if len(t.ranks) != t.NP {
		return fmt.Errorf("trace: have %d rank streams, want %d", len(t.ranks), t.NP)
	}
	for r := range t.ranks {
		if err := t.ranks[r].err; err != nil {
			return err
		}
	}
	return nil
}

// Rank is one rank's operation stream packed back to back in the .ibt op
// encoding (see binary.go), with its op and call counts. Append checks
// every op with CheckOp before encoding it, so the bytes hold valid ops
// only and a cursor decodes them with no further check.
type Rank struct {
	np, r int    // the communicator size and the rank, for CheckOp
	b     []byte // the encoded ops
	ops   int
	calls int
	err   error // the first op Append rejected
}

// NewRank returns an empty stream for rank r of an np-rank trace that
// encodes its ops into buf's storage, from buf[0] on. It reallocates only
// when the ops outgrow cap(buf).
func NewRank(np, r int, buf []byte) Rank { return Rank{np: np, r: r, b: buf[:0]} }

// Append checks op with CheckOp as the rank's next op and encodes it. A
// stored op reads back as its constructor builds it: fields its kind and
// call do not use read back as the constructors' sentinels. An op that
// fails, an unknown kind or call ID included, is not stored: the rank keeps
// the first failure, which Trace.Validate and every cursor of the rank
// report, and ignores later ops.
func (k *Rank) Append(op Op) {
	if k.err != nil {
		return
	}
	if err := CheckOp(k.np, k.r, k.ops, &op); err != nil {
		k.err = err
		return
	}
	k.b = appendOp(k.b, &op)
	k.ops++
	if op.Kind == OpCall {
		k.calls++
	}
}

// Len returns the rank's encoded size in bytes.
func (k *Rank) Len() int { return len(k.b) }

// Open returns a cursor that decodes the rank's ops in place. After the
// last stored op its Err reports the op Append rejected, if any.
func (k *Rank) Open() Cursor { return &packedCursor{b: k.b, k: k} }
