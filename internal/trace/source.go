package trace

import (
	"fmt"
	"time"
)

// Meta identifies a trace: the application name and its communicator size.
// Source implementations surface it without materializing any rank stream.
type Meta struct {
	App string
	NP  int
}

// Cursor walks one rank's operation stream in order. Next returns the next
// op until the stream is exhausted; after Next reports false, Err
// distinguishes end-of-stream (nil) from a decode or validation failure.
// A consumer that reads a rank again (a churn retry, a primed predictor)
// opens a new cursor.
type Cursor interface {
	Next() (Op, bool)
	Err() error
}

// Source is a trace whose rank streams are read through cursors rather than
// indexed as slices. The in-memory Trace, the workloads generator, and the
// binary trace file all implement it, so every consumer from replay to the
// scenario harness is agnostic to whether ops live in memory, are generated
// on the fly, or stream from disk through a bounded window.
//
// Open may be called multiple times per rank; cursors are independent. A
// Source must be safe for concurrent Open calls (the harness prepares jobs
// on a worker pool), but an individual Cursor is not.
type Source interface {
	Meta() Meta
	Open(rank int) Cursor
}

// Meta returns the trace's identity. *Trace implements Source.
func (t *Trace) Meta() Meta { return Meta{App: t.App, NP: t.NP} }

// Open returns a cursor that decodes rank r's packed ops in place. It
// panics on a rank outside [0, np).
func (t *Trace) Open(r int) Cursor {
	if r < 0 || r >= len(t.ranks) {
		panic(fmt.Sprintf("trace: rank %d out of range [0, %d)", r, t.NP))
	}
	return t.ranks[r].Open()
}

// CallGap is one MPI call of a rank's call stream: the computation time
// summed since the previous call (or the stream start), then the call.
type CallGap struct {
	Gap  time.Duration
	Call CallID
}

// Calls reduces cursor c's op stream to the rank's call stream, the view of
// a rank that Table I and the gram formation of Algorithm 1 take: every call
// with the computation before it, and tail, the computation after the last
// call. It reuses buf's storage. Durations are integers, so the sums are
// exact: a run over the calls reaches every call at the time a run over the
// ops would.
func Calls(buf []CallGap, c Cursor) (calls []CallGap, tail time.Duration, err error) {
	calls = buf[:0]
	for {
		op, ok := c.Next()
		if !ok {
			return calls, tail, c.Err()
		}
		switch op.Kind {
		case OpCompute:
			tail += op.Duration
		case OpCall:
			calls = append(calls, CallGap{Gap: tail, Call: op.Call})
			tail = 0
		}
	}
}

// ValidateSource checks what a source can verify without materializing it: an
// in-memory *Trace runs Validate, which reports the op Append rejected;
// streaming sources check the meta block here and validate each op as it is
// decoded (every Cursor.Next of the binary reader runs CheckOp), surfacing
// failures through Cursor.Err.
func ValidateSource(src Source) error {
	if t, ok := src.(*Trace); ok {
		return t.Validate()
	}
	m := src.Meta()
	if m.NP <= 0 {
		return fmt.Errorf("trace: %s: NP must be positive, got %d", m.App, m.NP)
	}
	return nil
}

// CheckOp validates one operation of rank r's stream against communicator
// size np; i is the op's index within the stream, carried into every error so
// a failure names the exact offending record. It is the single validation
// point shared by Rank.Append, the binary decoder, and the pack writer. It
// takes op by pointer: an Op passed by value with np, r and i does not fit
// the registers, and the stores and reloads of its fields cost as much as
// the check.
func CheckOp(np, r, i int, op *Op) error {
	switch op.Kind {
	case OpCompute:
		if op.Duration < 0 {
			return fmt.Errorf("trace: rank %d op %d: negative compute duration", r, i)
		}
	case OpCall:
		if op.Bytes < 0 {
			return fmt.Errorf("trace: rank %d op %d: negative byte count", r, i)
		}
		switch op.Call {
		case CallSend, CallRecv:
			if op.Peer < 0 || int(op.Peer) >= np {
				return fmt.Errorf("trace: rank %d op %d: peer %d out of range", r, i, op.Peer)
			}
			if int(op.Peer) == r {
				return fmt.Errorf("trace: rank %d op %d: self message", r, i)
			}
		case CallSendrecv:
			if op.Peer < 0 || int(op.Peer) >= np {
				return fmt.Errorf("trace: rank %d op %d: sendrecv send peer %d out of range", r, i, op.Peer)
			}
			if op.RecvPeer < 0 || int(op.RecvPeer) >= np {
				return fmt.Errorf("trace: rank %d op %d: sendrecv recv peer %d out of range", r, i, op.RecvPeer)
			}
		case CallBcast, CallReduce:
			if op.Root < 0 || int(op.Root) >= np {
				return fmt.Errorf("trace: rank %d op %d: root %d out of range", r, i, op.Root)
			}
		case CallAllreduce, CallBarrier, CallAlltoall:
		default:
			// The replay engine expands only the eight calls of this
			// switch; any other ID would replay as a silent no-op.
			return fmt.Errorf("trace: rank %d op %d: unsupported call ID %d", r, i, op.Call)
		}
	default:
		return fmt.Errorf("trace: rank %d op %d: unknown kind %d", r, i, op.Kind)
	}
	return nil
}

// SourceIdleDistribution aggregates the Table I idle-interval distribution
// over every rank of src, decoding one rank's call stream at a time into
// one reused buffer. An idle interval is the computation time accumulated
// between two consecutive calls; time before the first call and after the
// last is not one.
func SourceIdleDistribution(src Source) (IdleDist, error) {
	var d IdleDist
	var calls []CallGap
	m := src.Meta()
	for r := 0; r < m.NP; r++ {
		var err error
		if calls, _, err = Calls(calls, src.Open(r)); err != nil {
			return IdleDist{}, fmt.Errorf("trace: %s np=%d rank %d: %w", m.App, m.NP, r, err)
		}
		for k := 1; k < len(calls); k++ {
			if calls[k].Gap > 0 {
				d.Add(calls[k].Gap)
			}
		}
	}
	return d, nil
}
