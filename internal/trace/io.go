package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// The text trace format is line-oriented, similar in spirit to a Dimemas
// trace file:
//
//	#app <name> <np>
//	<rank> c <duration_ns>
//	<rank> s <peer> <bytes>            (send)
//	<rank> r <peer>                    (recv)
//	<rank> sr <sendpeer> <recvpeer> <bytes>
//	<rank> ar <bytes>                  (allreduce)
//	<rank> ba                          (barrier)
//	<rank> bc <root> <bytes>           (bcast)
//	<rank> rd <root> <bytes>           (reduce)
//	<rank> aa <bytes>                  (alltoall)
//
// Lines beginning with '#' (other than the header) and blank lines are
// ignored.

// Write serialises the trace in the text format.
func (t *Trace) Write(w io.Writer) error { return WriteText(w, t) }

// WriteText serialises any source in the text format, streaming one rank
// cursor at a time — converting a packed binary file to text never holds
// more than the cursor's read window.
func WriteText(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	m := src.Meta()
	fmt.Fprintf(bw, "#app %s %d\n", m.App, m.NP)
	for r := 0; r < m.NP; r++ {
		cur := src.Open(r)
		for {
			op, ok := cur.Next()
			if !ok {
				break
			}
			if err := writeOp(bw, r, op); err != nil {
				return err
			}
		}
		if err := cur.Err(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeOp(w io.Writer, r int, op Op) error {
	var err error
	switch op.Kind {
	case OpCompute:
		_, err = fmt.Fprintf(w, "%d c %d\n", r, op.Duration.Nanoseconds())
	case OpCall:
		switch op.Call {
		case CallSend:
			_, err = fmt.Fprintf(w, "%d s %d %d\n", r, op.Peer, op.Bytes)
		case CallRecv:
			_, err = fmt.Fprintf(w, "%d r %d\n", r, op.Peer)
		case CallSendrecv:
			_, err = fmt.Fprintf(w, "%d sr %d %d %d\n", r, op.Peer, op.RecvPeer, op.Bytes)
		case CallAllreduce:
			_, err = fmt.Fprintf(w, "%d ar %d\n", r, op.Bytes)
		case CallBarrier:
			_, err = fmt.Fprintf(w, "%d ba\n", r)
		case CallBcast:
			_, err = fmt.Fprintf(w, "%d bc %d %d\n", r, op.Root, op.Bytes)
		case CallReduce:
			_, err = fmt.Fprintf(w, "%d rd %d %d\n", r, op.Root, op.Bytes)
		case CallAlltoall:
			_, err = fmt.Fprintf(w, "%d aa %d\n", r, op.Bytes)
		default:
			err = fmt.Errorf("trace: cannot serialise call %v", op.Call)
		}
	default:
		err = fmt.Errorf("trace: cannot serialise op kind %d", op.Kind)
	}
	return err
}

// Read parses a trace in the text format.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var t *Trace
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#app ") {
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: malformed header", lineno)
			}
			np, err := strconv.Atoi(fields[2])
			if err != nil || np <= 0 || np > maxBinRanks {
				return nil, fmt.Errorf("trace: line %d: bad process count %q", lineno, fields[2])
			}
			t = New(fields[1], np)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if t == nil {
			return nil, fmt.Errorf("trace: line %d: record before #app header", lineno)
		}
		op, rank, err := parseOp(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineno, err)
		}
		if rank < 0 || rank >= t.NP {
			return nil, fmt.Errorf("trace: line %d: rank %d out of range", lineno, rank)
		}
		t.Append(rank, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("trace: missing #app header")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseOp(line string) (Op, int, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Op{}, 0, fmt.Errorf("too few fields")
	}
	rank, err := strconv.Atoi(f[0])
	if err != nil {
		return Op{}, 0, fmt.Errorf("bad rank %q", f[0])
	}
	atoi := func(i int) (int, error) {
		if i >= len(f) {
			return 0, fmt.Errorf("missing field %d", i)
		}
		return strconv.Atoi(f[i])
	}
	// rankOperand parses a peer or root field. Op stores ranks as int32,
	// so a value beyond int32 would wrap, possibly onto a valid rank;
	// reject it here.
	rankOperand := func(i int, name string) (int, error) {
		v, err := atoi(i)
		if err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
			err = fmt.Errorf("%s %d exceeds int32", name, v)
		}
		return v, err
	}
	switch f[1] {
	case "c":
		ns, err := atoi(2)
		if err != nil {
			return Op{}, 0, err
		}
		return Compute(time.Duration(ns)), rank, nil
	case "s":
		peer, err := rankOperand(2, "peer")
		if err != nil {
			return Op{}, 0, err
		}
		n, err := atoi(3)
		if err != nil {
			return Op{}, 0, err
		}
		return Send(peer, n), rank, nil
	case "r":
		peer, err := rankOperand(2, "peer")
		if err != nil {
			return Op{}, 0, err
		}
		return Recv(peer), rank, nil
	case "sr":
		sp, err := rankOperand(2, "peer")
		if err != nil {
			return Op{}, 0, err
		}
		rp, err := rankOperand(3, "recv peer")
		if err != nil {
			return Op{}, 0, err
		}
		n, err := atoi(4)
		if err != nil {
			return Op{}, 0, err
		}
		return Sendrecv(sp, rp, n), rank, nil
	case "ar":
		n, err := atoi(2)
		if err != nil {
			return Op{}, 0, err
		}
		return Allreduce(n), rank, nil
	case "ba":
		return Barrier(), rank, nil
	case "bc":
		root, err := rankOperand(2, "root")
		if err != nil {
			return Op{}, 0, err
		}
		n, err := atoi(3)
		if err != nil {
			return Op{}, 0, err
		}
		return Bcast(root, n), rank, nil
	case "rd":
		root, err := rankOperand(2, "root")
		if err != nil {
			return Op{}, 0, err
		}
		n, err := atoi(3)
		if err != nil {
			return Op{}, 0, err
		}
		return Reduce(root, n), rank, nil
	case "aa":
		n, err := atoi(2)
		if err != nil {
			return Op{}, 0, err
		}
		return Alltoall(n), rank, nil
	}
	return Op{}, 0, fmt.Errorf("unknown record type %q", f[1])
}
