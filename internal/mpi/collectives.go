package mpi

import "ibpower/internal/trace"

// ReduceOp combines two values during reductions.
type ReduceOp func(a, b float64) float64

// Built-in reduction operators.
var (
	Sum ReduceOp = func(a, b float64) float64 { return a + b }
	Max ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	Min ReduceOp = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

func combine(dst, src []float64, op ReduceOp) {
	for i := range dst {
		dst[i] = op(dst[i], src[i])
	}
}

// exchange runs this rank's trace.Steps of op with buf as its payload, own
// telling whether buf starts as the rank's contribution. Every send carries
// buf. While the rank holds its contribution, a receive is combined into buf
// by f; after a send-only step the contribution has left, so a later receive
// is the finished result and replaces buf, as every receive does on a rank
// without a contribution. It returns the final buf and whether the rank
// still holds its contribution.
func (c *Comm) exchange(op trace.Op, buf []float64, f ReduceOp, own bool) ([]float64, bool) {
	c.steps = trace.Steps(c.steps[:0], op, c.rank, c.rt.size)
	for _, st := range c.steps {
		if st.Send >= 0 {
			c.send(st.Send, buf)
		}
		if st.Recv < 0 {
			own = false
			continue
		}
		if in := c.recv(st.Recv); own {
			combine(buf, in, f)
		} else {
			buf = in
		}
	}
	return buf, own
}

// Allreduce combines data element-wise across all ranks and returns the
// result on every rank.
func (c *Comm) Allreduce(data []float64, f ReduceOp) []float64 {
	op := trace.Allreduce(bytesOf(data))
	s := c.enter(op.Call)
	defer func() { c.recordOp(op, s, c.exit(op.Call, s)) }()
	acc := make([]float64, len(data))
	copy(acc, data)
	acc, _ = c.exchange(op, acc, f, true)
	return acc
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	op := trace.Barrier()
	s := c.enter(op.Call)
	defer func() { c.recordOp(op, s, c.exit(op.Call, s)) }()
	c.exchange(op, nil, nil, false)
}

// Bcast distributes root's data to every rank and returns it.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	op := trace.Bcast(root, bytesOf(data))
	s := c.enter(op.Call)
	defer func() { c.recordOp(op, s, c.exit(op.Call, s)) }()
	buf := make([]float64, len(data))
	if c.rank == root {
		copy(buf, data)
	}
	buf, _ = c.exchange(op, buf, nil, false)
	return buf
}

// Reduce combines data element-wise onto root; non-root ranks receive nil.
func (c *Comm) Reduce(root int, data []float64, f ReduceOp) []float64 {
	op := trace.Reduce(root, bytesOf(data))
	s := c.enter(op.Call)
	defer func() { c.recordOp(op, s, c.exit(op.Call, s)) }()
	acc := make([]float64, len(data))
	copy(acc, data)
	if acc, own := c.exchange(op, acc, f, true); own {
		return acc
	}
	return nil
}

// Alltoall exchanges data[i*k:(i+1)*k] with every rank i, where k =
// len(data)/Size(). The result holds the block received from each rank in
// rank order.
func (c *Comm) Alltoall(data []float64) []float64 {
	np, r := c.Size(), c.Rank()
	op := trace.Alltoall(bytesOf(data) / np)
	s := c.enter(op.Call)
	defer func() { c.recordOp(op, s, c.exit(op.Call, s)) }()
	if len(data)%np != 0 {
		panic("mpi: Alltoall data length not divisible by communicator size")
	}
	k := len(data) / np
	out := make([]float64, len(data))
	copy(out[r*k:(r+1)*k], data[r*k:(r+1)*k])
	c.steps = trace.Steps(c.steps[:0], op, r, np)
	for _, st := range c.steps {
		c.send(st.Send, data[st.Send*k:(st.Send+1)*k])
		copy(out[st.Recv*k:(st.Recv+1)*k], c.recv(st.Recv))
	}
	return out
}
