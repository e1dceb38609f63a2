package trace

import "math/bits"

// The collective schedule: every MPI call is decomposed into a sequence of
// point-to-point steps per rank, following the classic algorithms (recursive
// doubling for allreduce, dissemination for barrier, binomial trees for
// rooted collectives, rotation for alltoall). The replay engine charges for
// exactly these steps, the mini-MPI runtime sends them, and the DVS baseline
// counts their bytes; synchronization between ranks emerges from matching
// the steps of the ranks of one communicator.

// Step is one point-to-point step of an MPI call on one rank.
type Step struct {
	Send  int // peer the step sends to, or -1 when it has no send part
	Recv  int // peer the step receives from, or -1 when it has no recv part
	Bytes int // bytes of the send part
}

// Steps appends the steps rank r of an np-rank communicator performs for op
// to buf and returns the extended slice. Callers pass a reused buffer
// truncated to zero, so a call allocates only when it needs more steps than
// the buffer has ever held.
func Steps(buf []Step, op Op, r, np int) []Step {
	switch op.Call {
	case CallSend:
		return append(buf, Step{Send: int(op.Peer), Recv: -1, Bytes: op.Bytes})
	case CallRecv:
		return append(buf, Step{Send: -1, Recv: int(op.Peer)})
	case CallSendrecv:
		return append(buf, Step{Send: int(op.Peer), Recv: int(op.RecvPeer), Bytes: op.Bytes})
	case CallAllreduce:
		return allreduceSteps(buf, r, np, op.Bytes)
	case CallBarrier:
		return disseminationSteps(buf, r, np, 0)
	case CallBcast:
		return bcastSteps(buf, r, int(op.Root), np, op.Bytes)
	case CallReduce:
		return reduceSteps(buf, r, int(op.Root), np, op.Bytes)
	case CallAlltoall:
		return alltoallSteps(buf, r, np, op.Bytes)
	}
	return buf
}

// StepsCap returns the capacity of a rank's step buffer in an np-rank job:
// the most steps any call but alltoall expands to (allreduce reaches it on a
// non-power-of-two np), so alltoall is the only call that grows it.
func StepsCap(np int) int { return bits.Len(uint(np)) + 1 }

// floorPow2 returns the largest power of two <= n (n >= 1).
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// allreduceSteps implements recursive doubling with the standard
// non-power-of-two pre/post phases: the first 2*rem ranks pair up so a
// power-of-two core remains, the core performs log2 rounds of pairwise
// exchange, and results are returned to the paired-out ranks.
func allreduceSteps(steps []Step, r, np, bytes int) []Step {
	pof2 := floorPow2(np)
	rem := np - pof2

	newRank := -1
	switch {
	case r < 2*rem && r%2 == 0:
		// Paired-out rank: contribute, then wait for the result.
		steps = append(steps, Step{Send: r + 1, Recv: -1, Bytes: bytes})
		steps = append(steps, Step{Send: -1, Recv: r + 1})
		return steps
	case r < 2*rem:
		steps = append(steps, Step{Send: -1, Recv: r - 1})
		newRank = r / 2
	default:
		newRank = r - rem
	}

	oldRank := func(nr int) int {
		if nr < rem {
			return nr*2 + 1
		}
		return nr + rem
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := oldRank(newRank ^ mask)
		steps = append(steps, Step{Send: partner, Recv: partner, Bytes: bytes})
	}
	if r < 2*rem {
		steps = append(steps, Step{Send: r - 1, Recv: -1, Bytes: bytes})
	}
	return steps
}

// disseminationSteps implements the dissemination barrier: ceil(log2 np)
// rounds of exchanging control messages with exponentially growing offsets.
func disseminationSteps(steps []Step, r, np, bytes int) []Step {
	for off := 1; off < np; off *= 2 {
		to := (r + off) % np
		from := (r - off%np + np) % np
		steps = append(steps, Step{Send: to, Recv: from, Bytes: bytes})
	}
	return steps
}

// bcastSteps implements the binomial-tree broadcast.
func bcastSteps(steps []Step, r, root, np, bytes int) []Step {
	vrank := (r - root + np) % np
	mask := 1
	for mask < np {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % np
			steps = append(steps, Step{Send: -1, Recv: src})
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < np {
			dst := (vrank + mask + root) % np
			steps = append(steps, Step{Send: dst, Recv: -1, Bytes: bytes})
		}
		mask >>= 1
	}
	return steps
}

// reduceSteps implements the binomial-tree reduction (reverse broadcast).
func reduceSteps(steps []Step, r, root, np, bytes int) []Step {
	vrank := (r - root + np) % np
	for mask := 1; mask < np; mask <<= 1 {
		if vrank&mask == 0 {
			if vrank+mask < np {
				src := (vrank + mask + root) % np
				steps = append(steps, Step{Send: -1, Recv: src})
			}
		} else {
			dst := (vrank - mask + root) % np
			steps = append(steps, Step{Send: dst, Recv: -1, Bytes: bytes})
			break
		}
	}
	return steps
}

// alltoallSteps implements the rotation (ring) all-to-all: in round i every
// rank sends to (r+i) and receives from (r-i).
func alltoallSteps(steps []Step, r, np, bytes int) []Step {
	for i := 1; i < np; i++ {
		to := (r + i) % np
		from := (r - i + np) % np
		steps = append(steps, Step{Send: to, Recv: from, Bytes: bytes})
	}
	return steps
}
