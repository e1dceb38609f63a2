package replay

import (
	"math/bits"

	"ibpower/internal/trace"
)

// Collectives are decomposed into sequences of point-to-point micro
// operations per rank, following the classic algorithms (recursive doubling
// for allreduce, dissemination for barrier, binomial trees for rooted
// collectives, rotation for alltoall). Synchronization between ranks emerges
// from matching the micro operations during replay.

// microOp is one point-to-point step of an MPI call.
type microOp struct {
	sendPeer int // -1 when no send part
	recvPeer int // -1 when no recv part
	bytes    int
}

// expand appends the micro-op sequence rank r performs for op to steps and
// returns the extended slice. The engine passes each rank's own buffer
// truncated to zero, so a call allocates only when it needs more steps than
// the buffer has ever held.
func expand(steps []microOp, op trace.Op, r, np int) []microOp {
	switch op.Call {
	case trace.CallSend:
		return append(steps, microOp{sendPeer: int(op.Peer), recvPeer: -1, bytes: op.Bytes})
	case trace.CallRecv:
		return append(steps, microOp{sendPeer: -1, recvPeer: int(op.Peer)})
	case trace.CallSendrecv:
		return append(steps, microOp{sendPeer: int(op.Peer), recvPeer: int(op.RecvPeer), bytes: op.Bytes})
	case trace.CallAllreduce:
		return allreduceSteps(steps, r, np, op.Bytes)
	case trace.CallBarrier:
		return disseminationSteps(steps, r, np, 0)
	case trace.CallBcast:
		return bcastSteps(steps, r, int(op.Root), np, op.Bytes)
	case trace.CallReduce:
		return reduceSteps(steps, r, int(op.Root), np, op.Bytes)
	case trace.CallAlltoall:
		return alltoallSteps(steps, r, np, op.Bytes)
	}
	return steps
}

// presize returns the capacity of a rank's micro-op buffer in an np-rank
// job: the most steps any call but alltoall expands to (allreduce reaches it
// on a non-power-of-two np), so alltoall is the only call that grows it.
func presize(np int) int { return bits.Len(uint(np)) + 1 }

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
func allreduceSteps(steps []microOp, r, np, bytes int) []microOp {
	pof2 := floorPow2(np)
	rem := np - pof2

	newRank := -1
	switch {
	case r < 2*rem && r%2 == 0:
		// Paired-out rank: contribute, then wait for the result.
		steps = append(steps, microOp{sendPeer: r + 1, recvPeer: -1, bytes: bytes})
		steps = append(steps, microOp{sendPeer: -1, recvPeer: r + 1})
		return steps
	case r < 2*rem:
		steps = append(steps, microOp{sendPeer: -1, recvPeer: r - 1})
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
		steps = append(steps, microOp{sendPeer: partner, recvPeer: partner, bytes: bytes})
	}
	if r < 2*rem {
		steps = append(steps, microOp{sendPeer: r - 1, recvPeer: -1, bytes: bytes})
	}
	return steps
}

// disseminationSteps implements the dissemination barrier: ceil(log2 np)
// rounds of exchanging control messages with exponentially growing offsets.
func disseminationSteps(steps []microOp, r, np, bytes int) []microOp {
	for off := 1; off < np; off *= 2 {
		to := (r + off) % np
		from := (r - off%np + np) % np
		steps = append(steps, microOp{sendPeer: to, recvPeer: from, bytes: bytes})
	}
	return steps
}

// bcastSteps implements the binomial-tree broadcast.
func bcastSteps(steps []microOp, r, root, np, bytes int) []microOp {
	vrank := (r - root + np) % np
	mask := 1
	for mask < np {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % np
			steps = append(steps, microOp{sendPeer: -1, recvPeer: src})
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < np {
			dst := (vrank + mask + root) % np
			steps = append(steps, microOp{sendPeer: dst, recvPeer: -1, bytes: bytes})
		}
		mask >>= 1
	}
	return steps
}

// reduceSteps implements the binomial-tree reduction (reverse broadcast).
func reduceSteps(steps []microOp, r, root, np, bytes int) []microOp {
	vrank := (r - root + np) % np
	for mask := 1; mask < np; mask <<= 1 {
		if vrank&mask == 0 {
			if vrank+mask < np {
				src := (vrank + mask + root) % np
				steps = append(steps, microOp{sendPeer: -1, recvPeer: src})
			}
		} else {
			dst := (vrank - mask + root) % np
			steps = append(steps, microOp{sendPeer: dst, recvPeer: -1, bytes: bytes})
			break
		}
	}
	return steps
}

// alltoallSteps implements the rotation (ring) all-to-all: in round i every
// rank sends to (r+i) and receives from (r-i).
func alltoallSteps(steps []microOp, r, np, bytes int) []microOp {
	for i := 1; i < np; i++ {
		to := (r + i) % np
		from := (r - i + np) % np
		steps = append(steps, microOp{sendPeer: to, recvPeer: from, bytes: bytes})
	}
	return steps
}
