package topology

// FaultSet is the live failure state of one fabric: a bitmask over directed
// LinkIDs (individually failed cables) and a bitmask over node IDs (failed
// switches). Lookups are O(1) bit tests with no allocation, so the network
// model can consult the set on every hop of every transfer. The set is
// mutable — the churn engine fails and repairs entities as its fault event
// stream fires — and is owned by a single serial event loop, so it needs no
// locking.
//
// Failing a link always fails both directions of its physical cable (a cable
// fault takes out the fibre, not one lane), and a failed switch blocks every
// link incident to it without touching the per-link mask, so independent
// link faults and switch faults compose: repairing the switch does not
// resurrect a link that also failed on its own.
type FaultSet struct {
	tab    *LinkTable
	links  []uint64 // bit per directed LinkID: individually failed
	nodes  []uint64 // bit per node ID: failed switch
	cables int      // failed cables
	down   int      // failed switches
}

// NewFaultSet returns an all-healthy fault set over f's link table.
func NewFaultSet(f Fabric) *FaultSet {
	tab := f.Table()
	maxNode := int32(-1)
	for i := range tab.From {
		if tab.From[i] > maxNode {
			maxNode = tab.From[i]
		}
		if tab.To[i] > maxNode {
			maxNode = tab.To[i]
		}
	}
	return &FaultSet{
		tab:   tab,
		links: make([]uint64, (tab.Len()+63)/64),
		nodes: make([]uint64, (int(maxNode)+1+63)/64),
	}
}

// Empty reports whether every entity is healthy; the network model skips all
// fault checks (and routes directly with RouteIDsInto) while the set is empty.
func (fs *FaultSet) Empty() bool { return fs.cables == 0 && fs.down == 0 }

// FailLink fails the physical cable of id (both directions). Failing an
// already-failed cable is a no-op, so fail/repair events always pair.
func (fs *FaultSet) FailLink(id LinkID) {
	fwd := id &^ 1 // even ID of the cable
	if fs.links[fwd>>6]&(1<<uint(fwd&63)) != 0 {
		return
	}
	fs.links[fwd>>6] |= 1 << uint(fwd&63)
	rev := fwd | 1
	fs.links[rev>>6] |= 1 << uint(rev&63)
	fs.cables++
}

// RepairLink restores the physical cable of id. Repairing a healthy cable is
// a no-op.
func (fs *FaultSet) RepairLink(id LinkID) {
	fwd := id &^ 1
	if fs.links[fwd>>6]&(1<<uint(fwd&63)) == 0 {
		return
	}
	fs.links[fwd>>6] &^= 1 << uint(fwd&63)
	rev := fwd | 1
	fs.links[rev>>6] &^= 1 << uint(rev&63)
	fs.cables--
}

// FailNode fails the switch with the given node ID: every link into or out
// of it reads as blocked. Failing a failed switch is a no-op.
func (fs *FaultSet) FailNode(node int32) {
	if fs.nodes[node>>6]&(1<<uint(node&63)) != 0 {
		return
	}
	fs.nodes[node>>6] |= 1 << uint(node&63)
	fs.down++
}

// RepairNode restores a failed switch. Repairing a healthy one is a no-op.
func (fs *FaultSet) RepairNode(node int32) {
	if fs.nodes[node>>6]&(1<<uint(node&63)) == 0 {
		return
	}
	fs.nodes[node>>6] &^= 1 << uint(node&63)
	fs.down--
}

// Blocked reports whether a directed link is unusable: its cable failed, or
// either endpoint switch is down. Three bit tests and two table reads — the
// per-hop cost of fault-aware routing.
func (fs *FaultSet) Blocked(id LinkID) bool {
	if fs.links[id>>6]&(1<<uint(id&63)) != 0 {
		return true
	}
	from, to := fs.tab.From[id], fs.tab.To[id]
	return fs.nodes[from>>6]&(1<<uint(from&63)) != 0 ||
		fs.nodes[to>>6]&(1<<uint(to&63)) != 0
}

// PathBlocked reports whether any link of path is blocked.
func (fs *FaultSet) PathBlocked(path []LinkID) bool {
	for _, id := range path {
		if fs.Blocked(id) {
			return true
		}
	}
	return false
}

// FaultRouter is the degraded-routing contract fabrics implement alongside
// Fabric. RouteIDsAvoiding appends a valid src→dst path that traverses no
// blocked link, given the draw sequence the healthy route would have used
// (recorded by RouteDraws — the caller consumes the RNG, this method never
// does, so the fault layer cannot perturb the healthy-path draw sequence).
//
// The determinism contract has two halves:
//
//   - When the path RouteIDsFromDraws(src, dst, draws) selects is entirely
//     healthy, RouteIDsAvoiding must return exactly that path: transfers that
//     never meet a fault are bit-identical to a fault-free run.
//   - When it is blocked, the detour is a pure function of (src, dst, draws,
//     fault set), chosen by a documented per-fabric rule — no RNG, no
//     iteration-order dependence.
//
// A pair with no healthy path left returns ok == false (reported, never
// panicked); the caller decides how to degrade.
type FaultRouter interface {
	RouteIDsAvoiding(buf []LinkID, src, dst int, draws []int, fs *FaultSet) (path []LinkID, ok bool)
}

// maxAvoidLevels bounds the stack scratch the XGFT detour enumeration uses;
// fat trees deeper than this (none are registered) fall back to a heap
// allocation inside RouteIDsAvoiding.
const maxAvoidLevels = 16

// RouteIDsAvoiding implements the XGFT detour rule: re-pick the up-link
// choices. The candidate paths are enumerated by offsetting the recorded
// draws — offset vector (o_0..o_{top-1}), pick[l] = (draw[l]+o_l) mod w_l —
// in odometer order with the topmost ascent level varying fastest, starting
// from the all-zero offset (the healthy path). The first candidate whose
// links are all unblocked wins; a fat tree loses src↔dst connectivity only
// when every common-ancestor subtree is cut, in which case ok is false.
func (t *XGFT) RouteIDsAvoiding(buf []LinkID, src, dst int, draws []int, fs *FaultSet) ([]LinkID, bool) {
	top := t.divergeLevel(src, dst)
	if top == 0 {
		return buf, true
	}
	base := len(buf)
	var offsArr [maxAvoidLevels]int
	offs := offsArr[:0]
	if top <= maxAvoidLevels {
		offs = offsArr[:top]
	} else {
		offs = make([]int, top)
	}
	for {
		buf = buf[:base]
		cur := src
		blocked := false
		for lvl := 0; lvl < top; lvl++ {
			fan := t.W[lvl]
			i := cur*fan + (draws[lvl]+offs[lvl])%fan
			id := t.up[lvl][i]
			if fs.Blocked(id) {
				blocked = true
				break
			}
			buf = append(buf, id)
			cur = int(t.upTo[lvl][i])
		}
		if !blocked {
			down := t.descend(buf, cur, top, dst)
			if !fs.PathBlocked(down[len(buf):]) {
				return down, true
			}
			buf = down[:base] // preserve any growth descend caused
		}
		// Advance the offset odometer, topmost level first.
		lvl := top - 1
		for lvl >= 0 {
			offs[lvl]++
			if offs[lvl] < t.W[lvl] {
				break
			}
			offs[lvl] = 0
			lvl--
		}
		if lvl < 0 {
			return buf[:base], false
		}
	}
}

// RouteIDsAvoiding implements the dragonfly detour rule. Inter-group routes
// re-pick the intermediate group: candidates are gi, gi+1, …, wrapping mod G
// (gi is the recorded draw, or the source group for a minimal route), and
// the first candidate whose full path — local hop to the global port, global
// cable, local hops on the far side — is unblocked wins. Intra-group routes
// whose direct local link is blocked detour through the lowest-index healthy
// intermediate router of the group.
func (d *Dragonfly) RouteIDsAvoiding(buf []LinkID, src, dst int, draws []int, fs *FaultSet) ([]LinkID, bool) {
	if src == dst {
		return buf, true
	}
	base := len(buf)
	gs, gd := d.group(src), d.group(dst)
	if gs == gd {
		return d.avoidLocal(buf, base, src, dst, fs)
	}
	gi := gs
	if len(draws) > 0 {
		gi = draws[0]
	}
	for k := 0; k < d.G; k++ {
		buf = buf[:base]
		cand := d.route(buf, src, dst, (gi+k)%d.G)
		if !fs.PathBlocked(cand[base:]) {
			return cand, true
		}
		buf = cand[:base]
	}
	return buf[:base], false
}

// avoidLocal handles the intra-group case: direct local link if healthy,
// else two local hops via the lowest-index healthy intermediate router.
func (d *Dragonfly) avoidLocal(buf []LinkID, base, src, dst int, fs *FaultSet) ([]LinkID, bool) {
	g := d.group(src)
	ri, rj := d.router(src), d.router(dst)
	up, down := d.hostUp[src], Reverse(d.hostUp[dst])
	if fs.Blocked(up) || fs.Blocked(down) {
		return buf[:base], false
	}
	if ri == rj {
		return append(buf, up, down), true
	}
	if direct := d.local[(g*d.A+ri)*d.A+rj]; !fs.Blocked(direct) {
		return append(buf, up, direct, down), true
	}
	for k := 0; k < d.A; k++ {
		if k == ri || k == rj {
			continue
		}
		l1 := d.local[(g*d.A+ri)*d.A+k]
		l2 := d.local[(g*d.A+k)*d.A+rj]
		if !fs.Blocked(l1) && !fs.Blocked(l2) {
			return append(buf, up, l1, l2, down), true
		}
	}
	return buf[:base], false
}

// maxAvoidDims bounds the stack-free arc-flip enumeration; tori with more
// dimensions than this (none are registered) report unreachable when the
// dimension-order path is blocked.
const maxAvoidDims = 16

// RouteIDsAvoiding implements the torus detour rule: dimension-order routing
// with per-dimension arc flips. Candidates are enumerated by a bitmask over
// the dimensions that need correction — mask 0 is the healthy shorter-arc
// path, and masks count up with dimension 0 as the lowest bit, each set bit
// sending that dimension around the longer arc. The first mask whose full
// path is unblocked wins; dimensions needing no correction are never
// traversed, so a torus pair is unreachable once every arc combination over
// the correcting dimensions is cut.
func (t *Torus) RouteIDsAvoiding(buf []LinkID, src, dst int, _ []int, fs *FaultSet) ([]LinkID, bool) {
	if src == dst {
		return buf, true
	}
	nd := len(t.Dims)
	if nd > maxAvoidDims {
		nd = maxAvoidDims
	}
	base := len(buf)
	up, down := t.hostUp[src], Reverse(t.hostUp[dst])
	if fs.Blocked(up) || fs.Blocked(down) {
		return buf[:base], false
	}
	target := dst / t.P
	for mask := 0; mask < 1<<uint(nd); mask++ {
		buf = buf[:base]
		buf = append(buf, up)
		cur := src / t.P
		blocked := false
		skip := false
		for d := 0; d < len(t.Dims) && !blocked; d++ {
			size := t.Dims[d]
			delta := ((target/t.stride[d])%size - (cur/t.stride[d])%size + size) % size
			if delta == 0 {
				if mask&(1<<uint(d)) != 0 {
					skip = true // flipping an uncorrected dimension duplicates mask 0
					break
				}
				continue
			}
			steps, dir := delta, +1
			if size-delta < delta {
				steps, dir = size-delta, -1
			}
			if d < nd && mask&(1<<uint(d)) != 0 {
				steps, dir = size-steps, -dir
			}
			for s := 0; s < steps; s++ {
				var id LinkID
				if dir > 0 {
					id = t.plus[cur*len(t.Dims)+d]
				} else {
					id = t.minus[cur*len(t.Dims)+d]
				}
				if fs.Blocked(id) {
					blocked = true
					break
				}
				buf = append(buf, id)
				cur = t.neighbor(cur, d, dir)
			}
		}
		if skip || blocked {
			continue
		}
		if !fs.Blocked(down) {
			return append(buf, down), true
		}
	}
	return buf[:base], false
}
