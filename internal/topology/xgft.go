// Package topology builds interconnect fabrics and routes over them. The
// paper simulates a single Extended Generalized Fat Tree — XGFT(2;18,14;1,18),
// a two-level fat tree with 252 terminal nodes (Table II) — but the
// prediction mechanism is topology-agnostic, so the fabrics here are
// pluggable: XGFT fat trees, dragonflies and tori all implement the Fabric
// interface and register under names the CLI's -topo flag selects.
//
// Fabrics use a compact flat-array representation: directed links are dense
// LinkIDs into a shared LinkTable, node identity is arithmetic (mixed-radix
// digits, never pointers), and routing walks small per-level index arrays.
// This keeps an 8000-terminal preset at a few hundred kilobytes of resident
// tables and routing at a handful of array reads per hop.
//
// XGFT(h; m1..mh; w1..wh) has h switch levels above the terminal level 0.
// Every level-l node (l < h) has w_{l+1} parents and every level-l node
// (l >= 1) has m_l children. Terminals are compute nodes; the paper
// allocates one MPI process per node.
package topology

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// XGFT is a built fat tree in flat-array form. Node IDs are dense: terminals
// first (0..T-1, in mixed-radix digit order with x_1 the fastest-varying
// digit), then switches level by level. A level-l node's local index packs
// its digits as xIdx*Y_l + yIdx where xIdx holds the down-digits (x_h..x_{l+1},
// x_{l+1} fastest) and yIdx the up-digits (y_l..y_1, y_1 fastest) with
// Y_l = w_1*...*w_l.
type XGFT struct {
	H    int   // number of switch levels
	M, W []int // child counts m_1..m_h and parent counts w_1..w_h

	count []int    // nodes per level 0..H
	base  []int    // first node ID per level 0..H
	tinv  []uint64 // tinv[l-1] = ceil(2^64 / (m_1*...*m_l)) mod 2^64, the reciprocal digit reads
	ylen  []int    // ylen[l] = Y_l = w_1*...*w_l (ylen[0] = 1)

	tab LinkTable

	// Per-level routing arrays. up[l][n*W[l]+k] is the k-th up-link of the
	// node with local index n at level l (upTo its parent's local index at
	// level l+1); down[l][s*M[l-1]+c] is the down-link of level-l switch s
	// toward its child with digit x_l = c (downTo that child's local index).
	up     [][]LinkID
	upTo   [][]int32
	down   [][]LinkID
	downTo [][]int32
}

// New builds XGFT(h; m...; w...). len(m) and len(w) must equal h and all
// entries must be positive.
func New(h int, m, w []int) (*XGFT, error) {
	if h < 1 {
		return nil, fmt.Errorf("topology: height %d < 1", h)
	}
	if len(m) != h || len(w) != h {
		return nil, fmt.Errorf("topology: need %d m and w entries, got %d and %d", h, len(m), len(w))
	}
	for i := 0; i < h; i++ {
		if m[i] <= 0 || w[i] <= 0 {
			return nil, fmt.Errorf("topology: non-positive arity m[%d]=%d w[%d]=%d", i, m[i], i, w[i])
		}
	}
	t := &XGFT{H: h, M: append([]int(nil), m...), W: append([]int(nil), w...)}

	// Level populations and digit strides. Level l has X_l*Y_l nodes with
	// X_l = m_{l+1}*...*m_h and Y_l = w_1*...*w_l.
	t.count = make([]int, h+1)
	t.base = make([]int, h+1)
	t.tinv = make([]uint64, h)
	t.ylen = make([]int, h+1)
	t.ylen[0] = 1
	stride := 1
	for l := 1; l <= h; l++ {
		if stride > math.MaxInt32/m[l-1] {
			return nil, fmt.Errorf("topology: more than %d terminals", math.MaxInt32)
		}
		stride *= m[l-1]
		// A stride of 1 wraps to 0, which reads digit 0: the only digit
		// of a level whose arity is 1.
		t.tinv[l-1] = math.MaxUint64/uint64(stride) + 1
		t.ylen[l] = t.ylen[l-1] * w[l-1]
	}
	terms := stride // m_1*...*m_h
	t.count[0] = terms
	for l := 1; l <= h; l++ {
		x := 1
		for i := l; i < h; i++ {
			x *= m[i]
		}
		t.count[l] = x * t.ylen[l]
		t.base[l] = t.base[l-1] + t.count[l-1]
	}

	// Routing arrays.
	t.up = make([][]LinkID, h)
	t.upTo = make([][]int32, h)
	t.down = make([][]LinkID, h+1)
	t.downTo = make([][]int32, h+1)
	for l := 0; l < h; l++ {
		t.up[l] = make([]LinkID, t.count[l]*w[l])
		t.upTo[l] = make([]int32, t.count[l]*w[l])
	}
	for l := 1; l <= h; l++ {
		t.down[l] = make([]LinkID, t.count[l]*m[l-1])
		t.downTo[l] = make([]int32, t.count[l]*m[l-1])
	}

	// Wire level l-1 to level l: the child with digits (x_h..x_l | y_{l-1}..y_1)
	// connects to the level-l switch (x_h..x_{l+1} | y_l..y_1) for every y_l
	// in [0, w_l). Cables are created child-major, then y_l — terminals first,
	// then each switch level — so LinkIDs match the historical construction
	// order (forward/up at even IDs).
	for l := 1; l <= h; l++ {
		wl, ml := w[l-1], m[l-1]
		kind := LinkToSwitch | LinkUp
		if l > 1 {
			kind |= LinkFromSwitch
		}
		for child := 0; child < t.count[l-1]; child++ {
			yIdx := child % t.ylen[l-1]
			xIdx := child / t.ylen[l-1]
			px, c := xIdx/ml, xIdx%ml
			for yl := 0; yl < wl; yl++ {
				parent := px*t.ylen[l] + yl*t.ylen[l-1] + yIdx
				fwd := t.tab.addCable(int32(t.base[l-1]+child), int32(t.base[l]+parent), kind)
				t.up[l-1][child*wl+yl] = fwd
				t.upTo[l-1][child*wl+yl] = int32(parent)
				t.down[l][parent*ml+c] = Reverse(fwd)
				t.downTo[l][parent*ml+c] = int32(child)
			}
		}
	}
	return t, nil
}

var (
	paperOnce sync.Once
	paperTopo *XGFT
)

// Paper returns the paper's XGFT(2;18,14;1,18). The instance is built once
// and shared: an XGFT is immutable after New, so every replay engine (and
// concurrent sweep point) can route over the same fabric. Callers needing a
// private topology should call New directly.
func Paper() *XGFT {
	paperOnce.Do(func() {
		t, err := New(2, []int{18, 14}, []int{1, 18})
		if err != nil {
			panic(err)
		}
		paperTopo = t
	})
	return paperTopo
}

// Name describes the tree in XGFT(h; m...; w...) notation.
func (t *XGFT) Name() string {
	return fmt.Sprintf("xgft(%d;%s;%s)", t.H, digits(t.M), digits(t.W))
}

func digits(vs []int) string {
	b := make([]byte, 0, 3*len(vs))
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", v)
	}
	return string(b)
}

// NumTerminals returns the terminal count.
func (t *XGFT) NumTerminals() int { return t.count[0] }

// NumSwitches returns the total switch count.
func (t *XGFT) NumSwitches() int {
	n := 0
	for l := 1; l <= t.H; l++ {
		n += t.count[l]
	}
	return n
}

// NumCables returns the physical cable count.
func (t *XGFT) NumCables() int { return t.tab.NumCables() }

// NumLinks returns the directed link count.
func (t *XGFT) NumLinks() int { return t.tab.Len() }

// Table returns the fabric's compact link table.
func (t *XGFT) Table() *LinkTable { return &t.tab }

// RoutingBytes returns the resident size of the per-level routing arrays.
func (t *XGFT) RoutingBytes() int64 {
	var b int64
	for l := range t.up {
		b += int64(len(t.up[l]))*4 + int64(len(t.upTo[l]))*4
	}
	for l := range t.down {
		b += int64(len(t.down[l]))*4 + int64(len(t.downTo[l]))*4
	}
	return b
}

// UpDown declares XGFT routing up*/down* (IsUpDown): a fat-tree route,
// healthy or a detour, ascends to a common ancestor and descends the same
// number of levels.
func (t *XGFT) UpDown() bool { return true }

// HostLinkID returns the directed link from terminal i into its leaf switch.
func (t *XGFT) HostLinkID(i int) LinkID { return t.up[0][i*t.W[0]] }

// digit returns digit x_l of terminal term, term / (m_1*...*m_{l-1}) % m_l,
// without dividing. With D = m_1*...*m_l, the low word of tinv[l-1]*term,
// read as a fraction of 2^64, is (term mod D)/D plus less than term/2^64;
// m_l times it has the digit as its integer part, which the high word of the
// product is. The excess cannot reach the next integer while term*D < 2^64,
// which New's int32 terminal cap guarantees (remainder by multiplication:
// Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation", 2019).
func (t *XGFT) digit(term, l int) int {
	hi, _ := bits.Mul64(t.tinv[l-1]*uint64(term), uint64(t.M[l-1]))
	return int(hi)
}

// divergeLevel returns the smallest level L such that the down-digits of the
// two terminals agree above L; terminals in the same leaf subtree diverge at
// level 1, identical terminals at level 0.
func (t *XGFT) divergeLevel(a, b int) int {
	for l := t.H; l >= 1; l-- {
		if t.digit(a, l) != t.digit(b, l) {
			return l
		}
	}
	return 0
}

// RouteIDsInto appends the directed links of a path from terminal src to
// terminal dst: up to the lowest common ancestor level with a random choice
// among the parallel up-links (the paper's "random routing", Table II), then
// deterministically down. src == dst appends nothing. When buf has enough
// capacity no allocation occurs.
func (t *XGFT) RouteIDsInto(buf []LinkID, src, dst int, rng *rand.Rand) []LinkID {
	top := t.divergeLevel(src, dst)
	if top == 0 {
		return buf
	}
	cur := src
	for lvl := 0; lvl < top; lvl++ {
		fan := t.W[lvl]
		k := 0
		if fan > 1 && rng != nil {
			k = rng.Intn(fan)
		}
		i := cur*fan + k
		buf = append(buf, t.up[lvl][i])
		cur = int(t.upTo[lvl][i])
	}
	return t.descend(buf, cur, top, dst)
}

// descend appends the deterministic down path from the level-top switch with
// local index cur to terminal dst.
func (t *XGFT) descend(buf []LinkID, cur, top, dst int) []LinkID {
	for lvl := top; lvl > 0; lvl-- {
		i := cur*t.M[lvl-1] + t.digit(dst, lvl)
		buf = append(buf, t.down[lvl][i])
		cur = int(t.downTo[lvl][i])
	}
	return buf
}

// RouteDraws appends the up-link picks RouteIDsInto would draw from rng for
// (src, dst), consuming rng identically: one recorded pick per ascended
// level, with Intn consulted only when the fan-out exceeds one and rng is
// non-nil (pick 0 otherwise).
func (t *XGFT) RouteDraws(draws []int, src, dst int, rng *rand.Rand) []int {
	top := t.divergeLevel(src, dst)
	for lvl := 0; lvl < top; lvl++ {
		pick := 0
		if t.W[lvl] > 1 && rng != nil {
			pick = rng.Intn(t.W[lvl])
		}
		draws = append(draws, pick)
	}
	return draws
}

// RouteIDsFromDraws appends the path a recorded up-link pick sequence
// selects: up through the drawn parents, then deterministically down to dst.
func (t *XGFT) RouteIDsFromDraws(buf []LinkID, src, dst int, draws []int) []LinkID {
	top := t.divergeLevel(src, dst)
	cur := src
	for lvl := 0; lvl < top; lvl++ {
		i := cur*t.W[lvl] + draws[lvl]
		buf = append(buf, t.up[lvl][i])
		cur = int(t.upTo[lvl][i])
	}
	return t.descend(buf, cur, top, dst)
}
