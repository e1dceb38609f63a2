package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPaperTopologyShape(t *testing.T) {
	x := Paper() // XGFT(2;18,14;1,18)
	if got := x.NumTerminals(); got != 252 {
		t.Errorf("terminals = %d, want 252 (18*14)", got)
	}
	if got := x.count[1]; got != 14 {
		t.Errorf("leaf switches = %d, want 14", got)
	}
	if got := x.count[2]; got != 18 {
		t.Errorf("top switches = %d, want 18", got)
	}
	// Cables: 252 node-leaf + 14*18 leaf-top.
	if got := x.NumCables(); got != 252+14*18 {
		t.Errorf("cables = %d, want %d", got, 252+14*18)
	}
	if got := x.NumLinks(); got != 2*x.NumCables() {
		t.Errorf("directed links = %d, want %d", got, 2*x.NumCables())
	}
	// Out-degrees from the table: terminals send on 1 link (w1 = 1), leaf
	// switches on 18 down + 18 up, top switches on 14 down.
	tab := x.Table()
	outDeg := make(map[int32]int)
	for id := 0; id < tab.Len(); id++ {
		outDeg[tab.From[id]]++
	}
	for term := int32(0); term < 252; term++ {
		if outDeg[term] != 1 {
			t.Fatalf("terminal %d has %d uplinks, want 1", term, outDeg[term])
		}
	}
	for leaf := int32(252); leaf < 252+14; leaf++ {
		if outDeg[leaf] != 18+18 {
			t.Fatalf("leaf switch %d: out-degree %d, want 36 (18 down + 18 up)", leaf, outDeg[leaf])
		}
	}
	for top := int32(252 + 14); top < 252+14+18; top++ {
		if outDeg[top] != 14 {
			t.Fatalf("top switch %d: out-degree %d, want 14 (down only)", top, outDeg[top])
		}
	}
	if x.NumSwitches() != 32 {
		t.Errorf("switches = %d, want 32", x.NumSwitches())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil, nil); err == nil {
		t.Error("height 0 accepted")
	}
	if _, err := New(2, []int{3}, []int{1, 1}); err == nil {
		t.Error("wrong arity count accepted")
	}
	if _, err := New(1, []int{0}, []int{1}); err == nil {
		t.Error("zero arity accepted")
	}
}

func TestRouteSameLeaf(t *testing.T) {
	x := Paper()
	tab := x.Table()
	// Terminals 0 and 1 share the leaf switch: 2-hop route.
	path := x.RouteIDsInto(nil, 0, 1, nil)
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2", len(path))
	}
	if !tab.IsUp(path[0]) || tab.IsUp(path[1]) {
		t.Error("path must go up then down")
	}
	if tab.From[path[0]] != 0 || tab.To[path[1]] != 1 {
		t.Error("path endpoints wrong")
	}
}

func TestRouteCrossLeaf(t *testing.T) {
	x := Paper()
	tab := x.Table()
	// Terminals 0 and 250 are in different leaf subtrees: 4-hop route.
	path := x.RouteIDsInto(nil, 0, 250, rand.New(rand.NewSource(1)))
	if len(path) != 4 {
		t.Fatalf("path length = %d, want 4", len(path))
	}
	if tab.From[path[0]] != 0 || tab.To[path[3]] != 250 {
		t.Error("path endpoints wrong")
	}
}

func TestRouteSelf(t *testing.T) {
	x := Paper()
	if p := x.RouteIDsInto(nil, 7, 7, nil); len(p) != 0 {
		t.Errorf("self route length = %d, want 0", len(p))
	}
}

// Property: every route is a valid contiguous path from src to dst that
// first ascends then descends, over random pairs and random routing choices.
func TestRouteValidityProperty(t *testing.T) {
	x := Paper()
	tab := x.Table()
	rng := rand.New(rand.NewSource(7))
	f := func(a, b uint16, seed int64) bool {
		src := int(a) % x.NumTerminals()
		dst := int(b) % x.NumTerminals()
		if src == dst {
			return len(x.RouteIDsInto(nil, src, dst, rng)) == 0
		}
		path := x.RouteIDsInto(nil, src, dst, rand.New(rand.NewSource(seed)))
		if len(path) == 0 {
			return false
		}
		if tab.From[path[0]] != int32(src) || tab.To[path[len(path)-1]] != int32(dst) {
			return false
		}
		descending := false
		cur := tab.From[path[0]]
		for _, l := range path {
			if tab.From[l] != cur {
				return false // discontiguous
			}
			if tab.IsUp(l) && descending {
				return false // up after down: not a fat-tree route
			}
			if !tab.IsUp(l) {
				descending = true
			}
			cur = tab.To[l]
		}
		return cur == int32(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: random routing spreads cross-leaf traffic over all 18 top
// switches.
func TestRandomRoutingSpread(t *testing.T) {
	x := Paper()
	tab := x.Table()
	rng := rand.New(rand.NewSource(42))
	tops := map[int32]bool{}
	for i := 0; i < 500; i++ {
		path := x.RouteIDsInto(nil, 0, 250, rng)
		tops[tab.To[path[1]]] = true
	}
	if len(tops) < 15 {
		t.Errorf("random routing used only %d top switches over 500 routes", len(tops))
	}
}

func TestRouteDeterministicWithoutRNG(t *testing.T) {
	x := Paper()
	p1 := x.RouteIDsInto(nil, 3, 200, nil)
	p2 := x.RouteIDsInto(nil, 3, 200, nil)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("nil-rng routing must be deterministic")
		}
	}
}

func TestThreeLevelXGFT(t *testing.T) {
	// XGFT(3; 2,2,2; 1,2,2): 8 terminals, verify connectivity end to end.
	x, err := New(3, []int{2, 2, 2}, []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.NumTerminals() != 8 {
		t.Fatalf("terminals = %d, want 8", x.NumTerminals())
	}
	tab := x.Table()
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			path := x.RouteIDsInto(nil, s, d, rng)
			if len(path) == 0 || tab.To[path[len(path)-1]] != int32(d) {
				t.Fatalf("no valid route %d->%d", s, d)
			}
		}
	}
}

func TestCablePairing(t *testing.T) {
	x := Paper()
	tab := x.Table()
	byCable := map[int32][]LinkID{}
	for id := 0; id < tab.Len(); id++ {
		byCable[tab.Cable[id]] = append(byCable[tab.Cable[id]], LinkID(id))
	}
	for c, ls := range byCable {
		if len(ls) != 2 {
			t.Fatalf("cable %d has %d directed links, want 2", c, len(ls))
		}
		if tab.From[ls[0]] != tab.To[ls[1]] || tab.To[ls[0]] != tab.From[ls[1]] {
			t.Fatalf("cable %d directions are not mirrored", c)
		}
		if Reverse(ls[0]) != ls[1] {
			t.Fatalf("cable %d links are not Reverse-adjacent", c)
		}
	}
}

// TestHostLinkWiring pins HostLinkID and HostSwitch to the table: every
// terminal's host link starts at the terminal, ascends into a switch, and
// terminals sharing a leaf share the switch.
func TestHostLinkWiring(t *testing.T) {
	x := Paper()
	tab := x.Table()
	for term := 0; term < x.NumTerminals(); term++ {
		up := x.HostLinkID(term)
		if tab.From[up] != int32(term) {
			t.Fatalf("terminal %d host link starts at node %d", term, tab.From[up])
		}
		if !tab.IsUp(up) || tab.Kind[up]&LinkToSwitch == 0 {
			t.Fatalf("terminal %d host link is not an up-link into a switch", term)
		}
	}
	// 18 terminals per leaf on the paper tree.
	if HostSwitch(x, 0) != HostSwitch(x, 17) || HostSwitch(x, 0) == HostSwitch(x, 18) {
		t.Error("leaf grouping by HostSwitch is wrong")
	}
}

// checkDigits compares digit with the division it replaces, term /
// (m_1*...*m_{l-1}) % m_l, at every level for each of terms.
func checkDigits(t *testing.T, name string, x *XGFT, terms []int) {
	t.Helper()
	for _, term := range terms {
		stride := 1
		for l := 1; l <= x.H; l++ {
			if got, want := x.digit(term, l), term/stride%x.M[l-1]; got != want {
				t.Fatalf("%s: digit(%d, %d) = %d, want %d", name, term, l, got, want)
			}
			stride *= x.M[l-1]
		}
	}
}

// TestDigitMatchesDivision checks the division-free digit at every terminal
// and level of every registered XGFT preset and of fabrics with arity-1
// levels, whose reciprocal wraps to 0, and at the top of the int32 range on
// hand-built reciprocals.
func TestDigitMatchesDivision(t *testing.T) {
	all := func(x *XGFT) []int {
		terms := make([]int, x.NumTerminals())
		for i := range terms {
			terms[i] = i
		}
		return terms
	}
	xgfts := 0
	for _, name := range Names() {
		if x, ok := MustNamed(name).(*XGFT); ok {
			checkDigits(t, name, x, all(x))
			xgfts++
		}
	}
	if xgfts < 2 {
		t.Fatalf("%d registered XGFT presets, want at least 2", xgfts)
	}
	for _, c := range []struct{ m, w []int }{
		{[]int{1}, []int{1}},
		{[]int{1, 5}, []int{1, 2}},
		{[]int{7, 1}, []int{1, 3}},
		{[]int{4, 1, 3}, []int{1, 2, 2}},
		{[]int{1, 1, 1}, []int{2, 2, 2}},
	} {
		x, err := New(len(c.m), c.m, c.w)
		if err != nil {
			t.Fatal(err)
		}
		checkDigits(t, x.Name(), x, all(x))
	}
	// The largest terminal IDs New admits: a two-level tree of 46340^2
	// terminals is too large to build, so its reciprocals are made as New
	// makes them.
	m := []int{46340, 46340}
	x := &XGFT{H: 2, M: m, tinv: []uint64{math.MaxUint64/46340 + 1, math.MaxUint64/(46340*46340) + 1}}
	var terms []int
	for _, base := range []int{0, 46340, 46340 * 46339, 46340*46340 - 46340} {
		for d := 0; d < 46340; d += 997 {
			terms = append(terms, base+d, base+46339-d)
		}
	}
	checkDigits(t, "xgft(2;46340,46340)", x, terms)
	if _, err := New(2, []int{46341, 46341}, []int{1, 1}); err == nil {
		t.Error("a tree beyond int32 terminals accepted")
	}
}
