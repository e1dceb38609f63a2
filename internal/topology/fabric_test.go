package topology

import (
	"math/rand"
	"testing"

	"ibpower/internal/registrytest"
)

// TestRegistryPresets asserts every preset builds, satisfies the size floor
// for the evaluation grid (up to 128 processes), and is memoized.
func TestRegistryPresets(t *testing.T) {
	names := Names()
	for _, want := range []string{"xgft", "xgft3", "dragonfly", "torus2d", "torus3d", "xgft3-big", "dragonfly-big"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("preset %q not registered (have %v)", want, names)
		}
	}
	for _, n := range names {
		f, err := Named(n)
		if err != nil {
			t.Fatalf("Named(%q): %v", n, err)
		}
		if f.NumTerminals() < 128 {
			t.Errorf("%s: %d terminals, want >= 128 for the evaluation grid", n, f.NumTerminals())
		}
		if again, _ := Named(n); again != f {
			t.Errorf("%s: Named returned a different instance on second lookup", n)
		}
		if f.NumLinks() != 2*f.NumCables() {
			t.Errorf("%s: %d directed links, want %d (2 per cable)", n, f.NumLinks(), 2*f.NumCables())
		}
		if tab := f.Table(); tab.Len() != f.NumLinks() {
			t.Errorf("%s: table has %d links, NumLinks reports %d", n, tab.Len(), f.NumLinks())
		}
	}
	if f, err := Named(""); err != nil || f != MustNamed(DefaultFabric) {
		t.Errorf("empty name must resolve to the default fabric (err=%v)", err)
	}
	if MustNamed(DefaultFabric).(*XGFT) != Paper() {
		t.Error("default fabric is not the shared paper instance")
	}
}

// TestRegistryContract runs the shared registry property test. The
// throwaway entries it registers build the paper fabric, so the structural
// sweeps below that iterate Names() keep passing over them.
func TestRegistryContract(t *testing.T) {
	registrytest.Run(t, registrytest.Registry{
		Kind:    "fabric",
		Default: DefaultFabric,
		Names:   Names,
		Check:   CheckRegistered,
		RegisterValid: func(name string) {
			Register(name, func() (Fabric, error) { return Paper(), nil })
		},
		RegisterNil: func(name string) { Register(name, nil) },
	})
}

// TestCableClosedForms pins each preset's cable count to its closed form —
// including the supercomputer-scale presets, whose structure is checked here
// in closed form rather than by exhaustive walks.
func TestCableClosedForms(t *testing.T) {
	cases := []struct {
		name      string
		terminals int
		cables    int
	}{
		// XGFT(2;18,14;1,18): 252 host + 14*18 leaf-top.
		{"xgft", 252, 252 + 14*18},
		// XGFT(3;6,6,4;1,4,4): 144 host + 24 L1-switches*4 + 16 L2-switches*4.
		{"xgft3", 144, 144 + 24*4 + 16*4},
		// Dragonfly(p=4,a=4,h=2): 9 groups; 144 host + 9*C(4,2) local + C(9,2) global.
		{"dragonfly", 144, 144 + 9*6 + 36},
		// 12x12 torus: 144 host + 144 routers * 2 dimensions.
		{"torus2d", 144, 144 + 144*2},
		// 6x6x4 torus: 144 host + 144 routers * 3 dimensions.
		{"torus3d", 144, 144 + 144*3},
		// XGFT(3;20,20,20;1,20,20): full bisection — 8000 host + 400 L1*20 +
		// 400 L2*20.
		{"xgft3-big", 8000, 8000 + 400*20 + 400*20},
		// Dragonfly(p=8,a=16,h=4): 65 groups; 8320 host + 65*C(16,2) local +
		// C(65,2) global.
		{"dragonfly-big", 8320, 8320 + 65*120 + 65*64/2},
	}
	for _, c := range cases {
		f := MustNamed(c.name)
		if got := f.NumTerminals(); got != c.terminals {
			t.Errorf("%s: terminals = %d, want %d", c.name, got, c.terminals)
		}
		if got := f.NumCables(); got != c.cables {
			t.Errorf("%s: cables = %d, want %d", c.name, got, c.cables)
		}
	}
}

// TestBigPresetSwitchCounts pins the big presets' switch populations and
// host-link wiring in closed form.
func TestBigPresetSwitchCounts(t *testing.T) {
	xg := MustNamed("xgft3-big").(*XGFT)
	if xg.NumSwitches() != 1200 {
		t.Errorf("xgft3-big: switches = %d, want 1200", xg.NumSwitches())
	}
	for l := 1; l <= 3; l++ {
		if got := xg.count[l]; got != 400 {
			t.Errorf("xgft3-big: level-%d switches = %d, want 400", l, got)
		}
	}
	df := MustNamed("dragonfly-big").(*Dragonfly)
	if df.NumSwitches() != 65*16 {
		t.Errorf("dragonfly-big: routers = %d, want %d", df.NumSwitches(), 65*16)
	}
	// 20 terminals per leaf switch on the fat tree, 8 per dragonfly router.
	leaves := map[int32]int{}
	for i := 0; i < xg.NumTerminals(); i++ {
		leaves[HostSwitch(xg, i)]++
	}
	for sw, n := range leaves {
		if n != 20 {
			t.Fatalf("xgft3-big: leaf switch %d hosts %d terminals, want 20", sw, n)
		}
	}
}

// checkPath asserts path is a valid adjacent-link walk from terminal src to
// terminal dst over f's own link table.
func checkPath(t *testing.T, f Fabric, src, dst int, path []LinkID) {
	t.Helper()
	tab := f.Table()
	if src == dst {
		if len(path) != 0 {
			t.Fatalf("%s: self route %d has %d links, want 0", f.Name(), src, len(path))
		}
		return
	}
	if len(path) == 0 {
		t.Fatalf("%s: empty route %d->%d", f.Name(), src, dst)
	}
	if tab.From[path[0]] != tab.From[f.HostLinkID(src)] {
		t.Fatalf("%s: route %d->%d does not start at src terminal", f.Name(), src, dst)
	}
	if tab.To[path[len(path)-1]] != tab.From[f.HostLinkID(dst)] {
		t.Fatalf("%s: route %d->%d does not end at dst terminal", f.Name(), src, dst)
	}
	cur := tab.From[path[0]]
	for i, l := range path {
		if l < 0 || int(l) >= tab.Len() {
			t.Fatalf("%s: route %d->%d hop %d is not a fabric link", f.Name(), src, dst, i)
		}
		if tab.From[l] != cur {
			t.Fatalf("%s: route %d->%d discontiguous at hop %d", f.Name(), src, dst, i)
		}
		if i < len(path)-1 && tab.Kind[l]&LinkToSwitch == 0 {
			t.Fatalf("%s: route %d->%d passes through terminal %d mid-path", f.Name(), src, dst, tab.To[l])
		}
		cur = tab.To[l]
	}
}

// TestRouteValidityAllFabrics is the cross-fabric structural property: every
// route over every registered fabric — the 8k-terminal presets included — is
// a valid adjacent-link path from src to dst, with and without random
// routing. Sampled pairs keep it fast enough for plain `go test`.
func TestRouteValidityAllFabrics(t *testing.T) {
	for _, name := range Names() {
		f := MustNamed(name)
		rng := rand.New(rand.NewSource(7))
		pick := rand.New(rand.NewSource(13))
		n := f.NumTerminals()
		for i := 0; i < 400; i++ {
			src, dst := pick.Intn(n), pick.Intn(n)
			checkPath(t, f, src, dst, f.RouteIDsInto(nil, src, dst, rng))
			checkPath(t, f, src, dst, f.RouteIDsInto(nil, src, dst, nil))
		}
	}
}

// TestXGFT3UpDownInvariant asserts three-level routes ascend then descend —
// never up again after the first down link.
func TestXGFT3UpDownInvariant(t *testing.T) {
	for _, name := range []string{"xgft3", "xgft3-big"} {
		f := MustNamed(name).(*XGFT)
		tab := f.Table()
		rng := rand.New(rand.NewSource(3))
		pick := rand.New(rand.NewSource(17))
		n := f.NumTerminals()
		for i := 0; i < 400; i++ {
			src, dst := pick.Intn(n), pick.Intn(n)
			if src == dst {
				continue
			}
			path := f.RouteIDsInto(nil, src, dst, rng)
			descending := false
			for j, l := range path {
				if tab.IsUp(l) && descending {
					t.Fatalf("%s: route %d->%d goes up at hop %d after descending", name, src, dst, j)
				}
				if !tab.IsUp(l) {
					descending = true
				}
			}
		}
	}
}

// TestDragonflyInvariants asserts dragonfly routes — on the small and the
// 8k-terminal preset — use at most two global hops (minimal or one Valiant
// detour) and that random intermediate-group routing spreads traffic over
// the groups.
func TestDragonflyInvariants(t *testing.T) {
	for _, name := range []string{"dragonfly", "dragonfly-big"} {
		f := MustNamed(name).(*Dragonfly)
		tab := f.Table()
		rng := rand.New(rand.NewSource(5))
		pick := rand.New(rand.NewSource(23))
		// Routers occupy node IDs at multiples of P+1; group = router/A.
		groupOfNode := func(n int32) int { return int(n) / (f.P + 1) / f.A }
		isGlobal := func(l LinkID) bool {
			return tab.SwitchToSwitch(l) && groupOfNode(tab.From[l]) != groupOfNode(tab.To[l])
		}
		globalsUsed := map[int32]bool{}
		n := f.NumTerminals()
		for i := 0; i < 600; i++ {
			src, dst := pick.Intn(n), pick.Intn(n)
			if src == dst {
				continue
			}
			path := f.RouteIDsInto(nil, src, dst, rng)
			globals := 0
			for _, l := range path {
				if isGlobal(l) {
					globals++
				}
			}
			if globals > 2 {
				t.Fatalf("%s: route %d->%d crossed %d global links, want <= 2", name, src, dst, globals)
			}
			if f.group(src) != f.group(dst) {
				if globals == 0 {
					t.Fatalf("%s: inter-group route %d->%d used no global link", name, src, dst)
				}
				globals = 0
				minimal := f.RouteIDsInto(nil, src, dst, nil)
				for _, l := range minimal {
					if isGlobal(l) {
						globals++
					}
				}
				if globals != 1 {
					t.Fatalf("%s: minimal route %d->%d crossed %d global links, want 1", name, src, dst, globals)
				}
			}
			for _, l := range path {
				if isGlobal(l) {
					globalsUsed[tab.Cable[l]] = true
				}
			}
		}
		if len(globalsUsed) < 10 {
			t.Errorf("%s: random intermediate groups exercised only %d global cables", name, len(globalsUsed))
		}
	}
}

// TestTorusDimensionOrder asserts torus routes correct dimensions strictly
// in order, one ±1 ring step at a time along the shorter arc, and are fully
// deterministic.
func TestTorusDimensionOrder(t *testing.T) {
	f := MustNamed("torus3d").(*Torus)
	tab := f.Table()
	pick := rand.New(rand.NewSource(29))
	coords := func(r int) []int {
		c := make([]int, len(f.Dims))
		for d := range f.Dims {
			c[d] = (r / f.stride[d]) % f.Dims[d]
		}
		return c
	}
	// Routers occupy node IDs at multiples of P+1.
	routerOf := func(n int32) int { return int(n) / (f.P + 1) }
	for i := 0; i < 400; i++ {
		src, dst := pick.Intn(144), pick.Intn(144)
		if src == dst {
			continue
		}
		path := f.RouteIDsInto(nil, src, dst, rand.New(rand.NewSource(int64(i))))
		if again := f.RouteIDsInto(nil, src, dst, nil); len(again) != len(path) {
			t.Fatalf("route %d->%d depends on the RNG", src, dst)
		}
		// Interior hops are router->router ring steps.
		highest := 0
		expectedLen := 2
		sc, dc := coords(src/f.P), coords(dst/f.P)
		for d := range f.Dims {
			delta := (dc[d] - sc[d] + f.Dims[d]) % f.Dims[d]
			if delta > f.Dims[d]-delta {
				delta = f.Dims[d] - delta
			}
			expectedLen += delta
		}
		if len(path) != expectedLen {
			t.Fatalf("route %d->%d has %d links, want %d (shortest arcs)", src, dst, len(path), expectedLen)
		}
		for _, l := range path[1 : len(path)-1] {
			a, b := coords(routerOf(tab.From[l])), coords(routerOf(tab.To[l]))
			changed := -1
			for d := range a {
				if a[d] != b[d] {
					if changed >= 0 {
						t.Fatalf("route %d->%d: hop changes two dimensions", src, dst)
					}
					changed = d
					diff := (b[d] - a[d] + f.Dims[d]) % f.Dims[d]
					if diff != 1 && diff != f.Dims[d]-1 {
						t.Fatalf("route %d->%d: hop jumps %d in dimension %d", src, dst, diff, d)
					}
				}
			}
			if changed < 0 {
				t.Fatalf("route %d->%d: hop changes no dimension", src, dst)
			}
			if changed < highest {
				t.Fatalf("route %d->%d: dimension %d corrected after dimension %d", src, dst, changed, highest)
			}
			highest = changed
		}
	}
}

// TestRouteDrawsMatchRouteIDsIntoAllFabrics asserts, over every registered
// fabric, that rebuilding a path from its recorded draws returns the exact
// direct path and consumes the RNG identically. The fault layer routes
// through RouteDraws while healthy transfers use RouteIDsInto, so this
// contract alone keeps transfers that avoid every fault bit-identical to a
// fault-free run.
func TestRouteDrawsMatchRouteIDsIntoAllFabrics(t *testing.T) {
	for _, name := range Names() {
		f := MustNamed(name)
		rngA := rand.New(rand.NewSource(11))
		rngB := rand.New(rand.NewSource(11))
		pick := rand.New(rand.NewSource(5))
		n := f.NumTerminals()
		for i := 0; i < 1500; i++ {
			src, dst := pick.Intn(n), pick.Intn(n)
			want := f.RouteIDsInto(nil, src, dst, rngA)
			got := f.RouteIDsFromDraws(nil, src, dst, f.RouteDraws(nil, src, dst, rngB))
			if len(want) != len(got) {
				t.Fatalf("%s (%d,%d): lengths differ: %d vs %d", name, src, dst, len(want), len(got))
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("%s (%d,%d): hop %d differs", name, src, dst, j)
				}
			}
		}
		if a, b := rngA.Int63(), rngB.Int63(); a != b {
			t.Errorf("%s: RNG states diverged between RouteDraws and RouteIDsInto", name)
		}
	}
}

// TestLinkTableInvariants pins the table-wide structural contract every
// consumer leans on: cable pairing by Reverse, kind-bit mirroring, and the
// memory report.
func TestLinkTableInvariants(t *testing.T) {
	for _, name := range Names() {
		tab := MustNamed(name).Table()
		for id := 0; id < tab.Len(); id += 2 {
			fwd, rev := LinkID(id), Reverse(LinkID(id))
			if rev != LinkID(id)+1 || Reverse(rev) != fwd {
				t.Fatalf("%s: Reverse is not an involution at %d", name, id)
			}
			if tab.From[fwd] != tab.To[rev] || tab.To[fwd] != tab.From[rev] {
				t.Fatalf("%s: cable %d directions are not mirrored", name, tab.Cable[fwd])
			}
			if tab.Cable[fwd] != tab.Cable[rev] {
				t.Fatalf("%s: link pair %d has mismatched cables", name, id)
			}
			if tab.IsUp(rev) {
				t.Fatalf("%s: reverse link %d claims to ascend", name, id+1)
			}
			fromSw := tab.Kind[fwd]&LinkFromSwitch != 0
			if toSwRev := tab.Kind[rev]&LinkToSwitch != 0; fromSw != toSwRev {
				t.Fatalf("%s: kind bits of pair %d are not mirrored", name, id)
			}
		}
		if tab.Bytes() != int64(tab.Len())*13 {
			t.Errorf("%s: Bytes() = %d, want %d (13 per directed link)", name, tab.Bytes(), tab.Len()*13)
		}
	}
}
