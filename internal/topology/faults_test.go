package topology

import (
	"math/rand"
	"slices"
	"testing"
)

// sampledPairs returns a deterministic spread of (src, dst) terminal pairs
// covering near and far endpoints of the fabric.
func sampledPairs(f Fabric, n int, seed int64) [][2]int {
	r := rand.New(rand.NewSource(seed))
	nt := f.NumTerminals()
	pairs := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]int{r.Intn(nt), r.Intn(nt)})
	}
	pairs = append(pairs, [2]int{0, nt - 1}, [2]int{0, 0}, [2]int{nt - 1, 0})
	return pairs
}

// TestFaultRouterRegistered asserts every registered fabric implements the
// degraded-routing contract — a new preset cannot silently opt out of the
// failure model.
func TestFaultRouterRegistered(t *testing.T) {
	for _, name := range Names() {
		f, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.(FaultRouter); !ok {
			t.Errorf("fabric %s does not implement FaultRouter", name)
		}
	}
}

// TestRouteAvoidingHealthyIdentical pins the first half of the determinism
// contract: with an empty fault set (or faults off every selected path), the
// avoided route is byte-for-byte the route the recorded draws select.
func TestRouteAvoidingHealthyIdentical(t *testing.T) {
	for _, name := range []string{"xgft", "xgft3", "dragonfly", "torus2d", "torus3d"} {
		f := MustNamed(name)
		fr := f.(FaultRouter)
		fs := NewFaultSet(f)
		rng := rand.New(rand.NewSource(7))
		for _, p := range sampledPairs(f, 50, 11) {
			draws := f.RouteDraws(nil, p[0], p[1], rng)
			want := f.RouteIDsFromDraws(nil, p[0], p[1], draws)
			got, ok := fr.RouteIDsAvoiding(nil, p[0], p[1], draws, fs)
			if !ok {
				t.Fatalf("%s: healthy route %d->%d reported unreachable", name, p[0], p[1])
			}
			if len(got) != len(want) {
				t.Fatalf("%s: healthy avoided route %d->%d has %d links, want %d", name, p[0], p[1], len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: healthy avoided route %d->%d differs at hop %d", name, p[0], p[1], i)
				}
			}
		}
	}
}

// failRandom fails n switch-to-switch cables and m switches drawn from a
// seeded RNG, mirroring the population the scenario fault stream draws from.
func failRandom(f Fabric, fs *FaultSet, nCables, nSwitches int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	tab := f.Table()
	var s2s []LinkID
	switches := map[int32]bool{}
	for id := 0; id < tab.Len(); id += 2 {
		if tab.SwitchToSwitch(LinkID(id)) {
			s2s = append(s2s, LinkID(id))
		}
		if tab.Kind[id]&LinkFromSwitch != 0 {
			switches[tab.From[id]] = true
		}
		if tab.Kind[id]&LinkToSwitch != 0 {
			switches[tab.To[id]] = true
		}
	}
	var sws []int32
	for sw := range switches {
		sws = append(sws, sw)
	}
	// Map iteration order is random; sort for determinism.
	for i := 1; i < len(sws); i++ {
		for j := i; j > 0 && sws[j] < sws[j-1]; j-- {
			sws[j], sws[j-1] = sws[j-1], sws[j]
		}
	}
	for i := 0; i < nCables && len(s2s) > 0; i++ {
		fs.FailLink(s2s[r.Intn(len(s2s))])
	}
	for i := 0; i < nSwitches && len(sws) > 0; i++ {
		fs.FailNode(sws[r.Intn(len(sws))])
	}
}

// TestRouteAvoidingNeverTraversesFaults is the core structural invariant on
// every registered fabric: under seeded random fault sets, every route the
// fault router returns ok for is a valid adjacent path from src to dst that
// touches no blocked link; pairs it reports unreachable are simply reported,
// never panicked. Determinism is pinned by recomputing each route twice.
func TestRouteAvoidingNeverTraversesFaults(t *testing.T) {
	for _, name := range Names() {
		f := MustNamed(name)
		fr := f.(FaultRouter)
		for trial := int64(0); trial < 4; trial++ {
			fs := NewFaultSet(f)
			failRandom(f, fs, 3+int(trial)*2, int(trial), 100+trial)
			rng := rand.New(rand.NewSource(trial))
			tab := f.Table()
			for _, p := range sampledPairs(f, 30, trial) {
				draws := f.RouteDraws(nil, p[0], p[1], rng)
				path, ok := fr.RouteIDsAvoiding(nil, p[0], p[1], draws, fs)
				again, ok2 := fr.RouteIDsAvoiding(nil, p[0], p[1], draws, fs)
				if ok != ok2 || len(path) != len(again) {
					t.Fatalf("%s: avoided route %d->%d not deterministic", name, p[0], p[1])
				}
				for i := range path {
					if path[i] != again[i] {
						t.Fatalf("%s: avoided route %d->%d not deterministic at hop %d", name, p[0], p[1], i)
					}
				}
				if !ok {
					continue // unreachable: reported, not panicked
				}
				for i, id := range path {
					if fs.Blocked(id) {
						t.Fatalf("%s: route %d->%d traverses blocked link %d at hop %d", name, p[0], p[1], id, i)
					}
					if i > 0 && tab.From[id] != tab.To[path[i-1]] {
						t.Fatalf("%s: route %d->%d not adjacent at hop %d", name, p[0], p[1], i)
					}
				}
				if p[0] != p[1] && len(path) == 0 {
					t.Fatalf("%s: distinct pair %d->%d got empty route", name, p[0], p[1])
				}
			}
		}
	}
}

// checkMirrorInvariants asserts the two route properties replay telemetry's
// mirrored sketches rely on: a route between distinct terminals starts on a
// host up-link out of src, ends on a host down-link into dst, and touches
// no other host link; on a fabric declared up*/down* it also holds as many
// switch up-links as other switch-to-switch links.
func checkMirrorInvariants(t *testing.T, f Fabric, src, dst int, path []LinkID) {
	t.Helper()
	if src == dst {
		return
	}
	tab := f.Table()
	last := len(path) - 1
	if last < 1 {
		t.Fatalf("%s: route %d->%d has %d links", f.Name(), src, dst, len(path))
	}
	if tab.Kind[path[0]]&LinkFromSwitch != 0 || tab.From[path[0]] != tab.From[f.HostLinkID(src)] {
		t.Fatalf("%s: route %d->%d does not start on a host up-link of %d", f.Name(), src, dst, src)
	}
	if tab.Kind[path[last]]&LinkToSwitch != 0 || tab.To[path[last]] != tab.From[f.HostLinkID(dst)] {
		t.Fatalf("%s: route %d->%d does not end on a host down-link of %d", f.Name(), src, dst, dst)
	}
	ups, downs := 0, 0
	for i, id := range path[1:last] {
		if !tab.SwitchToSwitch(id) {
			t.Fatalf("%s: route %d->%d holds host link %d at hop %d", f.Name(), src, dst, id, i+1)
		}
		if tab.IsUp(id) {
			ups++
		} else {
			downs++
		}
	}
	if IsUpDown(f) && ups != downs {
		t.Fatalf("%s: up*/down* route %d->%d climbs %d switch links and descends %d", f.Name(), src, dst, ups, downs)
	}
}

// TestRouteMirrorInvariants checks checkMirrorInvariants on every registered
// fabric, over healthy routes (random and deterministic draws) and over
// RouteIDsAvoiding detours under seeded fault sets. The XGFT presets are the
// fabrics declared up*/down*; dragonflies and tori are not.
func TestRouteMirrorInvariants(t *testing.T) {
	declared, detours := 0, 0
	for _, name := range Names() {
		f := MustNamed(name)
		_, fat := f.(*XGFT)
		if IsUpDown(f) != fat {
			t.Errorf("%s: IsUpDown = %v", name, IsUpDown(f))
		}
		if IsUpDown(f) {
			declared++
		}
		rng := rand.New(rand.NewSource(7))
		for _, p := range sampledPairs(f, 200, 5) {
			checkMirrorInvariants(t, f, p[0], p[1], f.RouteIDsInto(nil, p[0], p[1], rng))
			checkMirrorInvariants(t, f, p[0], p[1], f.RouteIDsInto(nil, p[0], p[1], nil))
		}
		fr := f.(FaultRouter)
		for trial := int64(0); trial < 4; trial++ {
			fs := NewFaultSet(f)
			failRandom(f, fs, 3+int(trial)*2, int(trial), 200+trial)
			rng := rand.New(rand.NewSource(trial))
			for _, p := range sampledPairs(f, 60, trial) {
				draws := f.RouteDraws(nil, p[0], p[1], rng)
				if path, ok := fr.RouteIDsAvoiding(nil, p[0], p[1], draws, fs); ok {
					checkMirrorInvariants(t, f, p[0], p[1], path)
					if !slices.Equal(path, f.RouteIDsFromDraws(nil, p[0], p[1], draws)) {
						detours++
					}
				}
			}
		}
	}
	if declared == 0 || detours == 0 {
		t.Errorf("%d fabrics declared up*/down*, %d detours checked: a check never ran", declared, detours)
	}
}

// TestRouteAvoidingDetoursAroundSingleFault fails exactly the link the
// healthy route would use and asserts the detour exists, avoids it, and
// still ends at the destination on every multi-path fabric.
func TestRouteAvoidingDetoursAroundSingleFault(t *testing.T) {
	for _, name := range []string{"xgft", "xgft3", "dragonfly"} {
		f := MustNamed(name)
		fr := f.(FaultRouter)
		src, dst := 0, f.NumTerminals()-1
		healthy := f.RouteIDsFromDraws(nil, src, dst, f.RouteDraws(nil, src, dst, nil))
		// Fail the first switch-to-switch hop of the healthy path.
		tab := f.Table()
		var target LinkID = -1
		for _, id := range healthy {
			if tab.SwitchToSwitch(id) {
				target = id
				break
			}
		}
		if target < 0 {
			t.Fatalf("%s: healthy route has no switch-to-switch hop", name)
		}
		fs := NewFaultSet(f)
		fs.FailLink(target)
		path, ok := fr.RouteIDsAvoiding(nil, src, dst, f.RouteDraws(nil, src, dst, nil), fs)
		if !ok {
			t.Fatalf("%s: single cable fault made %d->%d unreachable", name, src, dst)
		}
		for _, id := range path {
			if fs.Blocked(id) {
				t.Fatalf("%s: detour traverses the failed link", name)
			}
		}
		if got := tab.To[path[len(path)-1]]; got != tab.From[f.HostLinkID(dst)] {
			t.Fatalf("%s: detour ends at node %d, not the destination terminal", name, got)
		}
	}
}

// TestRouteAvoidingReportsUnreachable cuts every switch-to-switch cable and
// asserts cross-switch pairs come back ok == false on every registered
// fabric — the "reported, not panicked" half of the contract.
func TestRouteAvoidingReportsUnreachable(t *testing.T) {
	for _, name := range Names() {
		f := MustNamed(name)
		fr := f.(FaultRouter)
		fs := NewFaultSet(f)
		tab := f.Table()
		for id := 0; id < tab.Len(); id += 2 {
			if tab.SwitchToSwitch(LinkID(id)) {
				fs.FailLink(LinkID(id))
			}
		}
		src, dst := 0, f.NumTerminals()-1
		if _, ok := fr.RouteIDsAvoiding(nil, src, dst, f.RouteDraws(nil, src, dst, nil), fs); ok {
			t.Errorf("%s: %d->%d routable with every switch-to-switch cable cut", name, src, dst)
		}
		// Same-terminal routing stays trivially fine.
		if path, ok := fr.RouteIDsAvoiding(nil, src, src, nil, fs); !ok || len(path) != 0 {
			t.Errorf("%s: src==dst should stay reachable with an empty path", name)
		}
	}
}

// TestFaultSetComposition covers the fail/repair bookkeeping: cable faults
// block both directions, switch faults block incident links without touching
// the link mask, and repairs restore exactly what their fault took down.
func TestFaultSetComposition(t *testing.T) {
	f := Paper()
	fs := NewFaultSet(f)
	if !fs.Empty() {
		t.Fatal("fresh fault set not empty")
	}
	tab := f.Table()
	var s2s LinkID = -1
	for id := 0; id < tab.Len(); id += 2 {
		if tab.SwitchToSwitch(LinkID(id)) {
			s2s = LinkID(id)
			break
		}
	}
	fs.FailLink(s2s)
	fs.FailLink(s2s) // idempotent
	if fs.cables != 1 || !fs.Blocked(s2s) || !fs.Blocked(Reverse(s2s)) {
		t.Fatal("cable fault must block both directions exactly once")
	}
	// Fail the switch at the cable's source too; repairing the switch must
	// not resurrect the independently failed cable.
	sw := tab.From[s2s]
	nodeDown := func() bool { return fs.nodes[sw>>6]&(1<<uint(sw&63)) != 0 }
	fs.FailNode(sw)
	if !nodeDown() || fs.down != 1 {
		t.Fatal("switch fault not recorded")
	}
	fs.RepairNode(sw)
	if nodeDown() || !fs.Blocked(s2s) {
		t.Fatal("switch repair must leave the independent cable fault in place")
	}
	fs.RepairLink(Reverse(s2s))
	if fs.Blocked(s2s) || !fs.Empty() {
		t.Fatal("cable repair via either direction must clear both")
	}
}

// TestRouteAvoidingAllocFree pins the hot-path cost: with a warm buffer,
// fault-aware routing performs no allocation on any preset fabric.
func TestRouteAvoidingAllocFree(t *testing.T) {
	for _, name := range []string{"xgft", "dragonfly", "torus2d"} {
		f := MustNamed(name)
		fr := f.(FaultRouter)
		fs := NewFaultSet(f)
		failRandom(f, fs, 2, 0, 5)
		src, dst := 0, f.NumTerminals()-1
		draws := f.RouteDraws(nil, src, dst, nil)
		buf := make([]LinkID, 0, 64)
		allocs := testing.AllocsPerRun(100, func() {
			buf, _ = fr.RouteIDsAvoiding(buf[:0], src, dst, draws, fs)
		})
		if allocs != 0 {
			t.Errorf("%s: RouteIDsAvoiding allocates %.1f/op, want 0", name, allocs)
		}
	}
}
