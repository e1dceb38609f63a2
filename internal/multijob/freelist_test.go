package multijob

import (
	"reflect"
	"testing"

	"ibpower/internal/topology"
)

func newTestFreeList(t *testing.T, placement string) *FreeList {
	t.Helper()
	f := topology.Paper()
	order, err := Ordering(placement, f, 7)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFreeList(f, order)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestFreeListAllocRelease pins the core bookkeeping: allocations are
// disjoint, follow policy order, record their owner, and releasing restores
// every count and clears the owner.
func TestFreeListAllocRelease(t *testing.T) {
	fl := newTestFreeList(t, "linear")
	nt := fl.NumTerminals()
	if fl.Free() != nt {
		t.Fatalf("fresh list has %d free, want %d", fl.Free(), nt)
	}
	a := fl.Alloc(8)
	b := fl.allocTo(8, 3)
	if !reflect.DeepEqual(a, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Errorf("linear first block %v", a)
	}
	if !reflect.DeepEqual(b, []int{8, 9, 10, 11, 12, 13, 14, 15}) {
		t.Errorf("linear second block %v", b)
	}
	if fl.Free() != nt-16 {
		t.Errorf("free count %d after two allocs, want %d", fl.Free(), nt-16)
	}
	wantOwners(t, fl, a, plannedOwner)
	wantOwners(t, fl, b, 3)
	wantOwners(t, fl, []int{16}, noOwner)
	// Releasing the first block makes its terminals preferred again.
	fl.Release(a)
	wantOwners(t, fl, []int{0, 1, 2, 3, 4, 5, 6, 7}, noOwner)
	wantOwners(t, fl, b, 3)
	c := fl.Alloc(4)
	if !reflect.DeepEqual(c, []int{0, 1, 2, 3}) {
		t.Errorf("re-alloc after release %v, want the freed low block", c)
	}
	fl.Release(c)
	fl.Release(b)
	if fl.Free() != nt {
		t.Errorf("free count %d after releasing everything, want %d", fl.Free(), nt)
	}
	for term, o := range fl.owner {
		if o != noOwner {
			t.Fatalf("terminal %d still owned by %d after releasing everything", term, o)
		}
	}
	// Oversubscription and degenerate sizes return nil without state damage.
	if fl.Alloc(nt+1) != nil || fl.Alloc(0) != nil || fl.Alloc(-3) != nil {
		t.Error("impossible Alloc returned terminals")
	}
	if fl.Free() != nt {
		t.Errorf("failed Alloc disturbed the free count: %d", fl.Free())
	}
}

// TestFreeListPeekMatchesAlloc asserts PeekAlloc predicts Alloc exactly and
// claims nothing — the contract power-aware planning rests on.
func TestFreeListPeekMatchesAlloc(t *testing.T) {
	fl := newTestFreeList(t, "roundrobin")
	fl.Alloc(5)
	peek := fl.PeekAlloc(7)
	if fl.Free() != fl.NumTerminals()-5 {
		t.Fatal("PeekAlloc claimed terminals")
	}
	got := fl.Alloc(7)
	if !reflect.DeepEqual(peek, got) {
		t.Errorf("PeekAlloc %v != Alloc %v", peek, got)
	}
}

// TestFreeListDoubleReleasePanics pins the loud-failure contract.
func TestFreeListDoubleReleasePanics(t *testing.T) {
	fl := newTestFreeList(t, "linear")
	terms := append([]int(nil), fl.Alloc(4)...)
	fl.Release(terms)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	fl.Release(terms)
}

// TestFreeListIdleSwitches checks the power-aware cost function: a busy
// terminal wakes its first-hop switch for everyone.
func TestFreeListIdleSwitches(t *testing.T) {
	// Paper fabric: 18 terminals per leaf switch.
	fl := newTestFreeList(t, "linear")
	// All idle: terminals 0 and 1 share a switch, 20 sits on the next one.
	if got := fl.IdleSwitches([]int{0, 1, 20}); got != 2 {
		t.Errorf("IdleSwitches on idle fabric = %d, want 2 distinct switches", got)
	}
	busy := fl.Alloc(1) // wakes terminal 0's switch
	if got := fl.IdleSwitches([]int{1, 2}); got != 0 {
		t.Errorf("IdleSwitches on woken switch = %d, want 0", got)
	}
	if got := fl.IdleSwitches([]int{20}); got != 1 {
		t.Errorf("IdleSwitches on untouched switch = %d, want 1", got)
	}
	fl.Release(busy)
	if got := fl.IdleSwitches([]int{1}); got != 1 {
		t.Errorf("IdleSwitches after release = %d, want 1 (switch asleep again)", got)
	}
}

// TestFreeListCloneIsIndependent asserts planning on a clone never leaks
// into the live list: the clone starts with the live owners and then keeps
// its own.
func TestFreeListCloneIsIndependent(t *testing.T) {
	fl := newTestFreeList(t, "linear")
	held := append([]int(nil), fl.allocTo(4, 9)...)
	cl := fl.Clone()
	wantOwners(t, cl, held, 9)
	planned := cl.Alloc(10)
	if fl.Free() != fl.NumTerminals()-4 {
		t.Error("clone Alloc disturbed the original")
	}
	if cl.Free() != cl.NumTerminals()-14 {
		t.Error("clone did not track its own allocation")
	}
	if got, want := fl.PeekAlloc(2), []int{4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("original PeekAlloc %v, want %v", got, want)
	}
	wantOwners(t, cl, planned, plannedOwner)
	wantOwners(t, fl, planned, noOwner)
	// Releasing the live job's terminals on the clone clears only the
	// clone's owners.
	cl.Release(append([]int(nil), held...))
	wantOwners(t, cl, held, noOwner)
	wantOwners(t, fl, held, 9)
}

// wantOwners asserts that every terminal of terms is owned by owner.
func wantOwners(t *testing.T, fl *FreeList, terms []int, owner int32) {
	t.Helper()
	for _, term := range terms {
		if got := fl.owner[term]; got != owner {
			t.Errorf("terminal %d owned by %d, want %d", term, got, owner)
		}
	}
}

// TestFreeListCloneDeepIndependence covers the leak the satellite task calls
// out: what-if planning mutates a clone's allocations and pooled backing
// slices, and none of it may alias the live list's memory.
func TestFreeListCloneDeepIndependence(t *testing.T) {
	fl := newTestFreeList(t, "linear")
	live := fl.Alloc(8)
	fl.Release(live) // live's backing array now sits in fl's pool

	cl := fl.Clone()
	got := cl.Alloc(8)
	if &got[0] == &live[0] {
		t.Fatal("clone Alloc handed out the live list's pooled backing slice")
	}
	cl.Release(got)
	// Scribble the clone's pooled backing; the live list must not see it.
	for i := range got {
		got[i] = -999
	}
	cl.Fail(0)
	cl.Alloc(4)

	next := fl.Alloc(8)
	if !reflect.DeepEqual(next, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Errorf("live Alloc after clone mutation = %v", next)
	}
	if fl.Down() != 0 {
		t.Error("clone Fail leaked into the live list")
	}
	// And the other direction: releasing into the live pool after cloning
	// stays invisible to the clone.
	fl.Release(next)
	if cl.Free() != cl.NumTerminals()-4-1 { // 4 allocated, terminal 0 down
		t.Errorf("clone free count %d disturbed by live Release", cl.Free())
	}
}

// TestFreeListFailRepair pins the down-terminal bookkeeping the fault layer
// rides on: down terminals leave the free pool, are skipped by Alloc and
// PeekAlloc, survive a Release without resurfacing, and only return once
// every overlapping fault cause is repaired.
func TestFreeListFailRepair(t *testing.T) {
	fl := newTestFreeList(t, "linear")
	nt := fl.NumTerminals()

	fl.Fail(0)
	if fl.Free() != nt-1 || fl.Down() != 1 {
		t.Fatalf("after Fail(0): free %d down %d", fl.Free(), fl.Down())
	}
	if got := fl.PeekAlloc(2); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("PeekAlloc over a down terminal = %v, want [1 2]", got)
	}
	a := fl.Alloc(2)
	if !reflect.DeepEqual(a, []int{1, 2}) {
		t.Errorf("Alloc over a down terminal = %v, want [1 2]", a)
	}
	fl.Release(a)

	// A busy terminal that fails keeps its owner until the occupant's
	// release, which parks it.
	b := fl.allocTo(2, 4) // terminals 1, 2
	fl.Fail(1)
	wantOwners(t, fl, []int{1, 2}, 4)
	fl.Release(b)
	wantOwners(t, fl, []int{1, 2}, noOwner)
	if fl.Free() != nt-2 || fl.Down() != 2 {
		t.Fatalf("after failing busy terminal: free %d down %d", fl.Free(), fl.Down())
	}
	if got := fl.allocTo(1, 5); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("Alloc after parked release = %v, want [2]", got)
	}

	// Overlapping causes: a second Fail needs a second Repair.
	fl.Fail(1)
	fl.Repair(1)
	if fl.Down() != 2 {
		t.Error("terminal with an outstanding fault cause counted repaired")
	}
	fl.Repair(1)
	fl.Repair(0)
	if fl.Down() != 0 || fl.Free() != nt-1 { // terminal 2 still allocated
		t.Errorf("after full repair: free %d down %d", fl.Free(), fl.Down())
	}
	// Fail and Repair of a held terminal leave its owner alone; repaired
	// idle terminals stay unowned.
	fl.Fail(2)
	wantOwners(t, fl, []int{2}, 5)
	fl.Repair(2)
	wantOwners(t, fl, []int{2}, 5)
	wantOwners(t, fl, []int{0, 1}, noOwner)
	defer func() {
		if recover() == nil {
			t.Error("Repair of a healthy terminal did not panic")
		}
	}()
	fl.Repair(17)
}

// TestFreeListSteadyStateAllocs pins the pooling contract: once the pool is
// warm, an Alloc/Release cycle allocates nothing.
func TestFreeListSteadyStateAllocs(t *testing.T) {
	fl := newTestFreeList(t, "linear")
	// Warm the pool with the slice size the loop reuses.
	fl.Release(fl.Alloc(16))
	if avg := testing.AllocsPerRun(100, func() {
		fl.Release(fl.Alloc(16))
	}); avg != 0 {
		t.Errorf("steady-state Alloc/Release costs %.1f allocs/op, want 0", avg)
	}
}
