package network

import (
	"testing"
	"testing/quick"
	"time"

	"ibpower/internal/topology"
)

const us = time.Microsecond

func newNet(t *testing.T, mode Fidelity) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	n, err := New(topology.Paper(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDefaultConfigIsTableII(t *testing.T) {
	c := DefaultConfig()
	if c.BandwidthBitsPerSec != 40e9 {
		t.Errorf("bandwidth = %v, want 40 Gb/s", c.BandwidthBitsPerSec)
	}
	if c.SegmentSize != 2048 {
		t.Errorf("segment = %d, want 2 KB", c.SegmentSize)
	}
	if c.MPILatency != time.Microsecond {
		t.Errorf("MPI latency = %v, want 1µs", c.MPILatency)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{BandwidthBitsPerSec: 0, SegmentSize: 1},
		{BandwidthBitsPerSec: 1, SegmentSize: 0},
		{BandwidthBitsPerSec: 1, SegmentSize: 1, MPILatency: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

// TestConfigValidationMode asserts an out-of-range Fidelity is rejected
// rather than silently timed as one of the two real modes (an unknown Mode
// previously fell through Transfer's SegmentLevel check into the
// message-level path).
func TestConfigValidationMode(t *testing.T) {
	cfg := DefaultConfig()
	for _, mode := range []Fidelity{2, 3, 255} {
		cfg.Mode = mode
		if err := cfg.Validate(); err == nil {
			t.Errorf("fidelity mode %d accepted", mode)
		}
		if _, err := New(topology.Paper(), cfg); err == nil {
			t.Errorf("network constructed with fidelity mode %d", mode)
		}
	}
	for _, mode := range []Fidelity{MessageLevel, SegmentLevel} {
		cfg.Mode = mode
		if err := cfg.Validate(); err != nil {
			t.Errorf("real mode %d rejected: %v", mode, err)
		}
	}
}

// TestNetworkOverEveryFabric asserts the model times transfers over every
// registered fabric: arrivals respect the latency floor and host links
// resolve through the Fabric interface.
func TestNetworkOverEveryFabric(t *testing.T) {
	for _, name := range topology.Names() {
		f, err := topology.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(f, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		last := f.NumTerminals() - 1
		arr, _ := n.Transfer(0, last, 4096, 0)
		if min := n.cfg.MPILatency + n.SerTime(4096); arr < min {
			t.Errorf("%s: arrival %v below floor %v", name, arr, min)
		}
		if !f.Table().IsUp(f.HostLinkID(last)) {
			t.Errorf("%s: HostLinkID(%d) resolves the wrong link", name, last)
		}
		if n.NumLinks() != f.NumLinks() {
			t.Errorf("%s: NumLinks = %d, want %d", name, n.NumLinks(), f.NumLinks())
		}
		if n.LinkBusy(f.HostLinkID(0)) <= 0 {
			t.Errorf("%s: transfer left the source host link idle", name)
		}
	}
}

// TestTransferHealthyNoAllocs pins the healthy transfer hot path on the
// 8k-terminal presets: with the live routing RNG drawing on every transfer,
// routing into the network's reused scratch path allocates nothing once the
// scratch has grown to the fabric's longest route.
func TestTransferHealthyNoAllocs(t *testing.T) {
	for _, name := range []string{"xgft3-big", "dragonfly-big"} {
		f := topology.MustNamed(name)
		n, err := New(f, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		nt := f.NumTerminals()
		var i int
		var clock time.Duration
		transfer := func() {
			n.Transfer(i%nt, (i*7919+13)%nt, 4096, clock)
			i++
			clock += us
		}
		for j := 0; j < 2000; j++ {
			transfer()
		}
		if allocs := testing.AllocsPerRun(1000, transfer); allocs != 0 {
			t.Errorf("%s: healthy Transfer allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func TestSerTime(t *testing.T) {
	n := newNet(t, MessageLevel)
	// 40 Gb/s = 5 bytes/ns: 2048 bytes -> 409.6 ns.
	got := n.SerTime(2048)
	if got < 409*time.Nanosecond || got > 410*time.Nanosecond {
		t.Errorf("SerTime(2048) = %v, want ~409.6ns", got)
	}
	if n.SerTime(0) != 0 {
		t.Error("SerTime(0) must be 0")
	}
}

func TestTransferSelf(t *testing.T) {
	n := newNet(t, MessageLevel)
	if got, ser := n.Transfer(3, 3, 4096, 0); got != time.Microsecond || ser != n.SerTime(4096) {
		t.Errorf("self transfer = %v, %v, want the MPI latency only and %v", got, ser, n.SerTime(4096))
	}
}

func TestTransferLatencyFloor(t *testing.T) {
	n := newNet(t, MessageLevel)
	// Zero-byte cross-leaf message: MPI latency + per-hop wire latency.
	got, _ := n.Transfer(0, 251, 0, 0)
	want := time.Microsecond + 4*100*time.Nanosecond
	if got != want {
		t.Errorf("control message arrival = %v, want %v", got, want)
	}
}

func TestTransferBandwidthTerm(t *testing.T) {
	n := newNet(t, MessageLevel)
	small, _ := n.Transfer(0, 1, 2048, 0)
	n2 := newNet(t, MessageLevel)
	big, _ := n2.Transfer(0, 1, 1<<20, 0)
	if big <= small {
		t.Errorf("1 MB (%v) must arrive later than 2 KB (%v)", big, small)
	}
	// 1 MB at 5 B/ns is ~210 µs of serialization.
	if big < 200*us {
		t.Errorf("1 MB arrival %v implausibly fast", big)
	}
}

func TestContentionSerializes(t *testing.T) {
	n := newNet(t, MessageLevel)
	// Two 512 KB messages from the same source at the same instant share
	// the host uplink: the second must arrive roughly one serialization
	// time later.
	a1, _ := n.Transfer(0, 1, 512<<10, 0)
	a2, _ := n.Transfer(0, 2, 512<<10, 0)
	if a2 <= a1 {
		t.Errorf("contended transfer (%v) not delayed past first (%v)", a2, a1)
	}
	gap := a2 - a1
	ser := n.SerTime(512 << 10)
	if gap < ser/2 {
		t.Errorf("contention gap %v too small vs serialization %v", gap, ser)
	}
}

func TestSegmentLevelClose(t *testing.T) {
	// Segment-level and message-level timings agree within the pipelining
	// error (one segment per hop) on an uncontended path.
	msg := newNet(t, MessageLevel)
	seg := newNet(t, SegmentLevel)
	const bytes = 64 << 10
	am, _ := msg.Transfer(0, 250, bytes, 0)
	as, _ := seg.Transfer(0, 250, bytes, 0)
	diff := as - am
	if diff < 0 {
		diff = -diff
	}
	if diff > 3*us {
		t.Errorf("segment (%v) and message (%v) timing diverge by %v", as, am, diff)
	}
}

func TestSegmentLevelZeroBytes(t *testing.T) {
	n := newNet(t, SegmentLevel)
	got, _ := n.Transfer(0, 251, 0, 0)
	if got <= time.Microsecond {
		t.Errorf("control message arrival = %v", got)
	}
}

func TestBusyAccounting(t *testing.T) {
	n := newNet(t, MessageLevel)
	up := n.topo.HostLinkID(0)
	n.Transfer(0, 1, 1<<20, 0)
	if n.LinkBusy(up) != n.SerTime(1<<20) {
		t.Errorf("uplink busy = %v, want %v", n.LinkBusy(up), n.SerTime(1<<20))
	}
	// Store-and-forward: one full segment, then a 100-byte tail segment.
	seg := newNet(t, SegmentLevel)
	seg.Transfer(0, 1, 2048+100, 0)
	if want := seg.SerTime(2048) + seg.SerTime(100); seg.LinkBusy(up) != want {
		t.Errorf("segmented uplink busy = %v, want %v", seg.LinkBusy(up), want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		n := newNet(t, MessageLevel)
		var out []time.Duration
		for i := 0; i < 20; i++ {
			arr, _ := n.Transfer(i%8, (i+5)%8, 10000+i, time.Duration(i)*us)
			out = append(out, arr)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transfer %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: arrival is never before start + MPI latency, bytes moved
// accumulate exactly, and the returned serialization time is SerTime's.
func TestArrivalLowerBoundProperty(t *testing.T) {
	n := newNet(t, MessageLevel)
	var moved int64
	f := func(src, dst uint8, kb uint8, startUS uint16) bool {
		s := int(src) % 252
		d := int(dst) % 252
		b := int(kb) * 1024
		start := time.Duration(startUS) * us
		arr, ser := n.Transfer(s, d, b, start)
		moved += int64(b)
		_, gotMoved := n.Stats()
		return arr >= start+time.Microsecond && gotMoved == moved && ser == n.SerTime(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
