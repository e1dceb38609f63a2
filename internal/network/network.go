// Package network is the Venus-like network model: it times message
// transfers over an InfiniBand fabric — any topology.Fabric: the paper's
// XGFT fat tree, a dragonfly, a torus — with per-link serialization and
// contention, 2 KB segmentation and the paper's Table II parameters
// (40 Gb/s links, 1 µs MPI latency, random routing).
//
// Two fidelity modes are provided. MessageLevel reserves each link of the
// path for the whole message with cut-through head advancement (the
// Dimemas-style fast path used for the large parameter sweeps).
// SegmentLevel performs store-and-forward per 2 KB segment, modelling
// pipelining explicitly; it is slower and used for fidelity ablation.
package network

import (
	"fmt"
	"math/rand"
	"time"

	"ibpower/internal/topology"
)

// Fidelity selects the transfer timing model.
type Fidelity uint8

// Fidelity modes.
const (
	MessageLevel Fidelity = iota
	SegmentLevel
)

// Config holds network parameters (defaults are the paper's Table II).
type Config struct {
	BandwidthBitsPerSec float64       // link rate; 40e9 (4X QDR)
	SegmentSize         int           // segmentation unit; 2048 bytes
	MPILatency          time.Duration // per-message software latency; 1 µs
	WireLatency         time.Duration // per-hop propagation/switching delay
	Mode                Fidelity
	Seed                int64 // seed for random routing
}

// DefaultConfig returns the paper's simulation parameters.
func DefaultConfig() Config {
	return Config{
		BandwidthBitsPerSec: 40e9,
		SegmentSize:         2048,
		MPILatency:          time.Microsecond,
		WireLatency:         100 * time.Nanosecond,
		Mode:                MessageLevel,
		Seed:                1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BandwidthBitsPerSec <= 0 {
		return fmt.Errorf("network: non-positive bandwidth")
	}
	if c.SegmentSize <= 0 {
		return fmt.Errorf("network: non-positive segment size")
	}
	if c.MPILatency < 0 || c.WireLatency < 0 {
		return fmt.Errorf("network: negative latency")
	}
	if c.Mode != MessageLevel && c.Mode != SegmentLevel {
		return fmt.Errorf("network: unknown fidelity mode %d", c.Mode)
	}
	return nil
}

// Network times transfers over a fabric.
type Network struct {
	topo topology.Fabric
	cfg  Config
	rng  *rand.Rand
	segT time.Duration // serialization time of one full segment

	nextFree []time.Duration   // per directed link: earliest next use
	busy     []time.Duration   // per directed link: accumulated busy time
	segReady []time.Duration   // transferSegments scratch, reused across messages
	path     []topology.LinkID // healthy-route scratch, reused across messages

	// Fault-aware routing state (SetFaults). While the set is non-empty,
	// RouteDraws consumes the RNG exactly as RouteIDsInto would, then the
	// fault router picks the detour, so the draw sequence — and with it every
	// fault-free transfer — stays bit-identical.
	faults     *topology.FaultSet
	frouter    topology.FaultRouter
	faultDraws []int             // RouteDraws scratch, reused across messages
	faultPath  []topology.LinkID // RouteIDsAvoiding scratch, reused across messages
	unroutable int               // transfers with no healthy path left

	// Optional streaming observer: every link reservation is reported as it
	// happens (telemetry time series), with no per-reservation storage.
	obs BusyObserver

	transfers int
	bytes     int64
}

// New returns a network over topo.
func New(topo topology.Fabric, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		topo:     topo,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		nextFree: make([]time.Duration, topo.NumLinks()),
		busy:     make([]time.Duration, topo.NumLinks()),
	}
	n.segT = n.serTime(cfg.SegmentSize)
	return n, nil
}

// BusyObserver receives every link reservation as it is made. Observers
// must be cheap and allocation-free: the callback sits on the transfer hot
// path. Reservations of one link arrive in non-decreasing start order, but
// reservations across links interleave arbitrarily.
type BusyObserver interface {
	ObserveBusy(link topology.LinkID, start, end time.Duration)
}

// Observe attaches a streaming reservation observer (nil detaches). It
// stores nothing per reservation, so it is safe to leave attached for
// arbitrarily long runs.
func (n *Network) Observe(o BusyObserver) { n.obs = o }

// SetFaults attaches a live fault set: subsequent transfers route around
// blocked links via the fabric's FaultRouter. The set is read on every
// transfer, so the caller may keep mutating it (fail/repair events) between
// calls. Passing nil detaches the fault layer. Returns an error if the
// fabric does not implement degraded routing.
func (n *Network) SetFaults(fs *topology.FaultSet) error {
	if fs == nil {
		n.faults, n.frouter = nil, nil
		return nil
	}
	fr, ok := n.topo.(topology.FaultRouter)
	if !ok {
		return fmt.Errorf("network: fabric %s does not implement topology.FaultRouter", n.topo.Name())
	}
	n.faults, n.frouter = fs, fr
	return nil
}

// Unroutable returns the number of transfers for which no healthy path
// existed; those fell back to the healthy-route timing (the message is
// assumed lost-and-retried at a higher layer, which the churn engine models
// by killing the affected jobs).
func (n *Network) Unroutable() int { return n.unroutable }

// SerTime returns the serialization time of b bytes on one link at full
// width, the second result of Transfer.
func (n *Network) SerTime(b int) time.Duration { return n.serTime(b) }

// serTime returns the serialization time of b bytes on one link: a pure
// function of b, so each message computes it once.
func (n *Network) serTime(b int) time.Duration {
	if b <= 0 {
		return 0
	}
	return time.Duration(float64(b) * 8 / n.cfg.BandwidthBitsPerSec * 1e9)
}

// Transfer times a message of b bytes from terminal src to terminal dst
// injected at time start. It returns the arrival time at dst and the
// message's serialization time on one link, SerTime(b), which completes the
// sender's injection. Transfers between a node and itself only pay the MPI
// latency.
func (n *Network) Transfer(src, dst, b int, start time.Duration) (arrival, ser time.Duration) {
	n.transfers++
	n.bytes += int64(b)
	ser = n.serTime(b)
	head := start + n.cfg.MPILatency
	if src == dst {
		return head, ser
	}
	// Healthy transfers route directly into a reused scratch slice, so the
	// steady-state transfer path allocates nothing. While faults are present
	// the RNG is consumed through RouteDraws (the identical draw sequence)
	// and the fault router picks a detour from the recorded draws.
	var path []topology.LinkID
	if n.faults != nil && !n.faults.Empty() {
		n.faultDraws = n.topo.RouteDraws(n.faultDraws[:0], src, dst, n.rng)
		var ok bool
		n.faultPath, ok = n.frouter.RouteIDsAvoiding(n.faultPath[:0], src, dst, n.faultDraws, n.faults)
		if !ok {
			// No healthy path left: count it and time the transfer over the
			// healthy route so the simulation can proceed deterministically.
			n.unroutable++
			n.faultPath = n.topo.RouteIDsFromDraws(n.faultPath[:0], src, dst, n.faultDraws)
		}
		path = n.faultPath
	} else {
		n.path = n.topo.RouteIDsInto(n.path[:0], src, dst, n.rng)
		path = n.path
	}
	if n.cfg.Mode == SegmentLevel {
		return n.transferSegments(path, b, head), ser
	}
	return n.transferMessage(path, b, ser, head), ser
}

// transferMessage advances the message head hop by hop; every link is
// reserved for the full serialization time full = serTime(b), so later
// messages queue behind it, while the head advances after only one segment
// (cut-through).
func (n *Network) transferMessage(path []topology.LinkID, b int, full, head time.Duration) time.Duration {
	segT := n.segT
	if b < n.cfg.SegmentSize {
		segT = full
	}
	var lastStart time.Duration
	for _, l := range path {
		txStart := head
		if n.nextFree[l] > txStart {
			txStart = n.nextFree[l]
		}
		n.reserve(l, txStart, full)
		head = txStart + segT + n.cfg.WireLatency
		lastStart = txStart
	}
	return lastStart + full + n.cfg.WireLatency
}

// transferSegments times each 2 KB segment store-and-forward.
func (n *Network) transferSegments(path []topology.LinkID, b int, head time.Duration) time.Duration {
	if b <= 0 {
		// Pure control message: head advances through the path.
		for _, l := range path {
			txStart := head
			if n.nextFree[l] > txStart {
				txStart = n.nextFree[l]
			}
			head = txStart + n.cfg.WireLatency
		}
		return head
	}
	nseg := (b + n.cfg.SegmentSize - 1) / n.cfg.SegmentSize
	// ready[i] = time the segment is fully received at hop i's tail. The
	// scratch slice lives on the Network and is reused across messages.
	arrival := head
	if cap(n.segReady) < len(path)+1 {
		n.segReady = make([]time.Duration, len(path)+1)
	}
	ready := n.segReady[:len(path)+1]
	for i := range ready {
		ready[i] = 0
	}
	for s := 0; s < nseg; s++ {
		segT := n.segT
		if s == nseg-1 {
			segT = n.serTime(b - (nseg-1)*n.cfg.SegmentSize)
		}
		t := head
		for i, l := range path {
			if ready[i] > t {
				t = ready[i]
			}
			if n.nextFree[l] > t {
				t = n.nextFree[l]
			}
			n.reserve(l, t, segT)
			t += segT + n.cfg.WireLatency
			ready[i+1] = t
		}
		arrival = ready[len(path)]
	}
	return arrival
}

func (n *Network) reserve(link topology.LinkID, start, dur time.Duration) {
	n.nextFree[link] = start + dur
	n.busy[link] += dur
	if n.obs != nil && dur > 0 {
		n.obs.ObserveBusy(link, start, start+dur)
	}
}

// LinkBusy returns the accumulated busy time of a directed link.
func (n *Network) LinkBusy(link topology.LinkID) time.Duration { return n.busy[link] }

// NumLinks returns the number of directed links of the underlying fabric;
// per-link state slices (LinkBusy consumers) are sized by it.
func (n *Network) NumLinks() int { return n.topo.NumLinks() }

// Stats returns transfer counters.
func (n *Network) Stats() (transfers int, bytes int64) { return n.transfers, n.bytes }
