// Package multijob simulates several independent MPI workloads sharing one
// interconnect fabric — the multi-tenant scenario the paper leaves open: it
// evaluates one application at a time on a dedicated XGFT, but on a real
// cluster a job's switch neighbors shrink, displace, or (when they idle)
// widen the link idle windows the prediction mechanism exploits.
//
// Each job of a mix gets its own trace, grouping threshold, predictor, and
// rank→terminal mapping; the shared replay engine merges every job's events
// into one timeline so links observe the union of traffic. There is one
// shared-fabric engine, RunChurn: jobs queue on arrival, a scheduler admits
// them onto terminals from a free-list, and a replay.Churn session times
// each admission on the live timeline. A static job mix is a ChurnConfig
// whose arrivals all sit at time 0 and whose nil Schedule admits each job as
// it arrives, so the whole mix starts in one batch.
// Where jobs land is a pluggable placement policy behind a named registry of
// the same internal/registry type as the predictor and fabric registries. A
// policy is a preference order over the fabric's terminals: "linear" (fabric
// order, the default), "random" (seeded shuffle), and "roundrobin" (cycling
// over first-hop switches). Results are reported per job — runtime,
// host-link energy, hit rate, and sharing overhead against a dedicated-fabric
// baseline of the same job — and fabric-wide (per-link utilization,
// decomposed switch power).
//
// Everything is deterministic for a given configuration: placement is a pure
// function of (fabric, seed), the shared engine is single-threaded, and the
// Parallelism knob only distributes independent work (per-job preparation
// and baselines, harness sweep cells) over the worker pool, largest first;
// results keep their input order whatever order the pool ran them in.
package multijob

import (
	"time"

	"ibpower/internal/power"
	"ibpower/internal/replay"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// JobStats is the per-job slice of a shared-fabric run.
type JobStats struct {
	App       string
	NP        int
	Predictor string
	GT        time.Duration

	// Exec is the job's completion time on the shared fabric; Dedicated is
	// the same job replayed alone on the same fabric (linear placement from
	// terminal 0), and SharingOverheadPct the relative slowdown between the
	// two — the price of the neighbors.
	Exec               time.Duration
	Dedicated          time.Duration
	SharingOverheadPct float64

	// Per-job mechanism outcome on the shared fabric.
	SavingPct  float64 // switch power saving over the job's host links
	HitRatePct float64

	// Host-link energy over the job's execution, in link-seconds: joules at
	// a nominal link power of 1 W, so multiplying by the deployment's real
	// per-link wattage gives joules. SavedLinkSeconds is the reduction
	// against the same links never leaving full power.
	EnergyLinkSeconds float64
	SavedLinkSeconds  float64

	// Switches is the number of distinct first-hop switches the job spans
	// (1 for a fully packed small job, more as placement scatters it).
	Switches int

	Transfers  int
	BytesMoved int64
}

// FabricStats aggregates the shared fabric.
type FabricStats struct {
	Fabric     string
	MakeSpan   time.Duration // completion time of the slowest job
	Transfers  int
	BytesMoved int64

	// Link utilization over the makespan, across the directed links that
	// carried any traffic.
	LinksUsed   int
	MeanUtilPct float64
	MaxUtilPct  float64

	// SavingPct applies the decomposed switch power model (links 64 % of
	// switch draw, unmanaged uplinks always on) over the first-hop switches
	// occupied by any job — the fabric-wide energy the mechanism saved with
	// all tenants accounted together.
	SavingPct float64
}

// jobStats folds one job's replay on a shared fabric into its record: gt is
// the job's grouping threshold, dedicated the exec time of its
// dedicated-fabric baseline, and terms the terminals it ran on (one per
// rank). RunChurn builds every per-job record here.
func jobStats(f topology.Fabric, app, predName string, gt, dedicated time.Duration,
	res *replay.Result, terms []int) JobStats {
	st := JobStats{
		App: app, NP: len(terms), Predictor: predName, GT: gt,
		Exec:       res.ExecTime,
		Dedicated:  dedicated,
		SavingPct:  res.AvgSavingPct(),
		HitRatePct: res.AvgHitRatePct(),
		Switches:   countSwitches(f, terms),
		Transfers:  res.Transfers,
		BytesMoved: res.BytesMoved,
	}
	if dedicated > 0 {
		st.SharingOverheadPct = 100 * (float64(res.ExecTime) - float64(dedicated)) / float64(dedicated)
	}
	for _, a := range res.Acct {
		st.EnergyLinkSeconds += a.Energy(1.0)
		st.SavedLinkSeconds += a.Total().Seconds() - a.Energy(1.0)
	}
	return st
}

// generate resolves a job's trace source. The default path materializes with
// workloads.Generate rather than wrapping workloads.NewSource. NewSource's
// Open builds one rank in time linear in its ops, but a streamed source
// rebuilds every rank on every Open: GT selection, the dedicated baseline and
// each admission of the job, retries included, would each regenerate all NP
// ranks, while a running job's cursors hold all NP rank buffers anyway. The
// materialized trace generates each rank once per distinct (app, NP), and
// every admission reads it. Consumers that drain one rank at a time (trace
// packing) use NewSource directly and stay O(one rank).
func (c ChurnConfig) generate(js JobSpec) (trace.Source, error) {
	if c.Generate != nil {
		return c.Generate(js.App, js.NP)
	}
	tr, err := workloads.Generate(js.App, js.NP, c.Opt)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

func (c ChurnConfig) selectGT(src trace.Source) (time.Duration, error) {
	if c.SelectGT != nil {
		return c.SelectGT(src)
	}
	return 2 * power.Treact, nil
}

func (c ChurnConfig) runDedicated(src trace.Source, gt time.Duration) (*replay.Result, error) {
	if c.Dedicated != nil {
		return c.Dedicated(src, gt, c.Displacement)
	}
	return RunDedicated(src, c.Replay, gt, c.Displacement)
}

// RunDedicated replays one job alone on rc's fabric with the mechanism armed
// by JobPower at (gt, d): the dedicated-fabric baseline, the denominator of
// the job's sharing overhead. It is the one builder of that baseline, for
// RunChurn and for harness.Runner's cached Dedicated hook alike. Baselines
// never record telemetry: the series belong to the shared run, and a
// baseline's own recorder would be filled and thrown away.
func RunDedicated(src trace.Source, rc replay.Config, gt time.Duration, d float64) (*replay.Result, error) {
	rc.Power = JobPower(rc, gt, d)
	rc.Telemetry = replay.TelemetryConfig{}
	return replay.RunSource(src, rc)
}

// JobPower builds one job's effective power block from a replay
// configuration: the caller's Power settings — deep sleep, overheads,
// timeline recording, predictor tuning — re-armed at the job's grouping
// threshold and the run's displacement. A configuration that never enabled
// the mechanism gets the standard block (Table IV overheads, paper Treact),
// exactly as replay's WithPower constructs it. The shared run and
// RunDedicated, the builder of every dedicated baseline, both build their
// blocks here, so the sharing overhead always compares runs of the same
// mechanism.
func JobPower(rc replay.Config, gt time.Duration, d float64) replay.PowerConfig {
	if !rc.Power.Enabled {
		return rc.WithPower(gt, d).Power
	}
	pw := rc.Power
	pw.Predictor.GT = gt
	pw.Predictor.Displacement = d
	if pw.Predictor.Treact == 0 {
		pw.Predictor.Treact = power.Treact
	}
	return pw
}

// countSwitches returns the number of distinct first-hop switches hosting
// the given terminals.
func countSwitches(f topology.Fabric, terms []int) int {
	seen := make(map[int32]bool)
	for _, t := range terms {
		seen[topology.HostSwitch(f, t)] = true
	}
	return len(seen)
}

// fabricStats summarises link utilization and fabric-wide power over the
// shared run.
func fabricStats(f topology.Fabric, m *replay.MultiResult, terms [][]int) FabricStats {
	fs := FabricStats{
		Fabric:     f.Name(),
		MakeSpan:   m.MakeSpan,
		Transfers:  m.Transfers,
		BytesMoved: m.BytesMoved,
	}
	var mean, maxU float64
	for _, busy := range m.LinkBusy {
		if busy <= 0 {
			continue
		}
		fs.LinksUsed++
		u := 100 * float64(busy) / float64(m.MakeSpan)
		mean += u
		if u > maxU {
			maxU = u
		}
	}
	if fs.LinksUsed > 0 {
		fs.MeanUtilPct = mean / float64(fs.LinksUsed)
	}
	fs.MaxUtilPct = maxU

	// Decomposed switch power over every occupied first-hop switch, all
	// tenants' host links grouped together (the power.FabricPower model the
	// single-job energy experiment uses, extended to the union of jobs).
	var flatTerms []int
	var flatAccts []power.Accounting
	for j, ts := range terms {
		for r, t := range ts {
			if r >= len(m.Jobs[j].Acct) {
				continue // job ran without the mechanism
			}
			flatTerms = append(flatTerms, t)
			flatAccts = append(flatAccts, m.Jobs[j].Acct[r])
		}
	}
	fs.SavingPct = FabricSavingPct(f, flatTerms, flatAccts)
	return fs
}

// FabricSavingPct groups per-terminal host-link accountings by first-hop
// switch of the fabric and applies the decomposed switch power model
// (power.FabricPower): links take 64 % of switch draw, and each first-hop
// switch's unmanaged switch-to-switch out-links stay at full power. Only
// switches hosting an accounted terminal are counted, as the paper's savings
// are reported over the used part of the fabric. Both the single-job energy
// experiment (Runner.Energy) and the multi-job fabric summary share this
// one implementation, so the model cannot silently diverge between them.
// terms[i] is the fabric terminal whose host link accts[i] accounts for.
func FabricSavingPct(f topology.Fabric, terms []int, accts []power.Accounting) float64 {
	if len(terms) == 0 {
		return 0
	}
	tab := f.Table()
	alwaysOn := map[int32]int{}
	for id := 0; id < tab.Len(); id++ {
		if tab.SwitchToSwitch(topology.LinkID(id)) {
			alwaysOn[tab.From[id]]++
		}
	}
	groups := map[int32][]power.Accounting{}
	var order []int32 // switch node IDs in first-use order, for deterministic output
	for i, t := range terms {
		sw := topology.HostSwitch(f, t)
		if _, ok := groups[sw]; !ok {
			order = append(order, sw)
		}
		groups[sw] = append(groups[sw], accts[i])
	}
	used := make([][]power.Accounting, 0, len(order))
	usedOn := make([]int, 0, len(order))
	for _, sw := range order {
		used = append(used, groups[sw])
		usedOn = append(usedOn, alwaysOn[sw])
	}
	return power.FabricPower(used, usedOn).SavingPct
}
