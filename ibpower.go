// Package ibpower reproduces "Software-Managed Power Reduction in Infiniband
// Links" (Dickov, Pericàs, Carpenter, Navarro, Ayguadé; ICPP 2014): a
// software mechanism that predicts the idle intervals between MPI
// communication phases with an n-gram pattern prediction algorithm (PPA) and
// shuts down three of the four lanes of each 4X InfiniBand link for the
// predicted duration (Mellanox Width Reduction Power Saving), cutting switch
// power by up to ~33 % at ~1 % execution-time cost.
//
// This root package is the public facade over the implementation packages:
//
//   - Predictor / PredictorConfig — the pluggable per-process idle
//     predictor. The paper's mechanism (gram formation, Algorithm 1; PPA,
//     Algorithm 2; displacement-factor power mode control, Algorithm 3)
//     registers as "ngram", the default, next to the "oracle", "offline",
//     "lastvalue", "ewma" and "static-gt" predictors; select by name with
//     NewNamedPredictor or ReplayConfig.WithPredictor, enumerate with
//     Predictors, and add implementations with RegisterPredictor.
//   - LinkController — the HCA link power controller with the hardware wake
//     timer (Figure 5) and per-mode energy accounting.
//   - GenerateWorkload — synthetic stand-ins for the paper's five production
//     traces (GROMACS, ALYA, WRF, NAS BT, NAS MG).
//   - Replay — the Dimemas/Venus-style co-simulator: MPI replay over a
//     pluggable interconnect fabric with the Table II parameters. The
//     paper's XGFT(2;18,14;1,18) fat tree is the default; a three-level
//     XGFT, a dragonfly and 2D/3D tori register next to it. Select by name
//     with ReplayConfig.WithFabric, enumerate with Fabrics, and add
//     implementations with RegisterFabric.
//   - RunChurn — the multi-tenant extension: several independent
//     workloads sharing one fabric, placed by a pluggable policy ("linear",
//     "random", "roundrobin"; select with ChurnConfig.Placement,
//     enumerate with Placements, add implementations with
//     RegisterPlacement), with per-job and fabric-wide energy accounting.
//     A static job mix is a ChurnConfig whose arrivals all sit at time 0
//     and whose nil Schedule admits each job as it arrives.
//   - RunScenario — job churn on the shared fabric: a ScenarioSpec
//     ("jobs=200,size=zipf:16:256,arrival=poisson:30s,seed=7") expands into
//     a seeded arrival stream, jobs queue under a scheduling policy from
//     the module's fourth named registry ("fcfs", "backfill", "power-aware";
//     enumerate with Schedulers, add implementations with
//     RegisterScheduler), and results report makespan, the queue-wait
//     distribution, fabric utilization over time, and per-job energy. A
//     faults key ("faults=link:poisson:10m:mttr=2m") injects seeded
//     hardware failures: routing detours around dead links and killed jobs
//     retry with exponential backoff (ParseScenarioFaults, RetryPolicy).
//   - RunSPMD / PowerLayer — the mini-MPI runtime with the mechanism
//     installed in the PMPI profiling layer, the paper's deployment model.
//
// The experiment harness behind every table and figure of the paper lives in
// internal/harness and is exposed through the ibpower command
// (cmd/ibpower) and the root benchmarks (bench_test.go). See DESIGN.md for
// the system inventory and EXPERIMENTS.md for paper-vs-measured results.
package ibpower

import (
	"io"
	"time"

	"ibpower/internal/harness"
	"ibpower/internal/mpi"
	"ibpower/internal/multijob"
	"ibpower/internal/pmpi"
	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/replay"
	"ibpower/internal/scenario"
	"ibpower/internal/stats"
	"ibpower/internal/topology"
	"ibpower/internal/trace"
	"ibpower/internal/workloads"
)

// Paper constants (Section II).
const (
	// Treact is the lane (de)activation time: up to 10 µs.
	Treact = power.Treact
	// GTMin is the smallest admissible grouping threshold, 2·Treact.
	GTMin = harness.GTMin
	// LowPowerFraction is the switch power draw in WRPS mode relative to
	// nominal (Mellanox SX6036: 43 %).
	LowPowerFraction = power.LowPowerFraction
	// MaxSavingPct is the physical ceiling on switch power savings.
	MaxSavingPct = power.MaxSavingFraction * 100
)

// Core mechanism types.
type (
	// PredictorConfig parameterises the mechanism: grouping threshold,
	// displacement factor, reactivation time and maximum pattern size.
	PredictorConfig = predictor.Config
	// Predictor is the pluggable per-MPI-process idle predictor interface.
	// Feed an instance every intercepted call via OnCall.
	Predictor = predictor.Predictor
	// NGramPredictor is the paper's concrete mechanism (the "ngram"
	// registry entry): gram formation + PPA + power mode control.
	NGramPredictor = predictor.NGram
	// PredictorFactory constructs per-rank instances of a registered
	// predictor.
	PredictorFactory = predictor.Factory
	// Action is OnCall's verdict: whether to shut lanes down and for how
	// long.
	Action = predictor.Action
	// PredictorStats aggregates hit rates and detector counters.
	PredictorStats = predictor.Stats
	// OverheadModel charges the mechanism's software costs (Table IV).
	OverheadModel = predictor.OverheadModel
	// LinkController models the link power controller with its wake timer.
	LinkController = power.Controller
	// PowerAccounting is per-mode accumulated link time.
	PowerAccounting = power.Accounting
	// EventID identifies an MPI call type in the event stream.
	EventID = predictor.EventID
)

// Trace and workload types.
type (
	// Trace is a per-rank MPI event trace (compute bursts + calls).
	Trace = trace.Trace
	// TraceOp is one trace operation.
	TraceOp = trace.Op
	// WorkloadOptions seeds and scales trace generation.
	WorkloadOptions = workloads.Options
	// IdleDist is the Table I idle-interval distribution.
	IdleDist = trace.IdleDist
)

// Simulation types.
type (
	// ReplayConfig parameterises the co-simulation (Table II defaults).
	ReplayConfig = replay.Config
	// ReplayResult carries execution time, per-link power accounting and
	// mechanism counters.
	ReplayResult = replay.Result
	// Fabric is the pluggable interconnect abstraction the network model
	// times transfers over (terminals, a flat LinkID-indexed link table,
	// routing with an explicit RNG-draw contract for fault detours).
	Fabric = topology.Fabric
	// LinkID is a compact directed-link index into a Fabric's link table;
	// Fabric paths and per-link state are keyed by it.
	LinkID = topology.LinkID
)

// Multi-job (shared fabric) simulation types.
type (
	// JobSpec names one workload of a multi-job mix ("gromacs" at 64
	// processes).
	JobSpec = multijob.JobSpec
	// ChurnConfig parameterises a shared-fabric simulation: the job stream,
	// the scheduler (nil admits each job as it arrives, the static mix), the
	// placement policy, and the replay configuration every job shares.
	ChurnConfig = multijob.ChurnConfig
	// PlacementFunc returns a placement policy's preference order over every
	// terminal of a fabric (a permutation of its terminals). A static mix
	// takes consecutive blocks of it; a churn scenario's free-list hands out
	// its first free terminals. Implementations register with
	// RegisterPlacement.
	PlacementFunc = multijob.PlaceFunc
)

// Job churn (scenario) simulation types.
type (
	// ScenarioSpec describes an arrival stream: job count, application mix,
	// size distribution, arrival process, speed multiplier and seed. Build
	// one with ParseScenarioSpec, ParseScenarioSpecFile or
	// DefaultScenarioSpec; the zero value fails validation.
	ScenarioSpec = scenario.Spec
	// ScenarioConfig parameterises a churn simulation: the spec, the
	// scheduler and placement registry names, and the replay configuration
	// every job shares.
	ScenarioConfig = scenario.Config
	// Arrival is one timed job arrival of the expanded stream.
	Arrival = multijob.Arrival
	// ChurnResult carries the outcome of RunChurn or RunScenario: per-job
	// records in arrival order (runtime, energy, hit rate, sharing overhead
	// vs a dedicated fabric), the queue-wait distribution, per-bucket fabric
	// utilization and fabric-wide aggregates (per-link utilization,
	// decomposed switch power saving).
	ChurnResult = multijob.ChurnResult
	// ChurnJob is one completed job's record (arrival, wait, start, finish,
	// terminals held, energy and sharing overhead).
	ChurnJob = multijob.ChurnJob
	// SchedContext is the queue-and-fabric snapshot a scheduling policy
	// decides over.
	SchedContext = multijob.SchedContext
	// SchedFunc picks which queued jobs to admit, by queue index;
	// implementations register with RegisterScheduler.
	SchedFunc = multijob.SchedFunc
	// FaultClause is one hardware failure process of a scenario: a kind
	// (link, switch, terminal), a mean-time-between-failures arrival process,
	// and a mean time to repair (zero = permanent).
	FaultClause = scenario.FaultClause
	// RetryPolicy governs requeueing of fault-killed jobs: a retry budget
	// and an exponential backoff base.
	RetryPolicy = multijob.RetryPolicy
)

// Streaming telemetry types (internal/stats).
type (
	// Sketch summarises a value stream: count, compensated mean, min, max
	// and P² estimates of p50/p95/p99.
	Sketch = stats.Sketch
	// TimeSeries is an interval-bucketed recorder of named series over
	// simulated time: fixed tick, preallocated rings, zero allocations on
	// the record path, tick doubling when a run outgrows the ring.
	TimeSeries = stats.TimeSeries
	// SeriesID indexes a registered series of a TimeSeries.
	SeriesID = stats.SeriesID
	// TimeSeriesDoc is the versioned JSON document a TimeSeries snapshots
	// to (the ibpower -timeseries output format).
	TimeSeriesDoc = stats.TimeSeriesDoc
	// SeriesSnapshot is one series of a TimeSeriesDoc.
	SeriesSnapshot = stats.SeriesSnapshot
	// TelemetryConfig opts a replay/multijob/scenario run into streaming
	// telemetry recording (ReplayConfig.Telemetry); the zero value is off.
	TelemetryConfig = replay.TelemetryConfig
)

// Runtime (deployment path) types.
type (
	// Comm is a mini-MPI communicator handle.
	Comm = mpi.Comm
	// PowerLayer is the PMPI-style profiling layer with the mechanism.
	PowerLayer = pmpi.Layer
	// PowerReport is the aggregated outcome of a profiled run.
	PowerReport = pmpi.Report
)

// NewPredictor builds the paper's n-gram per-process mechanism instance.
func NewPredictor(cfg PredictorConfig) (*NGramPredictor, error) { return predictor.New(cfg) }

// NewNamedPredictor builds a per-process instance of any registered
// predictor ("ngram", "oracle", "offline", "lastvalue", "ewma",
// "static-gt", or anything added via RegisterPredictor).
func NewNamedPredictor(name string, cfg PredictorConfig) (Predictor, error) {
	return predictor.NewNamed(name, cfg)
}

// Predictors returns the registered predictor names, sorted.
func Predictors() []string { return predictor.Names() }

// RegisterPredictor adds a predictor implementation to the registry; it
// panics on duplicate names. Registered predictors are selectable by every
// harness experiment, ReplayConfig.WithPredictor, and the ibpower command's
// -predictor flag.
func RegisterPredictor(name string, f PredictorFactory) { predictor.Register(name, f) }

// NewLinkController builds a link power controller; treact <= 0 selects the
// paper's 10 µs.
func NewLinkController(treact time.Duration) *LinkController {
	return power.NewController(treact)
}

// DefaultOverheads returns the Table IV-calibrated software costs.
func DefaultOverheads() OverheadModel { return predictor.DefaultOverheads() }

// Workloads returns the generatable application names.
func Workloads() []string { return workloads.Apps() }

// WorkloadProcCounts returns the process counts the paper evaluates for app.
func WorkloadProcCounts(app string) []int { return workloads.ProcCounts(app) }

// GenerateWorkload builds a synthetic trace for one of the paper's five
// applications at the given process count.
func GenerateWorkload(app string, np int, opt WorkloadOptions) (*Trace, error) {
	return workloads.Generate(app, np, opt)
}

// ReadTrace parses a trace in the text format; WriteTrace serialises one.
func ReadTrace(r io.Reader) (*Trace, error)   { return trace.Read(r) }
func WriteTrace(w io.Writer, tr *Trace) error { return tr.Write(w) }

// DefaultReplayConfig returns the paper's Table II simulation parameters
// with the mechanism disabled (the power-unaware baseline).
func DefaultReplayConfig() ReplayConfig { return replay.DefaultConfig() }

// Fabrics returns the registered interconnect fabric names, sorted
// ("dragonfly", "dragonfly-big", "torus2d", "torus3d", "xgft", "xgft3",
// "xgft3-big", plus anything added via RegisterFabric).
func Fabrics() []string { return topology.Names() }

// NamedFabric returns the shared immutable instance of a registered fabric;
// the empty name selects the paper's XGFT(2;18,14;1,18).
func NamedFabric(name string) (Fabric, error) { return topology.Named(name) }

// RegisterFabric adds an interconnect implementation to the registry; it
// panics on duplicate names. Registered fabrics are selectable by every
// harness experiment, ReplayConfig.WithFabric, and the ibpower command's
// -topo flag. The constructor runs at most once: the built fabric is shared,
// so it must be immutable.
func RegisterFabric(name string, build func() (Fabric, error)) { topology.Register(name, build) }

// Replay re-executes the trace under cfg. Enable the mechanism with
// cfg.WithPower(gt, displacement).
func Replay(tr *Trace, cfg ReplayConfig) (*ReplayResult, error) { return replay.RunSource(tr, cfg) }

// ParseJobs parses a multi-job mix in the "app:np,app:np" form the ibpower
// multijob -jobs flag uses, e.g. "gromacs:64,alya:16".
func ParseJobs(s string) ([]JobSpec, error) { return multijob.ParseJobs(s) }

// Placements returns the registered placement policy names, sorted
// ("linear", "random", "roundrobin", plus anything added via
// RegisterPlacement).
func Placements() []string { return multijob.Names() }

// RegisterPlacement adds a placement policy to the registry; it panics on
// duplicate names. Registered policies are selectable by RunChurn, the
// harness sharing sweep, and the ibpower command's -placement flag.
func RegisterPlacement(name string, fn PlacementFunc) { multijob.Register(name, fn) }

// RunChurn simulates several independent workloads concurrently on one
// shared fabric: each job gets its own trace, predictor and
// placement-assigned terminals, links observe the union of all jobs'
// traffic, and results are reported per job and fabric-wide. A static mix
// is the config whose arrivals all sit at time 0 under a nil Schedule; it
// runs on the same engine as RunScenario. Results are deterministic for a
// given configuration at any Parallelism setting.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) { return multijob.RunChurn(cfg) }

// ParseScenarioSpec parses the comma-separated key=value scenario form the
// ibpower scenario -spec flag uses, e.g.
// "jobs=200,size=zipf:16:256,arrival=poisson:30s,seed=7". Omitted keys take
// DefaultScenarioSpec values; the canonical String() form reparses to an
// identical spec.
func ParseScenarioSpec(s string) (ScenarioSpec, error) { return scenario.ParseSpec(s) }

// ParseScenarioSpecFile parses the file form: one key=value per line, blank
// lines and # comments ignored.
func ParseScenarioSpecFile(path string) (ScenarioSpec, error) { return scenario.ParseSpecFile(path) }

// DefaultScenarioSpec returns a moderate churn scenario drawing from every
// registered workload.
func DefaultScenarioSpec() ScenarioSpec { return scenario.DefaultSpec() }

// Schedulers returns the registered scheduling policy names, sorted
// ("backfill", "fcfs", "power-aware", plus anything added via
// RegisterScheduler).
func Schedulers() []string { return scenario.Names() }

// RegisterScheduler adds a scheduling policy to the registry; it panics on
// duplicate names. Registered policies are selectable by RunScenario, the
// harness churn sweep, and the ibpower command's -sched flag.
func RegisterScheduler(name string, fn SchedFunc) { scenario.Register(name, fn) }

// RunScenario expands the spec into a seeded arrival stream and simulates
// the churn: jobs queue under the configured scheduler, claim
// placement-ordered terminals, run on the shared fabric and release on
// completion. When the spec carries fault clauses, seeded link/switch/
// terminal failures fire alongside the arrivals: routes detour around
// failed hardware, jobs whose terminals die are killed and retried up to
// three times with 1s exponential backoff, and the result reports kills,
// goodput and surviving capacity. Results are deterministic for a given
// configuration at any Parallelism setting and across repeats of the same
// seed.
func RunScenario(cfg ScenarioConfig) (*ChurnResult, error) { return scenario.Run(cfg) }

// ParseScenarioFaults parses the fault spec form the ibpower scenario
// -faults flag uses: comma-separated kind:dist:mean[:mttr=duration] clauses,
// e.g. "link:poisson:10m:mttr=2m,switch:fixed:5m". Kinds are link (a
// switch-to-switch cable), switch (a whole switch and its terminals), and
// term (one terminal). FormatScenarioFaults renders clauses back in
// canonical form.
func ParseScenarioFaults(s string) ([]FaultClause, error) { return scenario.ParseFaults(s) }

// FormatScenarioFaults renders fault clauses in canonical ParseScenarioFaults
// form.
func FormatScenarioFaults(cs []FaultClause) string { return scenario.FormatFaults(cs) }

// ChooseGT selects the grouping threshold for a trace by sweeping the
// Figure 10 grid, trading MPI-call hit rate against low-power opportunity
// (Section IV-C). Ranks are simulated on a GOMAXPROCS worker pool; the
// choice is identical to a serial sweep.
func ChooseGT(tr *Trace) (gt time.Duration, hitRatePct float64, err error) {
	return harness.ChooseGTParallel(tr, harness.DefaultGTGrid(), 1.0, 0)
}

// NewTimeSeries builds an interval-bucketed telemetry recorder with the given
// bucket width and ring capacity (buckets < 2 is clamped; the tick doubles and
// adjacent buckets fold when a run outgrows the ring).
func NewTimeSeries(tick time.Duration, buckets int) *TimeSeries {
	return stats.NewTimeSeries(tick, buckets)
}

// NewPowerLayer builds the PMPI-style power saving layer for RunSPMD.
func NewPowerLayer(cfg PredictorConfig, opts ...pmpi.Option) (*PowerLayer, error) {
	return pmpi.New(cfg, opts...)
}

// RunSPMD executes fn on np concurrent ranks of the mini-MPI runtime with
// the given power layer installed (pass nil to run unprofiled).
func RunSPMD(np int, layer *PowerLayer, fn func(c *Comm) error) error {
	var opts []mpi.Option
	if layer != nil {
		opts = append(opts, mpi.WithProfiler(layer.Factory()))
	}
	return mpi.Run(np, fn, opts...)
}

// RecordSPMD executes fn on np ranks while capturing a replayable trace —
// the instrumented-run half of the paper's trace-driven methodology. The
// recorded trace can be fed to Replay to sweep mechanism parameters offline.
func RecordSPMD(app string, np int, fn func(c *Comm) error) (*Trace, error) {
	rec := mpi.NewTraceRecorder(app, np)
	if err := mpi.Run(np, fn, mpi.WithRecorder(rec)); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}
