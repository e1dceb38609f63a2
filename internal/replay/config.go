// Package replay is the Dimemas-like trace replay engine: it re-executes the
// MPI activity recorded in a trace, representing computation by its recorded
// duration and timing communication through the network model, optionally
// with the paper's power saving mechanism interposed at every MPI call
// (Section IV-A methodology).
package replay

import (
	"fmt"
	"time"

	"ibpower/internal/network"
	"ibpower/internal/power"
	"ibpower/internal/predictor"
	"ibpower/internal/topology"
)

// PowerConfig enables the power saving mechanism during replay.
type PowerConfig struct {
	Enabled bool
	// PredictorName selects the idle predictor from the predictor registry
	// ("ngram", "oracle", "offline", "lastvalue", "ewma", "static-gt", or
	// anything registered by the embedding program); empty selects
	// predictor.DefaultName, the paper's n-gram PPA.
	PredictorName   string
	Predictor       predictor.Config
	Overheads       predictor.OverheadModel
	RecordTimelines bool // record per-rank link state timelines (Figure 6)

	// DeepSleep enables the paper's Section VI scenario: long predicted
	// idles also power down switch buffers/crossbars (millisecond
	// reactivation).
	DeepSleep bool
	Deep      power.DeepConfig
}

// Config parameterises a replay run.
type Config struct {
	Net network.Config
	// Topo is the fabric to simulate on; nil resolves FabricName instead.
	Topo topology.Fabric
	// FabricName selects the fabric from the topology registry ("xgft",
	// "xgft3", "dragonfly", "torus2d", "torus3d", or anything registered by
	// the embedding program) when Topo is nil; empty selects
	// topology.DefaultFabric, the paper's XGFT(2;18,14;1,18).
	FabricName string
	Power      PowerConfig

	// Telemetry opts the run into streaming time-series recording
	// (Result.Series / MultiResult.Series). Off by default; enabling it is
	// purely observational and changes no simulated result.
	Telemetry TelemetryConfig

	// Parallelism bounds how many independent experiment points the harness
	// sweeps concurrently (tables, figures, GT grids). The engine ignores
	// it: each point is still replayed by the single-threaded engine, so
	// results are bit-identical at every setting; only the harness's
	// wall-clock time changes. 0 selects runtime.GOMAXPROCS, 1 forces the
	// serial path.
	Parallelism int
}

// DefaultConfig returns the paper's Table II simulation parameters with the
// mechanism disabled (the power-unaware baseline).
func DefaultConfig() Config {
	return Config{Net: network.DefaultConfig()}
}

// WithPower returns cfg with the mechanism enabled at the given grouping
// threshold and displacement factor. A predictor selected earlier via
// WithPredictor is preserved.
func (c Config) WithPower(gt time.Duration, displacement float64) Config {
	c.Power = PowerConfig{
		Enabled:       true,
		PredictorName: c.Power.PredictorName,
		Predictor: predictor.Config{
			GT:           gt,
			Displacement: displacement,
			Treact:       power.Treact,
		},
		Overheads: predictor.DefaultOverheads(),
	}
	return c
}

// WithPredictor returns cfg with the named idle predictor selected from the
// registry. Apply in any order relative to WithPower; the choice survives
// it. The empty name keeps the default n-gram PPA.
func (c Config) WithPredictor(name string) Config {
	c.Power.PredictorName = name
	return c
}

// WithDeepSleep returns cfg with the Section VI deep mode enabled on top of
// the lane mechanism (WithPower must be applied first).
func (c Config) WithDeepSleep(deep power.DeepConfig) Config {
	c.Power.DeepSleep = true
	c.Power.Deep = deep
	return c
}

// WithFabric returns cfg with the named fabric selected from the topology
// registry. The empty name keeps the default, the paper's XGFT(2;18,14;1,18).
// An explicitly set Topo instance takes precedence over the name.
func (c Config) WithFabric(name string) Config {
	c.FabricName = name
	return c
}

// Fabric resolves the fabric the configuration simulates on: Topo when set,
// otherwise the registry entry FabricName selects (the shared immutable
// instance), otherwise the paper's fabric.
func (c Config) Fabric() (topology.Fabric, error) {
	if c.Topo != nil {
		return c.Topo, nil
	}
	f, err := topology.Named(c.FabricName)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return f, nil
}
