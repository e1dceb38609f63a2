package predictor

import (
	"fmt"
	"time"

	"ibpower/internal/registry"
	"ibpower/internal/trace"
)

// Predictor is the pluggable per-process idle predictor: it observes every
// intercepted MPI call and decides when to shut link lanes down and for how
// long. The paper's n-gram PPA (NGram) is one implementation; the registry
// below holds it next to the simpler baselines it is evaluated against, so
// the harness can answer "how much does pattern prediction actually buy over
// last-value or EWMA prediction?" at the same operating point.
//
// Implementations must tolerate calls fed in non-decreasing start order and
// must be cheap: OnCall sits on the replay hot path.
type Predictor interface {
	// OnCall observes one intercepted MPI call occupying [start, end] and
	// returns the action to take when the call returns.
	OnCall(id EventID, start, end time.Duration) Action
	// Flush finalizes any state pending at end of run so Stats counters
	// include the trailing activity. No action results.
	Flush()
	// Stats returns a snapshot of mechanism statistics.
	Stats() Stats
}

// primer is implemented by the predictors that need the rank's call stream
// before the run begins: the clairvoyant oracle and the offline profile.
// ForRank, the offline grid runner and MeasureOverheads prime them; the live
// PMPI layer has no trace, so there they never predict (a deliberate
// property: trace-trained predictors cannot be deployed online, which is
// the PPA's selling point).
type primer interface {
	// prime hands the predictor the rank's calls and the computation after
	// the last one, as trace.Calls decodes them. It is called once, before
	// the first OnCall. Implementations may keep calls but must not mutate
	// it.
	prime(calls []trace.CallGap, tail time.Duration)
}

// DefaultName is the registry entry used when no predictor is named: the
// paper's n-gram PPA.
const DefaultName = "ngram"

// Factory constructs one per-rank predictor instance from a validated-or-not
// configuration; it must validate cfg itself.
type Factory func(cfg Config) (Predictor, error)

var factories = registry.New[Factory]("predictor", "predictor", DefaultName)

// Register adds a predictor constructor under name. It panics on an empty
// name, a nil factory, or a duplicate registration.
func Register(name string, f Factory) { factories.Register(name, f) }

// Names returns the registered predictor names, sorted.
func Names() []string { return factories.Names() }

// Resolve returns the effective predictor name (the empty name resolves to
// DefaultName), for reporting.
func Resolve(name string) string { return factories.Resolve(name) }

// CheckRegistered returns a descriptive error naming the whole registry
// when name does not resolve (the empty name resolves to DefaultName), so a
// typo'd -predictor flag tells the user what would have worked. It is the
// single validation every layer (replay config, pmpi layer, harness, CLI)
// shares.
func CheckRegistered(name string) error { return factories.Check(name) }

// NewNamed builds a per-rank instance of the named predictor; the empty name
// selects DefaultName.
func NewNamed(name string, cfg Config) (Predictor, error) {
	f, err := factories.Get(name)
	if err != nil {
		return nil, err
	}
	return f(cfg)
}

// ForRank builds rank r's instance of the named predictor for src and, when
// it is a primer, primes it with the rank's call stream. Only the primers
// pay O(calls) memory for lookahead; every other predictor leaves the rank
// streaming at O(window). A decode failure names the app and rank.
func ForRank(name string, cfg Config, src trace.Source, r int) (Predictor, error) {
	p, err := NewNamed(name, cfg)
	if err != nil {
		return nil, err
	}
	if pr, ok := p.(primer); ok {
		calls, tail, err := trace.Calls(nil, src.Open(r))
		if err != nil {
			return nil, rankErr(src, r, err)
		}
		pr.prime(calls, tail)
	}
	return p, nil
}

// rankErr names the app and rank in a failure to decode rank r of src.
func rankErr(src trace.Source, r int, err error) error {
	return fmt.Errorf("%s rank %d: %w", src.Meta().App, r, err)
}

func init() {
	Register(DefaultName, func(cfg Config) (Predictor, error) { return New(cfg) })
}
