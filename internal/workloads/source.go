package workloads

import (
	"fmt"

	"ibpower/internal/trace"
)

// genSource streams a generated workload without ever materializing the full
// trace: each Open encodes just the requested rank into a buffer of the
// structure-only pass's bound, through the same per-rank path as Generate,
// so the streamed ops are bit-identical to the corresponding rank of
// Generate's trace — at the cost of re-running the generator's structure
// loop per rank. That trade is right when ranks are
// consumed one at a time (packing a trace file, offline grouping-threshold
// runs); consumers that replay all ranks concurrently keep using Generate.
type genSource struct {
	app string
	// b has run the structure-only pass; each Open builds its rank on a
	// copy, which shares the read-only structure draws.
	b builder
}

// NewSource returns a streaming trace.Source for a registered application:
// O(one rank) memory per open cursor instead of O(trace).
func NewSource(app string, np int, opt Options) (trace.Source, error) {
	m, err := lookup(app, np)
	if err != nil {
		return nil, err
	}
	s := &genSource{app: app, b: builder{m: m, np: np, opt: opt}}
	s.b.length()
	return s, nil
}

func (s *genSource) Meta() trace.Meta { return trace.Meta{App: s.app, NP: s.b.np} }

func (s *genSource) Open(r int) trace.Cursor {
	if r < 0 || r >= s.b.np {
		panic(fmt.Sprintf("workloads: rank %d out of range [0, %d)", r, s.b.np))
	}
	b := s.b
	k := b.rank(r, make([]byte, 0, b.size))
	return k.Open()
}
