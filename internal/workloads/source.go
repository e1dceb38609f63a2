package workloads

import "ibpower/internal/trace"

// genSource streams a generated workload without ever materializing the full
// trace: each Open re-runs the generator restricted to the requested rank.
// The restriction is exact (see Options.only), so the streamed ops are
// bit-identical to the corresponding rank of Generate's trace — at the cost
// of re-running the generator's structure loop per rank. That trade is right
// when ranks are consumed one at a time (packing a trace file, offline
// grouping-threshold runs); consumers that replay all ranks concurrently
// keep using Generate.
type genSource struct {
	app string
	np  int
	opt Options
	gen Generator
}

// NewSource returns a streaming trace.Source for a registered application:
// O(one rank) memory per open cursor instead of O(trace).
func NewSource(app string, np int, opt Options) (trace.Source, error) {
	g, err := generator(app, np)
	if err != nil {
		return nil, err
	}
	return &genSource{app: app, np: np, opt: opt, gen: g}, nil
}

func (s *genSource) Meta() trace.Meta { return trace.Meta{App: s.app, NP: s.np} }

func (s *genSource) Open(r int) trace.Cursor {
	opt := s.opt
	opt.only = r + 1
	tr := s.gen(s.np, opt)
	return trace.SliceCursor(tr.Ranks[r])
}
