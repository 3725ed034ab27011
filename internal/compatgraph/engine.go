// Package compatgraph is an adapter: it gives compat.BuildN the
// engine-shaped API that benchmark/measure.go drives, and nothing else
// imports it. It goes with ROADMAP item 7: once the benchmark calls
// compat.Build directly, the package is deleted.
package compatgraph

import (
	"repro/internal/compat"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

// Options are the build's rules and worker count. MaxDeltaFrac is ignored.
type Options struct {
	Compat       compat.Options
	Workers      int
	MaxDeltaFrac float64
}

// Stats reports the last Update's pair tests (compat.Stats.PairsTested).
type Stats struct {
	LastPairsTested int
}

// Engine builds the compatibility graph of one design at each Update.
type Engine struct {
	d     *netlist.Design
	plan  *scan.Plan
	opts  Options
	graph *compat.Graph
}

// New creates an adapter over a design and scan plan (plan may be nil).
func New(d *netlist.Design, plan *scan.Plan, opts Options) *Engine {
	return &Engine{d: d, plan: plan, opts: opts}
}

// SetTimingFeed is a no-op.
func (e *Engine) SetTimingFeed(*sta.Engine) {}

// Update returns compat.BuildN's graph of the design under slacks.
func (e *Engine) Update(slacks sta.SlackSource) *compat.Graph {
	e.graph = compat.BuildN(e.d, slacks, e.plan, e.opts.Compat, e.opts.Workers)
	return e.graph
}

// Stats returns the last Update's counters (zero before the first one).
func (e *Engine) Stats() Stats {
	if e.graph == nil {
		return Stats{}
	}
	return Stats{LastPairsTested: e.graph.Stats().PairsTested}
}
