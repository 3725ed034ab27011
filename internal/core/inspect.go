package core

import (
	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/partition"
)

// CandidateInfo is the public view of one enumerated MBR candidate, for
// reporting and debugging tools.
type CandidateInfo struct {
	// Members are the constituent register instance IDs.
	Members []netlist.InstID
	// Bits is the connected bit total; Width the library width it maps to.
	Bits, Width int
	// Blockers is n_i of §3.2.
	Blockers int
	// Weight is w_i of §3.2 (1 for keep-as-is singletons).
	Weight float64
	// Incomplete marks candidates with Width > Bits.
	Incomplete bool
}

// InspectCandidates enumerates the valid candidates of the whole
// compatibility graph (partitioned exactly as Compose would) and returns
// them with their weights. It does not modify the design.
func InspectCandidates(d *netlist.Design, g *compat.Graph, opts Options) ([]CandidateInfo, error) {
	if opts.MaxSubgraphNodes <= 0 {
		opts.MaxSubgraphNodes = 30
	}
	if err := checkSubgraphBound(opts.MaxSubgraphNodes); err != nil {
		return nil, err
	}
	ri := newRegIndex(d)
	subgraphs := partition.Decompose(len(g.Regs), g.Adj,
		func(n int) geom.Point { return g.Regs[n].ClockPos }, opts.MaxSubgraphNodes)
	var out []CandidateInfo
	for _, nodes := range subgraphs {
		cands, _, err := enumerateCandidates(d, g, ri, nodes, opts)
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			ci := CandidateInfo{
				Bits: c.totalBits, Width: c.width,
				Blockers: c.blockers, Weight: c.weight,
				Incomplete: c.width > c.totalBits,
			}
			for _, n := range c.nodes {
				ci.Members = append(ci.Members, regOf(g, n).ID)
			}
			out = append(out, ci)
		}
	}
	return out, nil
}
