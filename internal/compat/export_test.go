package compat

import (
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

// BuildByPairScan builds the graph Build does with an edge phase that runs
// pairTest on every node pair: the oracle the sweep is checked against.
func BuildByPairScan(d *netlist.Design, slacks sta.SlackSource, plan *scan.Plan, opts Options) *Graph {
	g, sigs := buildNodes(d, slacks, plan)
	g.Adj, _ = pairScan(g, opts, sigs)
	return g
}

// pairScan tests every node pair of g and returns the adjacency, rows
// ascending, and the number of pairs that share a functional key.
func pairScan(g *Graph, opts Options, sigs []staticSig) (adj [][]int, sameKey int) {
	allowCross := g.Plan == nil || g.Plan.AllowCrossChain
	adj = make([][]int, len(g.Regs))
	for i := range g.Regs {
		for j := i + 1; j < len(g.Regs); j++ {
			if sigs[i].funcKey == sigs[j].funcKey {
				sameKey++
			}
			if _, ok := pairTest(opts, g.Regs[i], g.Regs[j], sigs[i], sigs[j], allowCross); ok {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj, sameKey
}

// SameKeyPairs counts the node pairs of g sharing a functional key — the
// pairs the sweep tests when every bucket's grid is a single cell.
func SameKeyPairs(d *netlist.Design, g *Graph) int {
	size := map[funcKey]int{}
	for _, r := range g.Regs {
		size[sigOf(d, g.Plan, r.Inst).funcKey]++
	}
	pairs := 0
	for _, m := range size {
		pairs += m * (m - 1) / 2
	}
	return pairs
}

// compatible applies the pairwise edge rule to two nodes of a graph built
// on d under plan and opts.
func compatible(d *netlist.Design, plan *scan.Plan, opts Options, a, b *RegInfo) bool {
	allowCross := plan == nil || plan.AllowCrossChain
	_, ok := pairTest(opts, a, b, sigOf(d, plan, a.Inst), sigOf(d, plan, b.Inst), allowCross)
	return ok
}
