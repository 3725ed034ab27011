package core

import (
	"runtime"

	"repro/internal/compat"
	"repro/internal/ilp"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// The per-partition stages of composition — Bron–Kerbosch sub-clique
// enumeration, candidate scoring, the per-subgraph set-partitioning ILP and
// the §4.1 mapping and §4.2 placement LP of each selected MBR — are
// independent by construction: partitioning (§3) decomposes the
// compatibility graph into disjoint node sets, and every input the stages
// read (the design database, the library, the compatibility graph, the scan
// plan, the register index) is only read while they run. Only the commit
// phase mutates the design, and it stays sequential.
//
// A shard places its MBRs against the design as it stood before any
// commit. The commit maps each candidate again on the current design —
// cell, merge order and LP inputs, the cheap part — and reuses the shard's
// position only when those inputs compare equal; otherwise it solves the
// LP itself (an earlier merge moved a pin on one of the MBR's nets, say
// through a shared Q→D or enable net). The LP is a pure function of its
// inputs, so every position equals the one a fully sequential commit
// would solve.
//
// composeRound exploits that at exactly one level: subgraphs are sharded
// across a bounded worker pool (at most one worker per subgraph) by the
// cost-ordered scheduler (scheduler.go), each shard runs its whole
// pipeline on the worker that claimed it and writes only its own
// index-addressed result slot, and the results are merged by an ordered
// reduce — every accumulation (candidate counts, branch & bound nodes, the
// floating-point objective sum, the selected candidate list) happens in
// subgraph index order. Together with the deterministic commit order this
// makes the composition result byte-identical for any worker count and any
// goroutine schedule.
//
// The §3 bound keeps each subgraph small, so the parallelism worth having
// is across subgraphs, of which every real decomposition has hundreds or
// more; nothing inside a shard starts a goroutine.

// subgraphResult is the outcome of the per-partition pipeline on one
// subgraph, before the ordered reduce.
type subgraphResult struct {
	// picked are the selected multi-member candidates (singleton "keep"
	// decisions are dropped), each carrying its shard placement.
	picked []candidate
	// objective is the subgraph's selection objective (ILP or greedy).
	objective float64
	// ilpNodes is the branch & bound node count (0 for greedy).
	ilpNodes int
	// closedForm counts the shard's placements solved in closed form.
	closedForm int
	// candidates is the enumerated candidate count, singletons included.
	candidates int
	// truncated reports that candidate enumeration hit its cap.
	truncated bool
}

// resolveWorkers maps the Options.Workers convention to a concrete worker
// count: 0 (or negative) means one worker per available CPU, anything else
// is taken literally.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// solveSubgraph runs the full per-partition pipeline on one subgraph:
// enumeration, scoring, selection, then mapping and placement of each
// selected MBR. It only reads shared state and is safe to call
// concurrently for disjoint subgraphs.
func solveSubgraph(
	d *netlist.Design,
	g *compat.Graph,
	plan *scan.Plan,
	ri *regIndex,
	nodes []int,
	opts Options,
) (subgraphResult, error) {
	var sr subgraphResult
	cands, truncated, err := enumerateCandidates(d, g, ri, nodes, opts)
	if err != nil {
		return sr, err
	}
	sr.truncated = truncated
	sr.candidates = len(cands)

	var picked []candidate
	switch opts.Method {
	case MethodGreedy:
		picked, sr.objective = selectGreedy(g, nodes, cands)
	default:
		var cr *ilp.CoverResult
		picked, cr, err = selectILP(nodes, cands, opts)
		if err != nil {
			return sr, err
		}
		sr.objective = cr.Objective
		sr.ilpNodes = cr.Nodes
	}
	for _, c := range picked {
		if len(c.nodes) > 1 {
			var closed bool
			c.placed, closed = preplace(d, g, plan, c)
			if closed {
				sr.closedForm++
			}
			sr.picked = append(sr.picked, c)
		}
	}
	return sr, nil
}
