// Package core implements the paper's contribution: timing-driven
// incremental multi-bit register composition using a placement-aware ILP.
//
// The pipeline (§3–§4):
//
//  1. the compatibility graph (package compat) is decomposed into connected
//     components and clock-position-driven subgraphs of bounded size
//     (package partition);
//  2. per subgraph, every valid sub-clique is enumerated against the MBR
//     library widths, optionally admitting incomplete MBRs under an area
//     rule (package clique);
//  3. each candidate gets the placement-aware weight of §3.2 from the
//     convex hull of its members' corners and the registers blocking it;
//  4. a weighted set-partitioning ILP (package ilp) picks the candidate set
//     covering every register exactly once at minimum total weight;
//  5. each selected MBR is mapped to a library cell by drive resistance and
//     clock-pin capacitance (§4.1), placed by a wirelength-minimizing LP
//     inside the group's common timing-feasible region (§4.2), committed to
//     the netlist, and legalized incrementally.
//
// Steps 2–4 and the mapping and placement of step 5 are independent per
// subgraph and run as one pipeline (composeRound) on a worker pool
// (Options.Workers) that claims subgraphs in descending estimated cost.
// Results are merged by a deterministic ordered reduce, and the commit
// merges in a fixed order, re-solving a placement only where an earlier
// merge changed its inputs, so the outcome is byte-identical for any
// worker count. See parallel.go.
//
// A greedy maximal-clique heuristic (in the spirit of the comparison in
// Fig. 6) is provided as the baseline composer.
package core

import (
	"time"

	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// Method selects the candidate-selection algorithm.
type Method int

// Composition methods.
const (
	// MethodILP is the paper's placement-aware weighted ILP.
	MethodILP Method = iota
	// MethodGreedy is the maximal-clique + mapping heuristic baseline of
	// Fig. 6 (in the spirit of Wang et al. [8] and Lin et al. [12]).
	MethodGreedy
)

func (m Method) String() string {
	if m == MethodGreedy {
		return "greedy"
	}
	return "ilp"
}

// Options configures composition.
type Options struct {
	// Method selects ILP or the greedy baseline.
	Method Method
	// MaxSubgraphNodes bounds each partitioned subgraph (§3; the paper uses
	// 30: smaller loses QoR, larger wastes runtime). Values above
	// clique.MaxNodes are rejected.
	MaxSubgraphNodes int
	// AllowIncomplete admits MBRs with unconnected D/Q pairs (§3).
	AllowIncomplete bool
	// IncompleteAreaOverhead is the flow-level cap on the extra area an
	// incomplete MBR may cost relative to the registers it replaces (§5
	// uses 5% → 0.05).
	IncompleteAreaOverhead float64
	// UseWeights enables the placement-aware weights of §3.2. When false
	// every candidate costs 1 (pure register-count minimization) — the
	// ablation showing why the weights matter for congestion/wirelength.
	UseWeights bool
	// ILPNodeLimit caps branch & bound nodes per subgraph (0 = default).
	ILPNodeLimit int
	// NamePrefix names the created MBR instances (default "mbrc").
	NamePrefix string
	// Workers bounds the worker pool the subgraphs are sharded across; each
	// subgraph's clique enumeration, candidate scoring and ILP solve run on
	// the one worker that claimed it. 0 = one worker per available CPU
	// (runtime.GOMAXPROCS), 1 = a single worker. The result is
	// byte-identical for any value — see parallel.go.
	Workers int
	// ReleaseClocks, when set, is called with each group's member registers
	// immediately before they are merged. The retained clock-tree engine
	// hooks in here to move member clock pins from their current tree leaf
	// nets back to the domain root, so the merge's control-net agreement
	// check sees one common clock net and the MBR lands on the root (the
	// next tree update re-parents it under a leaf).
	ReleaseClocks func(regs []*netlist.Inst)
}

// The values NormalizeOptions gives Options fields left zero; DefaultOptions
// sets them explicitly.
const (
	defaultMaxSubgraphNodes = 30
	defaultNamePrefix       = "mbrc"
)

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Method:                 MethodILP,
		MaxSubgraphNodes:       defaultMaxSubgraphNodes,
		AllowIncomplete:        true,
		IncompleteAreaOverhead: 0.05,
		UseWeights:             true,
		NamePrefix:             defaultNamePrefix,
	}
}

// ComposedMBR describes one committed merge.
type ComposedMBR struct {
	// Inst is the new MBR instance.
	Inst *netlist.Inst
	// Members are the replaced register instance IDs.
	Members []netlist.InstID
	// Cell is the mapped library cell.
	Cell *lib.Cell
	// Bits is the number of connected D/Q pairs.
	Bits int
	// Incomplete reports unconnected D/Q pairs.
	Incomplete bool
	// Pos is the LP-chosen position (before legalization).
	Pos geom.Point
	// Weight is the candidate's ILP weight.
	Weight float64
}

// Result summarizes a composition run.
type Result struct {
	// MBRs are the committed multi-register merges (singleton "keep"
	// decisions are not listed).
	MBRs []ComposedMBR
	// RegsBefore / RegsAfter are design register counts (each MBR counts
	// as one register, as in Table 1).
	RegsBefore, RegsAfter int
	// ComposableRegs is the node count of the compatibility graph.
	ComposableRegs int
	// Subgraphs is the number of ILP subproblems solved.
	Subgraphs int
	// Workers is the resolved worker-pool size the per-partition stages ran
	// with.
	Workers int
	// Candidates is the total number of enumerated valid candidates.
	Candidates int
	// TruncatedSubgraphs counts subgraphs whose enumeration hit the cap.
	TruncatedSubgraphs int
	// ILPNodes is the total branch & bound node count.
	ILPNodes int
	// ObjectiveSum is the summed ILP objective over subgraphs.
	ObjectiveSum float64
	// IncompleteMBRs counts committed MBRs with tied-off bits.
	IncompleteMBRs int
	// Runtime is the wall-clock composition time.
	Runtime time.Duration
	// LegalizationMoved / LegalizationFailed report the incremental
	// legalization outcome for the new MBRs.
	LegalizationMoved  int
	LegalizationFailed int

	// SchedSteals is always 0: the shard scheduler claims from one shared
	// cost-ordered cursor and has no per-worker queues to steal from. It
	// is kept, like PeakLiveShards, only for the repo benchmark's
	// core.sched_steals metric.
	SchedSteals int
	// PlacementResolves counts the MBRs whose §4.2 LP the commit solved
	// again because an earlier merge changed the inputs the shard had
	// solved from; every other MBR takes its shard's position. The
	// positions are the same either way.
	PlacementResolves int
	// ClosedFormPlacements counts the §4.2 solves, shard and commit
	// re-solves alike, that took the LP's closed form instead of the
	// simplex (see solvePlacement). Both give the same position there.
	ClosedFormPlacements int

	// PeakLiveShards is the most shard results held at once. Every shard's
	// result slot lives until the ordered reduce, so it equals Subgraphs;
	// it is kept so per-layer reports (the repo benchmark's
	// core.peak_live_shards) can track the resident shard count should the
	// pipeline ever release results earlier.
	PeakLiveShards int
}

// BitWidthHistogram returns register-instance counts keyed by bit width —
// the Fig. 5 breakdown.
func BitWidthHistogram(d *netlist.Design) map[int]int {
	h := map[int]int{}
	for _, r := range d.Registers() {
		h[r.Bits()]++
	}
	return h
}

// candidate is one enumerated MBR candidate within a subgraph.
type candidate struct {
	// nodes are compatibility-graph node ids (not subgraph-local).
	nodes []int
	// totalBits is the connected bit count.
	totalBits int
	// width is the library width it maps to (≥ totalBits when incomplete).
	width int
	// weight is the §3.2 weight.
	weight float64
	// blockers is n_i, recorded for diagnostics.
	blockers int
	// placed is the §4.2 placement its shard solved for a selected
	// multi-member candidate (nil before selection, or when the shard
	// could not map or place it).
	placed *placedMBR
}

// placedMBR is a shard's §4.2 solve: the LP inputs it read and the
// position they gave.
type placedMBR struct {
	in  placeInputs
	pos geom.Point
}

// regOf is a convenience accessor.
func regOf(g *compat.Graph, node int) *netlist.Inst { return g.Regs[node].Inst }
