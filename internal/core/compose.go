package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/clique"
	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/ilp"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/place"
	"repro/internal/scan"
)

// Compose runs MBR composition on the design. g must be a freshly built
// compatibility graph for the design's current state (compat.Build); plan
// may be nil for unscanned designs. The design, and the plan when present,
// are modified in place.
func Compose(d *netlist.Design, g *compat.Graph, plan *scan.Plan, opts Options) (*Result, error) {
	start := time.Now()
	opts, subgraphs, err := decompose(g, opts)
	if err != nil {
		return nil, err
	}
	res, err := composeRound(d, g, plan, subgraphs, opts)
	if err != nil {
		return nil, err
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// NormalizeOptions applies the defaulting every composition entry point
// (Compose, InspectCandidates) shares, so both see identical values for
// the same Options. Normalizing twice changes nothing.
func NormalizeOptions(opts Options) Options {
	if opts.MaxSubgraphNodes <= 0 {
		opts.MaxSubgraphNodes = defaultMaxSubgraphNodes
	}
	if opts.NamePrefix == "" {
		opts.NamePrefix = defaultNamePrefix
	}
	return opts
}

// maxCandidates is the clique-enumeration cap per subgraph. Without the
// §3.2 weights nothing prunes the candidate columns, and a unit-cost set
// partitioning is maximally degenerate for branch & bound; the unweighted
// ablation stays tractable with a tighter cap.
func maxCandidates(useWeights bool) int {
	if !useWeights {
		return 1500
	}
	return 6000
}

// decompose is the preamble every composition entry point shares: it
// normalizes opts and splits g into the §3 subgraphs (partition.Decompose
// over the clock-pin positions). It rejects a subgraph bound the clique
// enumeration cannot hold: its bitmask graphs have at most clique.MaxNodes
// nodes, and a larger partition would otherwise fail deep inside a shard
// worker.
func decompose(g *compat.Graph, opts Options) (Options, [][]int, error) {
	opts = NormalizeOptions(opts)
	if opts.MaxSubgraphNodes > clique.MaxNodes {
		return opts, nil, fmt.Errorf("core: Options.MaxSubgraphNodes = %d: must be <= %d (clique.MaxNodes)", opts.MaxSubgraphNodes, clique.MaxNodes)
	}
	return opts, partition.Decompose(len(g.Regs), g.Adj,
		func(n int) geom.Point { return g.Regs[n].ClockPos }, opts.MaxSubgraphNodes), nil
}

// composeRound is the composition pipeline. It solves each subgraph
// (enumeration → §3.2 weights → selection → §4.1 mapping and §4.2
// placement of the picks) on the cost-ordered shard
// scheduler, folds the outcomes into a Result by the ordered reduce and
// commits the selection. Errors are reported by the lowest-index failing
// subgraph. Runtime is left to the caller.
func composeRound(
	d *netlist.Design,
	g *compat.Graph,
	plan *scan.Plan,
	subgraphs [][]int,
	opts Options,
) (*Result, error) {
	res := &Result{
		RegsBefore:     len(d.Registers()),
		ComposableRegs: len(g.Regs),
		Subgraphs:      len(subgraphs),
		Workers:        resolveWorkers(opts.Workers),
		PeakLiveShards: len(subgraphs),
	}
	workers := res.Workers
	if workers > len(subgraphs) {
		workers = len(subgraphs)
	}
	ri := newRegIndex(d)
	results := make([]subgraphResult, len(subgraphs))
	errs := make([]error, len(subgraphs))
	runSharded(estimateShardCosts(g, subgraphs), workers, func(i int) {
		results[i], errs[i] = solveSubgraph(d, g, plan, ri, subgraphs[i], opts)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := commitSelected(d, g, plan, reduceResults(results, res), opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// reduceResults folds per-subgraph outcomes into res in subgraph index
// order and returns the concatenated selections — the ordered reduce that
// keeps counts, the floating-point objective sum and the selected list
// identical for any worker count.
func reduceResults(subResults []subgraphResult, res *Result) []candidate {
	var selected []candidate
	for _, sr := range subResults {
		if sr.truncated {
			res.TruncatedSubgraphs++
		}
		res.Candidates += sr.candidates
		res.ILPNodes += sr.ilpNodes
		res.ClosedFormPlacements += sr.closedForm
		res.ObjectiveSum += sr.objective
		selected = append(selected, sr.picked...)
	}
	return selected
}

// commitSelected is the sequential mutation phase: it orders the selected
// candidates deterministically (by first member's instance ID), commits
// each merge at the position its shard solved (or re-solves it, see
// commit), and legalizes the new MBRs incrementally. Everything before
// this point only reads the design.
func commitSelected(
	d *netlist.Design,
	g *compat.Graph,
	plan *scan.Plan,
	selected []candidate,
	opts Options,
	res *Result,
) error {
	sort.Slice(selected, func(i, j int) bool {
		return regOf(g, selected[i].nodes[0]).ID < regOf(g, selected[j].nodes[0]).ID
	})

	var newInsts []*netlist.Inst
	for idx, c := range selected {
		m, err := commit(d, g, plan, c, fmt.Sprintf("%s_%d", opts.NamePrefix, idx), opts.ReleaseClocks, res)
		if err != nil {
			return err
		}
		res.MBRs = append(res.MBRs, *m)
		if m.Incomplete {
			res.IncompleteMBRs++
		}
		newInsts = append(newInsts, m.Inst)
	}

	lr := place.LegalizeIncremental(d, newInsts)
	res.LegalizationMoved = lr.Moved
	res.LegalizationFailed = len(lr.Failed)
	res.RegsAfter = len(d.Registers())
	return nil
}

// weightPruneTol is the shared tolerance for the "costlier than keeping the
// members separate" candidate cut. Both selection paths must price the
// boundary identically — the ILP path historically dropped at
// weight ≥ members − 1e-12 while the greedy path dropped at
// weight ≥ members, so a candidate sitting within the tolerance of the
// boundary was kept by one and cut by the other.
const weightPruneTol = 1e-12

// overWeighted reports that a multi-member candidate prices at (within
// tolerance) or above the cost of keeping its members as singletons, so it
// can never be in an optimal cover: every register has its keep-as-is
// singleton at cost 1, making the all-singleton replacement always feasible
// and at least as cheap.
func overWeighted(weight float64, members int) bool {
	return weight >= float64(members)-weightPruneTol
}

// selectILP solves the subgraph's weighted set-partitioning ILP (§3.1) and
// returns the chosen candidates.
//
// Column pruning: a candidate whose weight is at least its member count can
// never be in an optimal cover (see overWeighted). With the §3.2 weights
// this removes every blocked candidate (b·2ⁿ ≥ 2b ≥ 2·members), typically
// shrinking the LP by an order of magnitude without changing the optimum.
func selectILP(nodes []int, cands []candidate, opts Options) ([]candidate, *ilp.CoverResult, error) {
	local := map[int]int{}
	for i, n := range nodes {
		local[n] = i
	}
	inst := ilp.CoverInstance{NumElems: len(nodes), NodeLimit: opts.ILPNodeLimit}
	var kept []int
	for ci, c := range cands {
		if len(c.nodes) > 1 && overWeighted(c.weight, len(c.nodes)) {
			continue
		}
		ms := make([]int, len(c.nodes))
		for i, n := range c.nodes {
			ms[i] = local[n]
		}
		inst.Sets = append(inst.Sets, ilp.CoverSet{Members: ms, Weight: c.weight})
		kept = append(kept, ci)
	}
	cr, err := ilp.SolveCover(inst)
	if err != nil {
		return nil, nil, fmt.Errorf("core: subgraph ILP: %w", err)
	}
	out := make([]candidate, 0, len(cr.Chosen))
	for _, ci := range cr.Chosen {
		out = append(out, cands[kept[ci]])
	}
	return out, cr, nil
}

// selectGreedy is the Fig. 6 baseline: the same methodology with the ILP
// selection replaced by a greedy mapping heuristic, in the spirit of Wang
// et al. [8] and Lin et al. [12]. It works over the same physically valid
// candidate set the ILP sees, but filters out the candidates the weights
// price above keeping the registers separate (a heuristic flow would not
// commit merges that its own cost model rejects), then repeatedly maps the
// largest remaining candidate whose members are all still free.
//
// Largest-first commitment is path-dependent: one misaligned grab strands
// its neighbours into odd-sized remainders that no library width covers —
// the fragmentation the exact cover avoids, and the source of the ~12%
// register-count gap of Fig. 6.
func selectGreedy(g *compat.Graph, nodes []int, cands []candidate) ([]candidate, float64) {
	order := make([]int, 0, len(cands))
	for i, c := range cands {
		if len(c.nodes) < 2 {
			continue
		}
		if overWeighted(c.weight, len(c.nodes)) {
			continue // costlier than keeping the members separate
		}
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := cands[order[a]], cands[order[b]]
		if ca.totalBits != cb.totalBits {
			return ca.totalBits > cb.totalBits
		}
		if len(ca.nodes) != len(cb.nodes) {
			return len(ca.nodes) > len(cb.nodes)
		}
		return lessNodes(ca.nodes, cb.nodes)
	})

	assigned := map[int]bool{}
	var out []candidate
	var obj float64
	for _, oi := range order {
		c := cands[oi]
		free := true
		for _, n := range c.nodes {
			if assigned[n] {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for _, n := range c.nodes {
			assigned[n] = true
		}
		out = append(out, c)
		obj += c.weight
	}
	for _, n := range nodes {
		if !assigned[n] {
			out = append(out, candidate{
				nodes: []int{n}, totalBits: regOf(g, n).Bits(),
				width: regOf(g, n).Bits(), weight: 1,
			})
			obj++
		}
	}
	return out, obj
}

func lessNodes(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// mbrMapping is one selected candidate's §4.1 cell, merge order and §4.2
// LP inputs, as read from the design and plan at the time of the call.
type mbrMapping struct {
	cell    *lib.Cell
	ordered []*netlist.Inst
	place   placeInputs
}

// mapMBR maps a candidate to its library cell by drive resistance (§4.1),
// orders its members for the merge — scan order when scanned, geometric
// order otherwise — and gathers its placement LP's inputs. It only reads
// the design and the plan.
func mapMBR(d *netlist.Design, g *compat.Graph, plan *scan.Plan, c candidate) (mbrMapping, error) {
	insts := make([]*netlist.Inst, len(c.nodes))
	minRes := math.Inf(1)
	for i, n := range c.nodes {
		insts[i] = regOf(g, n)
		if r := insts[i].RegCell.DriveRes; r < minRes {
			minRes = r
		}
	}
	class := insts[0].RegCell.Class
	cell := d.Lib.SelectCell(class, c.width, minRes)
	if cell == nil {
		return mbrMapping{}, fmt.Errorf("core: no %d-bit cell for class %s", c.width, class.Key())
	}

	ordered := insts
	if plan != nil {
		ordered = mergeOrder(d, plan, insts)
	} else {
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].Pos.Y != ordered[j].Pos.Y {
				return ordered[i].Pos.Y < ordered[j].Pos.Y
			}
			return ordered[i].Pos.X < ordered[j].Pos.X
		})
	}
	return mbrMapping{
		cell:    cell,
		ordered: ordered,
		place:   placementInputs(d, g, c.nodes, ordered, cell),
	}, nil
}

// preplace maps a selected candidate and solves its placement LP against
// the design as it stands before any commit, reporting whether the solve
// took the closed form. It returns nil when the candidate cannot be mapped
// or its LP fails; the commit then maps and solves again and reports the
// error.
func preplace(d *netlist.Design, g *compat.Graph, plan *scan.Plan, c candidate) (*placedMBR, bool) {
	m, err := mapMBR(d, g, plan, c)
	if err != nil {
		return nil, false
	}
	pos, closed, err := solvePlacement(d, &m.place)
	if err != nil {
		return nil, false
	}
	return &placedMBR{in: m.place, pos: pos}, closed
}

// commit maps, places and banks one selected candidate. It solves the
// placement LP itself only when it must, counting the solve in res: an
// earlier merge of this commit can move a pin on one of the MBR's nets or
// reorder its scan chain, so the shard's position is reused only when the
// LP inputs read now equal the ones it was solved from.
func commit(
	d *netlist.Design,
	g *compat.Graph,
	plan *scan.Plan,
	c candidate,
	name string,
	release func([]*netlist.Inst),
	res *Result,
) (*ComposedMBR, error) {
	m, err := mapMBR(d, g, plan, c)
	if err != nil {
		return nil, err
	}
	var pos geom.Point
	if c.placed == nil || !c.placed.in.equal(&m.place) {
		var closed bool
		if pos, closed, err = solvePlacement(d, &m.place); err != nil {
			return nil, err
		}
		res.PlacementResolves++
		if closed {
			res.ClosedFormPlacements++
		}
	} else {
		pos = c.placed.pos
	}

	mr, err := Bank(d, plan, release, m.ordered, m.cell, name, pos)
	if err != nil {
		return nil, err
	}
	return &ComposedMBR{
		Inst:       mr.MBR,
		Members:    netlist.IDs(m.ordered),
		Cell:       m.cell,
		Bits:       c.totalBits,
		Incomplete: mr.UnusedBits > 0,
		Pos:        pos,
		Weight:     c.weight,
	}, nil
}
