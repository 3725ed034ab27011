// Package ilp implements a 0/1 and general-integer linear programming
// solver by best-first branch & bound over the LP relaxation provided by
// package lp.
//
// It also provides a weighted exact-cover (set-partitioning) front end with
// problem-specific reductions — unit propagation, column dominance, a
// greedy incumbent and reduced-cost root tightening — because that is exactly the ILP the paper's MBR
// composition step solves (§3.1: minimize Σ wᵢxᵢ subject to each register
// being covered by exactly one selected candidate).
//
// Concurrency: the package holds no package-level mutable state. Every
// solve allocates its own tableau and branch-and-bound heap, and inputs
// (objective, columns) are copied, not retained. Distinct solves may run
// concurrently from multiple goroutines — the per-partition composition
// pipeline in internal/core relies on this. A single Problem or solve is
// not itself safe for concurrent mutation.
package ilp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/lp"
)

// Status is the outcome of an ILP solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	NodeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NodeLimit:
		return "node-limit"
	}
	return "unknown"
}

// Solution is the result of an ILP solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Nodes is the number of branch & bound nodes explored.
	Nodes int
}

// Problem is an integer linear program under construction.
type Problem struct {
	sense    lp.Sense
	rel      *lp.Problem
	integer  []bool
	costs    []float64
	origLo   []float64
	origHi   []float64
	maxNodes int

	incumbentX   []float64
	incumbentObj float64
	hasIncumbent bool
}

// SetIncumbent seeds branch & bound with a known feasible solution and its
// objective. The search starts with this bound (tightening pruning) and
// falls back to it if the node limit is reached before anything better is
// found. The caller is responsible for feasibility.
func (p *Problem) SetIncumbent(x []float64, obj float64) {
	p.incumbentX = append([]float64(nil), x...)
	p.incumbentObj = obj
	p.hasIncumbent = true
}

// New returns an empty problem with the given optimization sense.
func New(sense lp.Sense) *Problem {
	return &Problem{sense: sense, rel: lp.New(sense), maxNodes: 2_000_000}
}

// SetNodeLimit bounds the number of branch & bound nodes. Zero or negative
// restores the default.
func (p *Problem) SetNodeLimit(n int) {
	if n <= 0 {
		n = 2_000_000
	}
	p.maxNodes = n
}

// AddVar adds a variable; integer selects integrality. Returns its index.
func (p *Problem) AddVar(lo, hi, cost float64, integer bool, name string) int {
	v := p.rel.AddVar(lo, hi, cost, name)
	p.integer = append(p.integer, integer)
	p.costs = append(p.costs, cost)
	p.origLo = append(p.origLo, lo)
	p.origHi = append(p.origHi, hi)
	return v
}

// AddBinary adds a {0,1} variable with the given cost.
func (p *Problem) AddBinary(cost float64, name string) int {
	return p.AddVar(0, 1, cost, true, name)
}

// AddConstraint adds the row Σ terms (op) rhs.
func (p *Problem) AddConstraint(terms []lp.Term, op lp.Op, rhs float64) {
	p.rel.AddConstraint(terms, op, rhs)
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.integer) }

const intTol = 1e-6

// node is one branch & bound subproblem: a set of tightened variable bounds
// layered over the original relaxation, ordered by its LP bound.
type node struct {
	bound  float64 // LP relaxation objective (in minimize orientation)
	seq    int     // creation order, the bound tie-break
	lo, hi []float64
	depth  int
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }

// Less orders by (bound, creation seq). The seq tie-break makes the pop
// order a total order over nodes, so the explored sequence — and therefore
// the returned solution among equal-objective optima — does not depend on
// heap-internal array layout, so equal inputs always return the same
// optimum among ties.
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve runs best-first branch & bound and returns the best integer
// solution found.
func (p *Problem) Solve() (*Solution, error) {
	if p.NumVars() == 0 {
		return nil, errors.New("ilp: problem has no variables")
	}
	// minimize orientation: flip sign of objective for maximization when
	// comparing bounds.
	dir := 1.0
	if p.sense == lp.Maximize {
		dir = -1.0
	}

	applyBounds := func(lo, hi []float64) {
		for v := range lo {
			p.rel.SetBounds(v, lo[v], hi[v])
		}
	}
	restore := func() { applyBounds(p.origLo, p.origHi) }
	defer restore()

	// With an all-integral objective over all-integer variables, every
	// feasible objective is integral, so a fractional LP bound can be
	// rounded up before pruning — on degenerate instances (e.g. unit-cost
	// set partitioning) this collapses the search as soon as the incumbent
	// matches the rounded root bound.
	integralObj := true
	for v, c := range p.costs {
		if !p.integer[v] && c != 0 {
			integralObj = false
			break
		}
		if c != math.Trunc(c) {
			integralObj = false
			break
		}
	}
	tightenBound := func(b float64) float64 {
		if integralObj {
			return math.Ceil(b - 1e-6)
		}
		return b
	}

	root := &node{
		lo: append([]float64(nil), p.origLo...),
		hi: append([]float64(nil), p.origHi...),
	}
	applyBounds(root.lo, root.hi)
	rootSol, err := p.rel.Solve()
	if err != nil {
		return nil, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		return &Solution{Status: Infeasible, Nodes: 1}, nil
	case lp.Unbounded:
		return &Solution{Status: Unbounded, Nodes: 1}, nil
	case lp.IterLimit:
		return nil, errors.New("ilp: LP iteration limit at root")
	}
	root.bound = tightenBound(dir * rootSol.Objective)

	var (
		bestX   []float64
		bestObj = math.Inf(1) // minimize orientation
		nodes   = 0
	)
	if p.hasIncumbent {
		bestX = append([]float64(nil), p.incumbentX...)
		bestObj = dir * p.incumbentObj
	}
	consider := func(x []float64, obj float64) {
		if obj < bestObj-1e-9 {
			bestObj = obj
			bestX = append([]float64(nil), x...)
		}
	}
	if v, ok := p.integral(rootSol.X); ok {
		consider(v, dir*rootSol.Objective)
	}

	h := &nodeHeap{root}
	heap.Init(h)
	seq := 0
	for h.Len() > 0 {
		if nodes >= p.maxNodes {
			if bestX == nil {
				return &Solution{Status: NodeLimit, Nodes: nodes}, nil
			}
			return p.finish(bestX, bestObj, dir, NodeLimit, nodes), nil
		}
		nd := heap.Pop(h).(*node)
		if nd.bound >= bestObj-1e-9 {
			continue // pruned by bound
		}
		nodes++
		applyBounds(nd.lo, nd.hi)
		sol, err := p.rel.Solve()
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			continue
		}
		bound := tightenBound(dir * sol.Objective)
		if bound >= bestObj-1e-9 {
			continue
		}
		if x, ok := p.integral(sol.X); ok {
			consider(x, bound)
			continue
		}
		// Branch on the most fractional integer variable.
		bv, frac := -1, 0.0
		for v, isInt := range p.integer {
			if !isInt {
				continue
			}
			f := sol.X[v] - math.Floor(sol.X[v])
			d := math.Min(f, 1-f)
			if d > intTol && d > frac {
				frac = d
				bv = v
			}
		}
		if bv == -1 {
			// Numerically integral after rounding.
			if x, ok := p.integral(sol.X); ok {
				consider(x, bound)
			}
			continue
		}
		floorV := math.Floor(sol.X[bv])
		// Down child: x ≤ floor.
		seq++
		down := &node{bound: bound, seq: seq, depth: nd.depth + 1,
			lo: append([]float64(nil), nd.lo...),
			hi: append([]float64(nil), nd.hi...)}
		down.hi[bv] = floorV
		if down.lo[bv] <= down.hi[bv] {
			heap.Push(h, down)
		}
		// Up child: x ≥ floor+1.
		seq++
		up := &node{bound: bound, seq: seq, depth: nd.depth + 1,
			lo: append([]float64(nil), nd.lo...),
			hi: append([]float64(nil), nd.hi...)}
		up.lo[bv] = floorV + 1
		if up.lo[bv] <= up.hi[bv] {
			heap.Push(h, up)
		}
	}
	if bestX == nil {
		return &Solution{Status: Infeasible, Nodes: nodes}, nil
	}
	return p.finish(bestX, bestObj, dir, Optimal, nodes), nil
}

func (p *Problem) finish(x []float64, obj, dir float64, st Status, nodes int) *Solution {
	return &Solution{Status: st, Objective: dir * obj, X: x, Nodes: nodes}
}

// integral rounds near-integer values and reports whether every integer
// variable is integral within tolerance.
func (p *Problem) integral(x []float64) ([]float64, bool) {
	out := append([]float64(nil), x...)
	for v, isInt := range p.integer {
		if !isInt {
			continue
		}
		r := math.Round(out[v])
		if math.Abs(out[v]-r) > intTol {
			return nil, false
		}
		out[v] = r
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Weighted exact cover (set partitioning)
// ---------------------------------------------------------------------------

// CoverSet is one column of a set-partitioning instance.
type CoverSet struct {
	// Members are element indices in [0, NumElems).
	Members []int
	// Weight is the column's cost; must be finite and non-negative.
	// Columns the model wants to forbid (the paper's wᵢ = ∞) should simply
	// not be added.
	Weight float64
}

// CoverInstance is a weighted exact-cover problem: choose a subset of Sets
// with minimum total weight such that every element in [0, NumElems) is in
// exactly one chosen set.
type CoverInstance struct {
	NumElems int
	Sets     []CoverSet
	// NodeLimit caps the branch & bound nodes (0 = default). When the
	// limit stops the search, the best cover found so far is returned with
	// Exact=false in the result; highly degenerate instances (many equal
	// weights) would otherwise branch combinatorially for no QoR gain.
	NodeLimit int
}

// CoverResult reports the chosen columns of a cover solve.
type CoverResult struct {
	// Chosen holds indices into CoverInstance.Sets.
	Chosen    []int
	Objective float64
	Nodes     int
	// Reduced counts columns removed by preprocessing.
	Reduced int
	// TightenPruned counts columns removed at the root by reduced-cost
	// fixing: against surrogate duals y_e = min_{S∋e} w_S/|S| (dual
	// feasible for the covering relaxation) a column whose reduced cost
	// exceeds the greedy-UB optimality gap appears in no optimal cover.
	TightenPruned int
	// Exact is false when the node limit stopped the search and Chosen is
	// the best incumbent rather than a proven optimum.
	Exact bool
}

// ErrCoverInfeasible is returned when no exact cover exists.
var ErrCoverInfeasible = errors.New("ilp: exact cover infeasible")

// SolveCover solves the weighted exact-cover instance to optimality.
//
// Preprocessing before branch & bound:
//   - validation (member indices in range, weights finite and ≥ 0);
//   - forced columns: an element covered by exactly one column forces that
//     column, which in turn deletes every column clashing with it;
//   - dominance: among columns with an identical member set only the
//     cheapest is kept.
func SolveCover(inst CoverInstance) (*CoverResult, error) {
	if inst.NumElems < 0 {
		return nil, errors.New("ilp: negative NumElems")
	}
	for si, s := range inst.Sets {
		if len(s.Members) == 0 {
			return nil, fmt.Errorf("ilp: cover set %d is empty", si)
		}
		if math.IsInf(s.Weight, 0) || math.IsNaN(s.Weight) || s.Weight < 0 {
			return nil, fmt.Errorf("ilp: cover set %d has invalid weight %v", si, s.Weight)
		}
		seen := map[int]bool{}
		for _, m := range s.Members {
			if m < 0 || m >= inst.NumElems {
				return nil, fmt.Errorf("ilp: cover set %d member %d out of range", si, m)
			}
			if seen[m] {
				return nil, fmt.Errorf("ilp: cover set %d repeats member %d", si, m)
			}
			seen[m] = true
		}
	}
	if inst.NumElems == 0 {
		return &CoverResult{}, nil
	}

	alive := make([]bool, len(inst.Sets))
	for i := range alive {
		alive[i] = true
	}
	reduced := 0

	// Dominance: identical member sets keep only the cheapest column.
	bySig := map[string]int{}
	for i, s := range inst.Sets {
		sig := memberSig(s.Members)
		if j, ok := bySig[sig]; ok {
			if s.Weight < inst.Sets[j].Weight {
				alive[j] = false
				bySig[sig] = i
			} else {
				alive[i] = false
			}
			reduced++
		} else {
			bySig[sig] = i
		}
	}

	covered := make([]bool, inst.NumElems)
	var forced []int
	// Iterate forcing to a fixed point.
	for {
		coverers := make([][]int, inst.NumElems)
		for i, s := range inst.Sets {
			if !alive[i] {
				continue
			}
			for _, m := range s.Members {
				if !covered[m] {
					coverers[m] = append(coverers[m], i)
				}
			}
		}
		progressed := false
		for e := 0; e < inst.NumElems; e++ {
			if covered[e] {
				continue
			}
			switch len(coverers[e]) {
			case 0:
				return nil, ErrCoverInfeasible
			case 1:
				ci := coverers[e][0]
				forced = append(forced, ci)
				for _, m := range inst.Sets[ci].Members {
					if covered[m] {
						return nil, ErrCoverInfeasible
					}
					covered[m] = true
				}
				alive[ci] = false
				// Delete clashing columns.
				for i, s := range inst.Sets {
					if !alive[i] {
						continue
					}
					for _, m := range s.Members {
						if covered[m] {
							alive[i] = false
							reduced++
							break
						}
					}
				}
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}

	// Remaining elements and columns go to the ILP.
	var remElems []int
	elemIdx := make([]int, inst.NumElems)
	for e := 0; e < inst.NumElems; e++ {
		elemIdx[e] = -1
		if !covered[e] {
			elemIdx[e] = len(remElems)
			remElems = append(remElems, e)
		}
	}
	objForced := 0.0
	for _, ci := range forced {
		objForced += inst.Sets[ci].Weight
	}
	if len(remElems) == 0 {
		sort.Ints(forced)
		return &CoverResult{Chosen: forced, Objective: objForced, Reduced: reduced, Exact: true}, nil
	}

	var cols []int // column index in inst.Sets per ILP var
	for i := range inst.Sets {
		if alive[i] {
			cols = append(cols, i)
		}
	}

	// Greedy incumbent (most cost-effective set first): guarantees a
	// returnable solution even if the node limit stops the search early,
	// its bound prunes from node one, and it is the upper bound for the
	// reduced-cost root tightening below.
	greedyX, greedyObj, hasGreedy := greedyCover(inst, cols, covered)

	// Root bound tightening: y_e = min_{S∋e} w_S/|S| is dual feasible for
	// the covering relaxation (every column prices out non-negatively), so
	// L = Σ y_e lower-bounds any exact cover and a column with reduced cost
	// rc_j = w_j − Σ_{e∈j} y_e has obj ≥ L + rc_j in every cover using it.
	// With the greedy UB, rc_j > UB − L (+tol) proves j is in no optimal
	// cover — not even a tied one — so dropping it cannot change the
	// canonical selection. Greedy columns never satisfy the cut (their
	// complement prices ≥ the leftover duals), so the incumbent survives;
	// singletons are kept regardless as the feasibility backstop.
	tightPruned := 0
	if hasGreedy {
		y := make([]float64, len(remElems))
		for k := range y {
			y[k] = math.Inf(1)
		}
		for _, ci := range cols {
			s := inst.Sets[ci]
			rate := s.Weight / float64(len(s.Members))
			for _, m := range s.Members {
				if k := elemIdx[m]; rate < y[k] {
					y[k] = rate
				}
			}
		}
		lower := 0.0
		for _, v := range y {
			lower += v
		}
		slack := greedyObj - lower
		keptCols := cols[:0]
		keptX := greedyX[:0]
		for vi, ci := range cols {
			s := inst.Sets[ci]
			if len(s.Members) > 1 && greedyX[vi] != 1 {
				rc := s.Weight
				for _, m := range s.Members {
					rc -= y[elemIdx[m]]
				}
				if rc > slack+1e-9 {
					tightPruned++
					continue
				}
			}
			keptCols = append(keptCols, ci)
			keptX = append(keptX, greedyX[vi])
		}
		cols = keptCols
		greedyX = keptX
	}

	prob := New(lp.Minimize)
	if inst.NodeLimit > 0 {
		prob.SetNodeLimit(inst.NodeLimit)
	} else {
		// Default budget scales inversely with LP size, so a node costs
		// roughly constant total work regardless of column count.
		lim := 300_000 / (len(inst.Sets) + 1)
		if lim < 100 {
			lim = 100
		}
		if lim > 50_000 {
			lim = 50_000
		}
		prob.SetNodeLimit(lim)
	}
	for _, ci := range cols {
		prob.AddBinary(inst.Sets[ci].Weight, "")
	}
	for _, e := range remElems {
		var terms []lp.Term
		for vi, ci := range cols {
			for _, m := range inst.Sets[ci].Members {
				if m == e {
					terms = append(terms, lp.Term{Var: vi, Coef: 1})
				}
			}
		}
		prob.AddConstraint(terms, lp.EQ, 1)
	}
	if hasGreedy {
		prob.SetIncumbent(greedyX, greedyObj)
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status == Infeasible {
		return nil, ErrCoverInfeasible
	}
	switch sol.Status {
	case Optimal:
	case NodeLimit:
		if sol.X == nil {
			return nil, fmt.Errorf("ilp: cover node limit reached with no incumbent")
		}
	default:
		return nil, fmt.Errorf("ilp: cover solve ended with status %v", sol.Status)
	}
	chosen := append([]int(nil), forced...)
	for vi, ci := range cols {
		if sol.X[vi] > 0.5 {
			chosen = append(chosen, ci)
		}
	}
	sort.Ints(chosen)
	return &CoverResult{
		Chosen:        chosen,
		Objective:     objForced + sol.Objective,
		Nodes:         sol.Nodes,
		Reduced:       reduced,
		TightenPruned: tightPruned,
		Exact:         sol.Status == Optimal,
	}, nil
}

// greedyCover builds a feasible exact cover over the reduced instance
// (columns `cols`, elements not yet covered), trying several orderings
// (cheapest weight-per-member, largest-first, cheapest-first) and keeping
// the best. Returns the solution as an ILP variable assignment plus its
// objective; ok=false when every ordering gets stuck (possible without
// singleton sets).
func greedyCover(inst CoverInstance, cols []int, already []bool) ([]float64, float64, bool) {
	run := func(less func(a, b int) bool) ([]float64, float64, bool) {
		order := make([]int, len(cols))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			if less(order[a], order[b]) {
				return true
			}
			if less(order[b], order[a]) {
				return false
			}
			return order[a] < order[b]
		})
		covered := append([]bool(nil), already...)
		x := make([]float64, len(cols))
		obj := 0.0
		remaining := 0
		for _, c := range covered {
			if !c {
				remaining++
			}
		}
		for _, vi := range order {
			if remaining == 0 {
				break
			}
			s := inst.Sets[cols[vi]]
			ok := true
			for _, m := range s.Members {
				if covered[m] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, m := range s.Members {
				covered[m] = true
			}
			remaining -= len(s.Members)
			x[vi] = 1
			obj += s.Weight
		}
		return x, obj, remaining == 0
	}
	set := func(vi int) CoverSet { return inst.Sets[cols[vi]] }
	strategies := []func(a, b int) bool{
		func(a, b int) bool { // cheapest per member
			return set(a).Weight/float64(len(set(a).Members)) < set(b).Weight/float64(len(set(b).Members))
		},
		func(a, b int) bool { // largest first
			return len(set(a).Members) > len(set(b).Members)
		},
		func(a, b int) bool { // cheapest first
			return set(a).Weight < set(b).Weight
		},
	}
	var bestX []float64
	bestObj := math.Inf(1)
	for _, less := range strategies {
		if x, obj, ok := run(less); ok && obj < bestObj {
			bestX, bestObj = x, obj
		}
	}
	return bestX, bestObj, bestX != nil
}

func memberSig(members []int) string {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	buf := make([]byte, 0, len(ms)*4)
	for _, m := range ms {
		buf = append(buf, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return string(buf)
}
