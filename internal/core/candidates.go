package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/clique"
	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// regIndex answers "which register centers lie inside this rectangle" from
// a bucket grid over the centers: about √(N/2) cells a side, stored CSR
// style (cell c's entries are start[c]..start[c+1]), entries of a cell in
// design register order, so the iteration order of inBox is a pure
// function of the indexed content. It indexes every live register of the
// design — blocking registers (§3.2) are any registers, composable or not.
type regIndex struct {
	bounds geom.Rect // bounding box of every center
	nx, ny int
	cw, ch int64 // cell width and height, ≥ 1
	start  []int32
	pts    []geom.Point
	ids    []netlist.InstID
}

func newRegIndex(d *netlist.Design) *regIndex {
	regs := d.Registers()
	pts := make([]geom.Point, len(regs))
	ids := make([]netlist.InstID, len(regs))
	for i, r := range regs {
		pts[i], ids[i] = r.Center(), r.ID
	}
	return buildRegIndex(pts, ids)
}

// buildRegIndex indexes the centers pts of the registers ids.
func buildRegIndex(pts []geom.Point, ids []netlist.InstID) *regIndex {
	ri := &regIndex{nx: 1, ny: 1, cw: 1, ch: 1}
	if len(pts) > 0 {
		ri.bounds = geom.BoundingBox(pts)
		side := max(1, int(math.Sqrt(float64(len(pts))/2)))
		ri.nx, ri.ny = side, side
		ri.cw = max(1, ri.bounds.W()/int64(side)+1)
		ri.ch = max(1, ri.bounds.H()/int64(side)+1)
	}
	cellOf := make([]int32, len(pts))
	ri.start = make([]int32, ri.nx*ri.ny+1)
	for i, p := range pts {
		cellOf[i] = int32(ri.cellY(p.Y)*ri.nx + ri.cellX(p.X))
		ri.start[cellOf[i]+1]++
	}
	for c := 1; c < len(ri.start); c++ {
		ri.start[c] += ri.start[c-1]
	}
	ri.pts = make([]geom.Point, len(pts))
	ri.ids = make([]netlist.InstID, len(pts))
	fill := append([]int32(nil), ri.start[:len(ri.start)-1]...)
	for i, c := range cellOf {
		ri.pts[fill[c]], ri.ids[fill[c]] = pts[i], ids[i]
		fill[c]++
	}
	return ri
}

// cellX and cellY map a coordinate to its column or row, clamped to the
// grid so a query box reaching outside the bounds still covers the edge
// cells.
func (ri *regIndex) cellX(x int64) int {
	return int(min(max(x-ri.bounds.Lo.X, 0)/ri.cw, int64(ri.nx-1)))
}

func (ri *regIndex) cellY(y int64) int {
	return int(min(max(y-ri.bounds.Lo.Y, 0)/ri.ch, int64(ri.ny-1)))
}

// inBox calls f for every register center inside bb.
func (ri *regIndex) inBox(bb geom.Rect, f func(id netlist.InstID, p geom.Point)) {
	x0, x1 := ri.cellX(bb.Lo.X), ri.cellX(bb.Hi.X)
	for y := ri.cellY(bb.Lo.Y); y <= ri.cellY(bb.Hi.Y); y++ {
		row := y * ri.nx
		for i := ri.start[row+x0]; i < ri.start[row+x1+1]; i++ {
			if bb.Contains(ri.pts[i]) {
				f(ri.ids[i], ri.pts[i])
			}
		}
	}
}

// blockerCount computes n_i for a candidate: registers (by center) inside
// the convex hull of the members' footprint corners, excluding the members
// themselves.
func blockerCount(g *compat.Graph, ri *regIndex, nodes []int) int {
	corners := make([]geom.Point, 0, 4*len(nodes))
	for _, n := range nodes {
		c := regOf(g, n).Bounds().Corners()
		corners = append(corners, c[:]...)
	}
	hull := geom.ConvexHull(corners)
	bb := geom.BoundingBox(hull)
	count := 0
	ri.inBox(bb, func(id netlist.InstID, p geom.Point) {
		for _, n := range nodes {
			if regOf(g, n).ID == id {
				return
			}
		}
		if geom.PolygonContains(hull, p) {
			count++
		}
	})
	return count
}

// weightOf implements the §3.2 weight:
//
//	w = 1/b        when no register blocks the test polygon,
//	w = b·2ⁿ       when 0 < n < b,
//	(dropped)      when n ≥ b (the paper's w = ∞).
//
// Keep-as-is singletons cost exactly 1 (the "Original" rows of Fig. 3),
// so the objective approximates the final register count while still
// rewarding larger clean merges.
func weightOf(bits, blockers int, singleton bool) (float64, bool) {
	if singleton {
		return 1.0, true
	}
	if blockers == 0 {
		return 1.0 / float64(bits), true
	}
	if blockers >= bits {
		return 0, false
	}
	return float64(bits) * math.Pow(2, float64(blockers)), true
}

// enumerateCandidates produces the valid candidate set of one subgraph.
// Subgraphs are class-pure (compatibility edges never cross functional
// classes), so one library width set applies. opts must be normalized
// (NormalizeOptions).
func enumerateCandidates(
	d *netlist.Design,
	g *compat.Graph,
	ri *regIndex,
	nodes []int,
	opts Options,
) (cands []candidate, truncated bool, err error) {
	if len(nodes) == 0 {
		return nil, false, nil
	}
	class := regOf(g, nodes[0]).RegCell.Class
	widths := d.Lib.Widths(class)
	if len(widths) == 0 {
		return nil, false, fmt.Errorf("core: no library widths for class %s", class.Key())
	}

	cg := localCliqueGraph(g, nodes)
	bits := make([]int, len(nodes))
	for i, n := range nodes {
		bits[i] = regOf(g, n).Bits()
	}
	spec := clique.SubCliqueSpec{
		Bits:            bits,
		Widths:          widths,
		AllowIncomplete: opts.AllowIncomplete,
		MaxCandidates:   maxCandidates(opts.UseWeights),
	}
	res, err := clique.EnumerateSubCliques(cg, spec)
	if err != nil {
		return nil, false, err
	}

	// Singletons first, outside the (possibly truncated) enumeration: every
	// register must always have its keep-as-is candidate (cost 1, its own
	// cell) or the set-partitioning ILP becomes infeasible.
	for _, n := range nodes {
		b := regOf(g, n).Bits()
		cands = append(cands, candidate{
			nodes: []int{n}, totalBits: b, width: b, weight: 1,
		})
	}

	// Multi-member groups, in clique enumeration order and then truncation
	// windows, deduplicated by member mask; each is evaluated as it is
	// generated and appended when it survives the filters.
	addGroup := func(members []int, total int) {
		if c, ok := evalMulti(d, g, ri, nodes, widths, class, opts, members, total); ok {
			cands = append(cands, c)
		}
	}
	seen := map[uint64]bool{}
	for ci, mask := range res.Cliques {
		members := clique.Members(mask)
		if len(members) == 1 {
			continue // singletons already added above
		}
		seen[mask] = true
		addGroup(members, res.TotalBits[ci])
	}

	// Contiguous-window candidates: when the layered enumeration was
	// truncated before reaching large member counts (dense subgraphs of
	// single-bit registers), the large groups the weights actually favor —
	// geometrically contiguous runs, whose polygons are clean — are added
	// directly. Nodes are scanned in placement order (row, then x); each
	// window must still be a clique.
	if res.Truncated {
		order := make([]int, len(nodes))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			pa := regOf(g, nodes[order[a]]).Pos
			pb := regOf(g, nodes[order[b]]).Pos
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return pa.X < pb.X
		})
		maxW := widths[len(widths)-1]
		for start := 0; start < len(order); start++ {
			var mask uint64
			var members []int
			total := 0
			for k := start; k < len(order); k++ {
				li := order[k]
				// Window must stay a clique.
				if mask&^cg.Neighbors(li) != 0 {
					break
				}
				total += bits[li]
				if total > maxW {
					break
				}
				mask |= 1 << uint(li)
				members = append(members, li)
				if len(members) >= 2 && !seen[mask] {
					seen[mask] = true
					addGroup(members, total)
				}
			}
		}
	}
	return cands, res.Truncated, nil
}

// localCliqueGraph is the subgraph-local clique graph: node i stands for
// nodes[i], and edges are the compatibility edges among nodes.
func localCliqueGraph(g *compat.Graph, nodes []int) *clique.Graph {
	cg := clique.NewGraph(len(nodes))
	local := map[int]int{}
	for i, n := range nodes {
		local[n] = i
	}
	for i, n := range nodes {
		for _, m := range g.Adj[n] {
			if j, ok := local[m]; ok && j > i {
				cg.AddEdge(i, j)
			}
		}
	}
	return cg
}

// evalMulti validates one multi-member group — members are subgraph-local
// node indices, total their connected bit count — against the §2/§3
// filters: library width, scan contiguity, non-empty common feasible
// region, incomplete-MBR area rule. It then counts blockers and weights
// the group.
func evalMulti(
	d *netlist.Design,
	g *compat.Graph,
	ri *regIndex,
	nodes []int,
	widths []int,
	class lib.FuncClass,
	opts Options,
	members []int,
	total int,
) (candidate, bool) {
	global := make([]int, len(members))
	for i, m := range members {
		global[i] = nodes[m]
	}
	width, ok := widthFor(widths, total)
	if !ok {
		return candidate{}, false
	}
	incomplete := width != total
	if incomplete && !opts.AllowIncomplete {
		return candidate{}, false
	}
	if !g.GroupScanCompatible(global) {
		return candidate{}, false
	}
	if _, ok := g.GroupRegion(global); !ok {
		return candidate{}, false
	}
	if incomplete && !incompleteAreaOK(d, g, global, class, width, opts) {
		return candidate{}, false
	}
	blockers := blockerCount(g, ri, global)
	w := 1.0
	if opts.UseWeights {
		var keep bool
		w, keep = weightOf(total, blockers, false)
		if !keep {
			return candidate{}, false
		}
	}
	return candidate{
		nodes:     global,
		totalBits: total,
		width:     width,
		weight:    w,
		blockers:  blockers,
	}, true
}

// widthFor returns the smallest library width ≥ total.
func widthFor(widths []int, total int) (int, bool) {
	for _, w := range widths {
		if w >= total {
			return w, true
		}
	}
	return 0, false
}

// incompleteAreaOK applies the incomplete-MBR admission rule. The paper
// states it twice, inconsistently: §3 uses a per-bit rule (area per
// connected bit below the average area per bit of the replaced registers),
// §5's experiments use a total-overhead cap ("not more than 5% area
// overhead relative to the area of the registers it replaced"). Only the
// §5 cap is applied: the per-bit rule rejects nearly every useful
// incomplete MBR built from pre-existing multi-bit registers, whose per-bit
// area is already amortized (EXPERIMENTS.md).
func incompleteAreaOK(
	d *netlist.Design,
	g *compat.Graph,
	nodes []int,
	class lib.FuncClass,
	width int,
	opts Options,
) bool {
	minRes := math.Inf(1)
	var memberArea int64
	for _, n := range nodes {
		in := regOf(g, n)
		memberArea += in.Area()
		if r := in.RegCell.DriveRes; r < minRes {
			minRes = r
		}
	}
	cell := d.Lib.SelectCell(class, width, minRes)
	if cell == nil {
		return false
	}
	over := opts.IncompleteAreaOverhead
	if over <= 0 {
		over = 0.05
	}
	return float64(cell.Area) <= (1+over)*float64(memberArea)
}
