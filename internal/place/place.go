// Package place provides row-based placement legalization and density
// analysis: a Tetris-style greedy legalizer (full and incremental), legality
// checking, and displacement metrics. MBR composition calls the incremental
// legalizer after each LP-placed MBR to resolve overlaps with the
// surrounding cells — the paper's weights (§3.2) are designed to make
// exactly this step cheap.
package place

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Violation describes one legality problem.
type Violation struct {
	Inst *netlist.Inst
	Kind string // "overlap", "off-row", "off-site", "outside-core"
	With *netlist.Inst
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s", v.Kind, v.Inst.Name)
	if v.With != nil {
		s += " with " + v.With.Name
	}
	return s
}

// movable reports whether legalization may reposition the instance. Ports
// and fixed cells stay; zero-area instances are ignored entirely.
func movable(in *netlist.Inst) bool {
	return !in.Fixed && in.Kind != netlist.KindPort && in.Area() > 0
}

// CheckLegal returns all legality violations of the current placement:
// cells outside the core, corners off the row/site grid, and pairwise
// overlaps. Zero-area instances (ports) are ignored.
func CheckLegal(d *netlist.Design) []Violation {
	var out []Violation
	var cells []*netlist.Inst
	d.Insts(func(in *netlist.Inst) {
		if in.Area() == 0 {
			return
		}
		cells = append(cells, in)
		b := in.Bounds()
		if !d.Core.ContainsRect(b) {
			out = append(out, Violation{Inst: in, Kind: "outside-core"})
		}
		if (in.Pos.Y-d.Core.Lo.Y)%d.RowH != 0 {
			out = append(out, Violation{Inst: in, Kind: "off-row"})
		}
		if (in.Pos.X-d.Core.Lo.X)%d.SiteW != 0 {
			out = append(out, Violation{Inst: in, Kind: "off-site"})
		}
	})
	// Sweep in (y, x) order: for a cell i, only cells whose Lo.Y is below
	// i's Hi.Y can overlap it, so the inner scan stops there. Within a row,
	// the x sort keeps the scan short.
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Pos.Y != cells[j].Pos.Y {
			return cells[i].Pos.Y < cells[j].Pos.Y
		}
		return cells[i].Pos.X < cells[j].Pos.X
	})
	for i := 0; i < len(cells); i++ {
		bi := cells[i].Bounds()
		for j := i + 1; j < len(cells); j++ {
			bj := cells[j].Bounds()
			if bj.Lo.Y >= bi.Hi.Y {
				break
			}
			if bj.Lo.Y == bi.Lo.Y && bj.Lo.X >= bi.Hi.X {
				continue
			}
			if bi.OverlapsStrict(bj) {
				out = append(out, Violation{Inst: cells[i], Kind: "overlap", With: cells[j]})
			}
		}
	}
	return out
}

// rowSpace tracks free intervals per row.
type rowSpace struct {
	core  geom.Rect
	rowH  int64
	siteW int64
	// occ[r] is a sorted list of occupied [lo,hi) x-intervals in row r.
	occ [][]span
	// raw keeps every blocked span individually (sorted by lo, overlaps
	// allowed) so unblock can remove one contributor exactly; merged mode
	// coalesces neighbours and cannot give a span back. Free-gap queries
	// see the same union either way — bestInRow's scan tolerates overlaps
	// — so the two modes place identically.
	raw bool
}

type span struct{ lo, hi int64 }

func newRowSpace(d *netlist.Design) *rowSpace {
	nRows := int((d.Core.H()) / d.RowH)
	if nRows < 1 {
		nRows = 1
	}
	return &rowSpace{core: d.Core, rowH: d.RowH, siteW: d.SiteW, occ: make([][]span, nRows)}
}

func (rs *rowSpace) rowOf(y int64) int {
	return int((y - rs.core.Lo.Y) / rs.rowH)
}

func (rs *rowSpace) rowY(r int) int64 { return rs.core.Lo.Y + int64(r)*rs.rowH }

// block marks [lo,hi) occupied in every row the rect touches.
func (rs *rowSpace) block(b geom.Rect) {
	r0 := rs.rowOf(b.Lo.Y)
	r1 := rs.rowOf(b.Hi.Y - 1)
	for r := r0; r <= r1; r++ {
		if r < 0 || r >= len(rs.occ) {
			continue
		}
		if rs.raw {
			rs.occ[r] = insertRaw(rs.occ[r], span{b.Lo.X, b.Hi.X})
		} else {
			rs.occ[r] = insertSpan(rs.occ[r], span{b.Lo.X, b.Hi.X})
		}
	}
}

// unblock removes one exact copy of the rect's span from every row it
// touches. Raw mode only.
func (rs *rowSpace) unblock(b geom.Rect) {
	if !rs.raw {
		panic("place: unblock on a merged rowSpace")
	}
	r0 := rs.rowOf(b.Lo.Y)
	r1 := rs.rowOf(b.Hi.Y - 1)
	for r := r0; r <= r1; r++ {
		if r < 0 || r >= len(rs.occ) {
			continue
		}
		rs.occ[r] = removeRaw(rs.occ[r], span{b.Lo.X, b.Hi.X})
	}
}

func insertRaw(spans []span, s span) []span {
	idx := sort.Search(len(spans), func(i int) bool { return spans[i].lo >= s.lo })
	spans = append(spans, span{})
	copy(spans[idx+1:], spans[idx:])
	spans[idx] = s
	return spans
}

func removeRaw(spans []span, s span) []span {
	idx := sort.Search(len(spans), func(i int) bool { return spans[i].lo >= s.lo })
	for i := idx; i < len(spans) && spans[i].lo == s.lo; i++ {
		if spans[i].hi == s.hi {
			return append(spans[:i], spans[i+1:]...)
		}
	}
	// The caller's bookkeeping pairs every unblock with an earlier block;
	// a miss means the retained occupancy has drifted from the design.
	panic("place: unblock of a span that was never blocked")
}

func insertSpan(spans []span, s span) []span {
	idx := sort.Search(len(spans), func(i int) bool { return spans[i].lo >= s.lo })
	spans = append(spans, span{})
	copy(spans[idx+1:], spans[idx:])
	spans[idx] = s
	// Merge overlapping neighbours.
	out := spans[:0]
	for _, sp := range spans {
		if n := len(out); n > 0 && sp.lo <= out[n-1].hi {
			if sp.hi > out[n-1].hi {
				out[n-1].hi = sp.hi
			}
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// bestInRow finds the x for a width-w cell in row r closest to targetX.
// Returns ok=false when the row has no gap wide enough.
func (rs *rowSpace) bestInRow(r int, targetX, w int64) (int64, bool) {
	if r < 0 || r >= len(rs.occ) {
		return 0, false
	}
	lo, hi := rs.core.Lo.X, rs.core.Hi.X
	best, found := int64(0), false
	tryGap := func(glo, ghi int64) {
		if ghi-glo < w {
			return
		}
		x := clamp(targetX, glo, ghi-w)
		x = snap(x, rs.core.Lo.X, rs.siteW)
		if x < glo {
			x += rs.siteW
		}
		if x+w > ghi {
			return
		}
		if !found || abs64(x-targetX) < abs64(best-targetX) {
			best, found = x, true
		}
	}
	prev := lo
	for _, sp := range rs.occ[r] {
		if sp.lo > prev {
			tryGap(prev, sp.lo)
		}
		if sp.hi > prev {
			prev = sp.hi
		}
	}
	if hi > prev {
		tryGap(prev, hi)
	}
	return best, found
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func snap(x, origin, pitch int64) int64 {
	return origin + ((x-origin)/pitch)*pitch
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Result summarizes a legalization run.
type Result struct {
	Moved             int
	TotalDisplacement int64
	MaxDisplacement   int64
	Failed            []*netlist.Inst
}

// Legalize snaps every movable instance to a legal, non-overlapping
// row/site position near its current location (Tetris-style: cells are
// processed in x order; each takes the nearest free slot). Fixed cells and
// ports are obstacles. Returns displacement statistics; instances that
// could not be placed (core full) are listed in Failed.
func Legalize(d *netlist.Design) *Result {
	var fixed, mov []*netlist.Inst
	d.Insts(func(in *netlist.Inst) {
		if in.Area() == 0 {
			return
		}
		if movable(in) {
			mov = append(mov, in)
		} else {
			fixed = append(fixed, in)
		}
	})
	rs := newRowSpace(d)
	for _, in := range fixed {
		rs.block(in.Bounds())
	}
	// Registers go first — they are larger and have higher placement
	// priority (§3.2 makes the same observation); combinational cells fill
	// in around them.
	sort.Slice(mov, func(i, j int) bool {
		ri, rj := mov[i].Kind == netlist.KindReg, mov[j].Kind == netlist.KindReg
		if ri != rj {
			return ri
		}
		if mov[i].Pos.X != mov[j].Pos.X {
			return mov[i].Pos.X < mov[j].Pos.X
		}
		return mov[i].Pos.Y < mov[j].Pos.Y
	})
	res := &Result{}
	for _, in := range mov {
		placeOne(d, rs, in, res)
	}
	return res
}

// LegalizeIncremental places only the given instances, treating every other
// placed instance as an obstacle. This is the post-composition step: the
// freshly created MBRs take the space freed by their constituent registers.
//
// Clock buffers are never obstacles (unless they are in the moving set
// themselves): the retained CTS engine re-legalizes the whole buffer set
// after every design change, with data cells as obstacles — buffers yield
// to logic, exactly as in a build-tree-last batch flow. Treating a
// soon-to-move buffer as a blockage here would doubly constrain the data
// cells for no benefit.
func LegalizeIncremental(d *netlist.Design, insts []*netlist.Inst) *Result {
	if len(insts) == 0 {
		// Nothing to place: skip the O(design) occupancy build. A converged
		// composition pass commits no MBRs and must cost no legalization.
		return &Result{}
	}
	moving := map[netlist.InstID]bool{}
	for _, in := range insts {
		moving[in.ID] = true
	}
	rs := newRowSpace(d)
	d.Insts(func(in *netlist.Inst) {
		if in.Area() == 0 || moving[in.ID] || in.Kind == netlist.KindClockBuf {
			return
		}
		rs.block(in.Bounds())
	})
	return legalizeInto(d, rs, insts)
}

// legalizeInto places insts into the prepared occupancy in area-descending
// order. Both the batch path and the retained Legalizer funnel through it
// — same input sequence, same sort, same probes — so their outcomes are
// identical for the same occupancy content.
func legalizeInto(d *netlist.Design, rs *rowSpace, insts []*netlist.Inst) *Result {
	res := &Result{}
	ordered := append([]*netlist.Inst(nil), insts...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Area() > ordered[j].Area() })
	for _, in := range ordered {
		placeOne(d, rs, in, res)
	}
	return res
}

func placeOne(d *netlist.Design, rs *rowSpace, in *netlist.Inst, res *Result) {
	w := in.Width()
	target := in.Pos
	homeRow := rs.rowOf(clamp(target.Y, rs.core.Lo.Y, rs.core.Hi.Y-rs.rowH))
	bestCost := int64(-1)
	var bestPos geom.Point
	for dr := 0; dr < len(rs.occ); dr++ {
		for _, r := range []int{homeRow - dr, homeRow + dr} {
			if r < 0 || r >= len(rs.occ) || (dr == 0 && r != homeRow) {
				continue
			}
			rowCost := abs64(rs.rowY(r) - target.Y)
			if bestCost >= 0 && rowCost > bestCost {
				continue
			}
			if x, ok := rs.bestInRow(r, target.X, w); ok {
				cost := rowCost + abs64(x-target.X)
				if bestCost < 0 || cost < bestCost {
					bestCost = cost
					bestPos = geom.Point{X: x, Y: rs.rowY(r)}
				}
			}
			if dr == 0 {
				break
			}
		}
		// Early exit: if we already found a slot and the next row band is
		// farther than the best total cost, stop.
		if bestCost >= 0 && int64(dr+1)*rs.rowH > bestCost {
			break
		}
	}
	if bestCost < 0 {
		res.Failed = append(res.Failed, in)
		return
	}
	disp := abs64(bestPos.X-in.Pos.X) + abs64(bestPos.Y-in.Pos.Y)
	if disp > 0 {
		res.Moved++
	}
	res.TotalDisplacement += disp
	if disp > res.MaxDisplacement {
		res.MaxDisplacement = disp
	}
	d.MoveInst(in, bestPos)
	rs.block(in.Bounds())
}
