// Package place provides row-based placement legalization: a Tetris-style
// greedy legalizer (full, incremental and retained), legality checking, and
// displacement metrics. MBR composition calls the incremental legalizer
// after each LP-placed MBR to resolve overlaps with the surrounding cells —
// the paper's weights (§3.2) are designed to make exactly this step cheap.
// Each cell takes the closest free row slot; the row search (rows.go) is
// budgeted by the best slot found so far and skips x-blocks whose gaps are
// all too narrow, so it costs the useful work rather than the row length.
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
	for dr := 0; dr < len(rs.rows); dr++ {
		for _, r := range []int{homeRow - dr, homeRow + dr} {
			if r < 0 || r >= len(rs.rows) || (dr == 0 && r != homeRow) {
				continue
			}
			rowCost := abs64(rs.rowY(r) - target.Y)
			if bestCost >= 0 && rowCost > bestCost {
				continue
			}
			// Only a strictly closer slot can win, so the row search
			// may give up at the remaining budget.
			limit := int64(-1)
			if bestCost >= 0 {
				limit = bestCost - rowCost
			}
			if x, ok := rs.bestInRow(r, target.X, w, limit); ok {
				bestCost = rowCost + abs64(x-target.X)
				bestPos = geom.Point{X: x, Y: rs.rowY(r)}
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
