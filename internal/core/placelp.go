package core

import (
	"math"
	"slices"

	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/lp"
	"repro/internal/netlist"
)

// pinJob is one connected D or Q pin of an MBR in the §4.2 LP: the chosen
// cell's pin offset and the bounding box of the net's other pins.
type pinJob struct {
	off lib.PinOffset
	box geom.Rect
}

// placeInputs is everything the §4.2 LP reads: the group's timing-feasible
// region clamped to the core, one job per connected D/Q pin, and the
// members' centroid, which places the MBR when no pin is connected.
// solvePlacement is a pure function of them (and of the design's fixed
// core and site/row grid), so equal inputs give the same position.
type placeInputs struct {
	region   geom.Rect
	jobs     []pinJob
	centroid geom.Point
}

// placementInputs gathers the §4.2 LP's inputs for an MBR of the given cell
// over the nodes. ordered lists the member instances in merge order (which
// fixes the bit assignment); the old registers must still be connected.
func placementInputs(
	d *netlist.Design,
	g *compat.Graph,
	nodes []int,
	ordered []*netlist.Inst,
	cell *lib.Cell,
) placeInputs {
	region, ok := g.GroupRegion(nodes)
	if !ok {
		// Should not happen for enumerated candidates; fall back to the
		// first member's position.
		region = geom.Rect{Lo: ordered[0].Pos, Hi: ordered[0].Pos}
	}
	// Keep the cell inside the core even if the slack region pokes out.
	coreFit := geom.Rect{
		Lo: d.Core.Lo,
		Hi: geom.Point{X: d.Core.Hi.X - cell.Width, Y: d.Core.Hi.Y - cell.Height},
	}
	if r, ok := region.Intersect(coreFit); ok {
		region = r
	}
	in := placeInputs{region: region}
	k := 0
	for _, m := range ordered {
		for b := 0; b < m.Bits(); b++ {
			if dp := d.DPin(m, b); dp != nil && dp.Net != netlist.NoID {
				if box, ok := d.NetBBoxExcluding(d.Net(dp.Net), dp.ID); ok {
					in.jobs = append(in.jobs, pinJob{off: cell.DPins[k], box: box})
				}
			}
			if qp := d.QPin(m, b); qp != nil && qp.Net != netlist.NoID {
				if box, ok := d.NetBBoxExcluding(d.Net(qp.Net), qp.ID); ok {
					in.jobs = append(in.jobs, pinJob{off: cell.QPins[k], box: box})
				}
			}
			k++
		}
	}
	if len(in.jobs) == 0 {
		var sx, sy int64
		for _, m := range ordered {
			c := m.Center()
			sx += c.X
			sy += c.Y
		}
		n := int64(len(ordered))
		in.centroid = geom.Point{X: sx / n, Y: sy / n}
	}
	return in
}

// equal reports whether two input sets are identical, so a position solved
// from one is exactly the position the other would give.
func (a *placeInputs) equal(b *placeInputs) bool {
	return a.region == b.region && a.centroid == b.centroid && slices.Equal(a.jobs, b.jobs)
}

// closedFormJobs is the fewest jobs at which solvePlacement takes the
// closed form for an LP whose optimum set spans more than one grid point
// (see leftEndDomain). Below it the simplex stays: its pivot path
// sometimes ends at an interval's right end, and the positions must not
// move.
const closedFormJobs = 10

// solvePlacement solves the §4.2 linear program: find the MBR corner
// position (x, y) inside the region that minimizes the total
// half-perimeter wirelength of the nets on the MBR's D and Q pins. Each
// axis of that LP is a convex piecewise-linear function whose optimum set
// axisInterval gives in closed form. The simplex ends at an optimum, so
// its position snaps into the box the two intervals' snapped ends span.
// solvePlacement takes the snapped left ends when that box is one grid
// point (which it is when both intervals are single points) or the LP lies
// in leftEndDomain, where the left ends are the simplex's answer too, and
// asks simplexPlacement otherwise; closed reports which. Without jobs the
// MBR goes to the members' centroid, clamped.
func solvePlacement(d *netlist.Design, in *placeInputs) (pos geom.Point, closed bool, err error) {
	region := in.region
	if len(in.jobs) == 0 {
		return snapToGrid(d, region.ClampPoint(in.centroid), region), false, nil
	}
	xl, xr := axisInterval(region.Lo.X, region.Hi.X, in.jobs, axisX)
	yl, yr := axisInterval(region.Lo.Y, region.Hi.Y, in.jobs, axisY)
	left := snapToGrid(d, geom.Point{X: xl, Y: yl}, region)
	if left == snapToGrid(d, geom.Point{X: xr, Y: yr}, region) || leftEndDomain(in) {
		return left, true, nil
	}
	pos, err = simplexPlacement(d, in)
	return pos, false, err
}

// leftEndDomain reports whether the LP lies where the simplex has been
// seen to end at the left end of both axes' optimum sets, which is an
// observed property of its pivot path, not a proven one
// (FuzzClosedFormMatchesSimplex searches for counterexamples). The LP
// needs at least closedFormJobs jobs, a region with extent on both axes
// (a zero-width axis makes degenerate pivots that can end either way),
// and corner-plus-offset rows with non-negative right-hand sides: lo + off
// below zero flips the row before phase 1, and the simplex then ends at
// either end at any job count.
func leftEndDomain(in *placeInputs) bool {
	r := in.region
	if len(in.jobs) < closedFormJobs || r.Lo.X == r.Hi.X || r.Lo.Y == r.Hi.Y {
		return false
	}
	for _, j := range in.jobs {
		if r.Lo.X+j.off.DX < 0 || r.Lo.Y+j.off.DY < 0 {
			return false
		}
	}
	return true
}

// axis names one coordinate of the §4.2 LP.
type axis uint8

const (
	axisX axis = iota
	axisY
)

// axisInterval returns the optimum set [left, right] of one axis of the
// §4.2 LP over the region's [lo, hi]. Job j contributes
// max(box.Hi, c+off) − min(box.Lo, c+off) at corner coordinate c, whose
// slope steps from −1 to 0 at box.Lo − off and from 0 to +1 at
// box.Hi − off. The sum of the n jobs therefore has slope −n below all
// 2n breakpoints, gains one at each, and is flat exactly between the n-th
// and (n+1)-th sorted breakpoints; clamping both to the region gives the
// constrained optimum set.
func axisInterval(lo, hi int64, jobs []pinJob, a axis) (left, right int64) {
	// The default library's widest cell has 8 bits: 16 jobs and 32
	// breakpoints. A wider cell's breakpoints spill to the heap.
	var buf [32]int64
	bp := buf[:0]
	for _, j := range jobs {
		if a == axisX {
			bp = append(bp, j.box.Lo.X-j.off.DX, j.box.Hi.X-j.off.DX)
		} else {
			bp = append(bp, j.box.Lo.Y-j.off.DY, j.box.Hi.Y-j.off.DY)
		}
	}
	slices.Sort(bp)
	n := len(jobs)
	return min(max(bp[n-1], lo), hi), min(max(bp[n], lo), hi)
}

// simplexPlacement solves the §4.2 LP with the simplex. Pin coordinates
// are expressed as corner + per-bit offset of the chosen cell; the max/min
// terms of the HPWL are linearized with helper variables. The LP needs at
// least one job.
func simplexPlacement(d *netlist.Design, in *placeInputs) (geom.Point, error) {
	region := in.region
	prob := lp.New(lp.Minimize)
	x := prob.AddVar(float64(region.Lo.X), float64(region.Hi.X), 0, "x")
	y := prob.AddVar(float64(region.Lo.Y), float64(region.Hi.Y), 0, "y")
	negInf, posInf := math.Inf(-1), math.Inf(1)
	for _, j := range in.jobs {
		hx := prob.AddVar(negInf, posInf, 1, "hx")
		lx := prob.AddVar(negInf, posInf, -1, "lx")
		hy := prob.AddVar(negInf, posInf, 1, "hy")
		ly := prob.AddVar(negInf, posInf, -1, "ly")
		// hx ≥ box.Hi.X ; hx ≥ x + dx  (so hx = max at optimum)
		prob.AddConstraint([]lp.Term{{Var: hx, Coef: 1}}, lp.GE, float64(j.box.Hi.X))
		prob.AddConstraint([]lp.Term{{Var: hx, Coef: 1}, {Var: x, Coef: -1}}, lp.GE, float64(j.off.DX))
		// lx ≤ box.Lo.X ; lx ≤ x + dx
		prob.AddConstraint([]lp.Term{{Var: lx, Coef: 1}}, lp.LE, float64(j.box.Lo.X))
		prob.AddConstraint([]lp.Term{{Var: lx, Coef: 1}, {Var: x, Coef: -1}}, lp.LE, float64(j.off.DX))
		prob.AddConstraint([]lp.Term{{Var: hy, Coef: 1}}, lp.GE, float64(j.box.Hi.Y))
		prob.AddConstraint([]lp.Term{{Var: hy, Coef: 1}, {Var: y, Coef: -1}}, lp.GE, float64(j.off.DY))
		prob.AddConstraint([]lp.Term{{Var: ly, Coef: 1}}, lp.LE, float64(j.box.Lo.Y))
		prob.AddConstraint([]lp.Term{{Var: ly, Coef: 1}, {Var: y, Coef: -1}}, lp.LE, float64(j.off.DY))
	}
	sol, err := prob.Solve()
	if err != nil {
		return geom.Point{}, err
	}
	if sol.Status != lp.Optimal {
		// Degenerate region (single point) can surface as numerically odd;
		// fall back to the region corner.
		return snapToGrid(d, region.Lo, region), nil
	}
	p := geom.Point{X: int64(math.Round(sol.X[x])), Y: int64(math.Round(sol.X[y]))}
	return snapToGrid(d, region.ClampPoint(p), region), nil
}

// snapToGrid rounds the point down to the design's site/row grid while
// staying inside the region when possible.
func snapToGrid(d *netlist.Design, p geom.Point, region geom.Rect) geom.Point {
	sx := d.Core.Lo.X + ((p.X-d.Core.Lo.X)/d.SiteW)*d.SiteW
	sy := d.Core.Lo.Y + ((p.Y-d.Core.Lo.Y)/d.RowH)*d.RowH
	if sx < region.Lo.X && sx+d.SiteW <= region.Hi.X {
		sx += d.SiteW
	}
	if sy < region.Lo.Y && sy+d.RowH <= region.Hi.Y {
		sy += d.RowH
	}
	return geom.Point{X: sx, Y: sy}
}
