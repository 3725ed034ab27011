package sta

import (
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// FeasibleRegion computes the timing-feasible placement region of a
// register (§2, placement compatibility): the set of lower-left corner
// positions the cell can take without creating a timing violation.
//
// For every connected D and Q pin:
//
//   - positive slack is converted to an equivalent Manhattan move distance
//     through the marginal delay per DBU of the relevant driver (the net's
//     driver for D pins; the register itself for Q pins), producing a box
//     around the pin's current position;
//
//   - negative (or zero) slack pins contribute the bounding box of the
//     *other* pins of their net: moving the pin within that box cannot
//     increase the net's half-perimeter, so the violating path is not made
//     worse.
//
// The per-pin boxes, translated from pin coordinates to cell-corner
// coordinates, are intersected. When the intersection is empty the cell's
// current corner position is returned as a degenerate region — per the
// paper, an unmovable cell still defines a region matching its footprint
// where other registers can move to.
//
// slacks must be up to date with d (see SlackSource).
func FeasibleRegion(d *netlist.Design, slacks SlackSource, in *netlist.Inst) geom.Rect {
	var boxes []geom.Rect
	corner := in.Pos

	addPinBox := func(p *netlist.Pin, driverRes float64) {
		if p == nil || p.Net == netlist.NoID {
			return
		}
		pos := d.PinPos(p)
		slack := slacks.PinSlack(p.ID)
		var box geom.Rect
		if math.IsInf(slack, 1) {
			return // unconstrained pin: no restriction
		}
		if slack > 0 {
			kappa := d.Timing.MarginalDelayPerDBU(driverRes)
			if kappa <= 0 {
				return
			}
			dist := int64(slack / kappa)
			box = geom.Rect{
				Lo: geom.Point{X: pos.X - dist, Y: pos.Y - dist},
				Hi: geom.Point{X: pos.X + dist, Y: pos.Y + dist},
			}
		} else {
			var ok bool
			if box, ok = d.NetBBoxExcluding(d.Net(p.Net), p.ID); !ok {
				box = geom.Rect{Lo: pos, Hi: pos} // no other pin on the net
			}
		}
		// Translate from pin space to cell-corner space.
		off := geom.Point{X: p.Offset.DX, Y: p.Offset.DY}
		boxes = append(boxes, geom.Rect{Lo: box.Lo.Sub(off), Hi: box.Hi.Sub(off)})
	}

	for b := 0; b < in.Bits(); b++ {
		dp := d.DPin(in, b)
		if dp != nil && dp.Net != netlist.NoID {
			addPinBox(dp, netDriverRes(d, d.Net(dp.Net)))
		}
		qp := d.QPin(in, b)
		if qp != nil && qp.Net != netlist.NoID {
			addPinBox(qp, in.RegCell.DriveRes)
		}
	}

	if len(boxes) == 0 {
		// Fully unconstrained register: it may go anywhere in the core.
		return d.Core
	}
	region, ok := geom.IntersectAll(boxes)
	if !ok {
		return geom.Rect{Lo: corner, Hi: corner}
	}
	// Clamp to the core area.
	clamped, ok := region.Intersect(coreCornerSpace(d, in))
	if !ok {
		return geom.Rect{Lo: corner, Hi: corner}
	}
	return clamped
}

// coreCornerSpace is the legal range of the cell's lower-left corner inside
// the core.
func coreCornerSpace(d *netlist.Design, in *netlist.Inst) geom.Rect {
	return geom.Rect{
		Lo: d.Core.Lo,
		Hi: geom.Point{X: d.Core.Hi.X - in.Width(), Y: d.Core.Hi.Y - in.Height()},
	}
}

// netDriverRes returns the drive resistance of the net's driver (a large
// default when undriven).
func netDriverRes(d *netlist.Design, n *netlist.Net) float64 {
	if n.Driver == netlist.NoID {
		return 10.0
	}
	in := d.Inst(d.Pin(n.Driver).Inst)
	if in == nil {
		return 10.0
	}
	switch {
	case in.RegCell != nil:
		return in.RegCell.DriveRes
	case in.Comb != nil:
		return in.Comb.DriveRes
	}
	return 10.0 // port
}
