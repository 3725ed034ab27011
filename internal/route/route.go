// Package route estimates routing congestion with a probabilistic global
// routing model over a G-cell grid, in the spirit of the estimators in
// Sapatnekar/Saxena/Shelar ("Routing Congestion in VLSI Circuits"), which
// the paper uses for its overflow-edge metric ([15], Table 1 "Ovfl Edges").
//
// Each net contributes expected horizontal and vertical track demand spread
// uniformly over its bounding box; an edge whose demand exceeds its
// capacity is an overflow edge.
//
// Demand is accumulated in fixed-point (scaled int64, demandUnit units per
// track) and materialized to float64 only at the edges of the package. That
// makes per-net contributions exactly invertible — integer adds commute and
// subtract cleanly — which is what lets the retained Engine maintain the
// map by per-net deltas, and a parallel rebuild merge per-worker partial
// sums, while staying bit-identical to the sequential batch Estimate.
package route

import (
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Options configures the congestion map.
type Options struct {
	// GCell is the G-cell pitch in DBU.
	GCell int64
	// HCap and VCap are per-edge track capacities.
	HCap, VCap float64
}

// DefaultOptions returns the capacities used by the benchmark designs.
func DefaultOptions() Options {
	return Options{GCell: 4800, HCap: 12, VCap: 10}
}

// demandUnit is the fixed-point scale: one routing track of demand is
// demandUnit integer units. 2^20 keeps quantization error per net below
// 1e-6 tracks while leaving 2^43 tracks of headroom before int64 overflow.
const demandUnit = 1 << 20

// Map is a computed congestion map. Horizontal edges connect (x,y)→(x+1,y)
// and are indexed [y*(nx-1)+x]; vertical edges connect (x,y)→(x,y+1) and
// are indexed [y*nx+x] with y < ny-1.
type Map struct {
	NX, NY  int
	HDemand []float64
	VDemand []float64
	HCap    float64
	VCap    float64
}

// grid is the G-cell discretization of a core area.
type grid struct {
	nx, ny int
	lo     geom.Point
	gcell  int64
}

// gridFor builds the grid covering core at the options' G-cell pitch.
// Degenerate cores still get at least a 2×2 grid so every map has at least
// one H and one V edge per row/column.
func gridFor(core geom.Rect, opts Options) grid {
	nx := int(core.W()/opts.GCell) + 1
	ny := int(core.H()/opts.GCell) + 1
	if nx < 2 {
		nx = 2
	}
	if ny < 2 {
		ny = 2
	}
	return grid{nx: nx, ny: ny, lo: core.Lo, gcell: opts.GCell}
}

// gx maps an x coordinate to its G-cell column, clamped to [0, nx-1] for
// points on or outside the core boundary.
func (g grid) gx(x int64) int {
	c := int((x - g.lo.X) / g.gcell)
	if c < 0 {
		c = 0
	}
	if c >= g.nx {
		c = g.nx - 1
	}
	return c
}

// gy maps a y coordinate to its G-cell row, clamped to [0, ny-1].
func (g grid) gy(y int64) int {
	r := int((y - g.lo.Y) / g.gcell)
	if r < 0 {
		r = 0
	}
	if r >= g.ny {
		r = g.ny - 1
	}
	return r
}

// hEdges and vEdges are the edge-array lengths for the grid.
func (g grid) hEdges() int { return (g.nx - 1) * g.ny }
func (g grid) vEdges() int { return g.nx * (g.ny - 1) }

// contrib is one net's demand contribution: wh fixed-point units on every
// H edge of rows y0..y1, columns x0..x1-1, and wv units on every V edge of
// columns x0..x1, rows y0..y1-1. A zero contrib (wh == wv == 0) is inert.
type contrib struct {
	x0, x1, y0, y1 int
	wh, wv         int64
}

// netContribution computes the net's contribution on grid g. Clock nets
// contribute like any other. ok is false for nets that contribute
// nothing: nets with fewer than two pins and nets with no connected pins.
func netContribution(d *netlist.Design, n *netlist.Net, g grid) (contrib, bool) {
	bb, ok := d.NetBBox(n)
	if !ok {
		return contrib{}, false
	}
	npins := len(n.Sinks)
	if n.Driver != netlist.NoID {
		npins++
	}
	if npins < 2 {
		return contrib{}, false
	}
	c := contrib{
		x0: g.gx(bb.Lo.X), x1: g.gx(bb.Hi.X),
		y0: g.gy(bb.Lo.Y), y1: g.gy(bb.Hi.Y),
	}
	// Expected wire usage for a multi-pin net scales with pin count:
	// the RSMT-over-HPWL correction factor (Chu's HPWL scaling).
	q := hpwlScale(npins)
	// Horizontal demand: q track-crossings per column of the bbox, spread
	// uniformly over the rows it spans (and symmetrically for vertical).
	if c.x1 > c.x0 {
		c.wh = int64(math.Round(q / float64(c.y1-c.y0+1) * demandUnit))
	}
	if c.y1 > c.y0 {
		c.wv = int64(math.Round(q / float64(c.x1-c.x0+1) * demandUnit))
	}
	return c, true
}

// addTo folds the contribution into scaled demand arrays with the given
// sign (+1 to apply, -1 to retract).
func (c contrib) addTo(hDem, vDem []int64, nx int, sign int64) {
	if c.wh != 0 {
		w := sign * c.wh
		for y := c.y0; y <= c.y1; y++ {
			row := hDem[y*(nx-1)+c.x0 : y*(nx-1)+c.x1]
			for i := range row {
				row[i] += w
			}
		}
	}
	if c.wv != 0 {
		w := sign * c.wv
		for x := c.x0; x <= c.x1; x++ {
			for y := c.y0; y < c.y1; y++ {
				vDem[y*nx+x] += w
			}
		}
	}
}

// estimateScaled computes the fixed-point demand arrays with one walk over
// the design's live nets.
func estimateScaled(d *netlist.Design, opts Options, g grid) (hDem, vDem []int64) {
	hDem = make([]int64, g.hEdges())
	vDem = make([]int64, g.vEdges())
	d.Nets(func(n *netlist.Net) {
		if c, ok := netContribution(d, n, g); ok {
			c.addTo(hDem, vDem, g.nx, 1)
		}
	})
	return hDem, vDem
}

// toTracks materializes a fixed-point demand value as float64 tracks. Exact
// for any realistic map (sums below 2^53 units).
func toTracks(v int64) float64 { return float64(v) / demandUnit }

// materialize converts scaled demand arrays into a Map.
func materialize(g grid, hDem, vDem []int64, opts Options) *Map {
	m := &Map{
		NX: g.nx, NY: g.ny,
		HDemand: make([]float64, len(hDem)),
		VDemand: make([]float64, len(vDem)),
		HCap:    opts.HCap, VCap: opts.VCap,
	}
	for i, v := range hDem {
		m.HDemand[i] = toTracks(v)
	}
	for i, v := range vDem {
		m.VDemand[i] = toTracks(v)
	}
	return m
}

// Estimate computes the congestion map of the design's current placement
// with one full walk over the nets. It is the batch oracle the retained
// Engine falls back to and is tested against.
func Estimate(d *netlist.Design, opts Options) *Map {
	if opts.GCell <= 0 {
		opts = DefaultOptions()
	}
	g := gridFor(d.Core, opts)
	hDem, vDem := estimateScaled(d, opts, g)
	return materialize(g, hDem, vDem, opts)
}

// hpwlScale is the expected ratio of rectilinear Steiner tree length to
// half-perimeter wirelength as a function of pin count (Chu, FLUTE paper,
// approximated).
func hpwlScale(pins int) float64 {
	switch {
	case pins <= 3:
		return 1.0
	case pins <= 5:
		return 1.1
	case pins <= 10:
		return 1.3
	default:
		return 1.3 + 0.05*float64(pins-10)
	}
}

// OverflowEdges counts edges whose demand exceeds capacity.
func (m *Map) OverflowEdges() int {
	n := 0
	for _, dem := range m.HDemand {
		if dem > m.HCap {
			n++
		}
	}
	for _, dem := range m.VDemand {
		if dem > m.VCap {
			n++
		}
	}
	return n
}

// TotalOverflow sums demand in excess of capacity over all edges.
func (m *Map) TotalOverflow() float64 {
	t := 0.0
	for _, dem := range m.HDemand {
		if dem > m.HCap {
			t += dem - m.HCap
		}
	}
	for _, dem := range m.VDemand {
		if dem > m.VCap {
			t += dem - m.VCap
		}
	}
	return t
}

// MaxUtilization returns the maximum demand/capacity ratio over all edges.
func (m *Map) MaxUtilization() float64 {
	u := 0.0
	for _, dem := range m.HDemand {
		u = math.Max(u, dem/m.HCap)
	}
	for _, dem := range m.VDemand {
		u = math.Max(u, dem/m.VCap)
	}
	return u
}

// AvgUtilization returns the mean demand/capacity ratio.
func (m *Map) AvgUtilization() float64 {
	if len(m.HDemand)+len(m.VDemand) == 0 {
		return 0
	}
	t := 0.0
	for _, dem := range m.HDemand {
		t += dem / m.HCap
	}
	for _, dem := range m.VDemand {
		t += dem / m.VCap
	}
	return t / float64(len(m.HDemand)+len(m.VDemand))
}
