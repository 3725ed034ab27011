package geom

// Grid is a uniform spatial hash over a bounding rectangle: rectangles are
// inserted into every cell they overlap, and QueryRect visits the ids of
// every inserted rectangle whose cell range overlaps the query range. It
// exists so neighborhood-limited searches (the compatibility-graph sweep)
// avoid all-pairs scans. Visits may repeat an id (a rectangle can
// span several cells); callers dedup, typically with a stamp slice.
//
// A Grid is immutable after the insert phase as far as queries are
// concerned: concurrent QueryRect calls are safe once InsertRect is done.
type Grid struct {
	bounds Rect
	nx, ny int
	cw, ch int64
	cells  [][]int32
}

// NewGrid creates an nx×ny grid over bounds. Dimensions are clamped to at
// least 1; a degenerate bounds rectangle collapses to a single cell.
func NewGrid(bounds Rect, nx, ny int) *Grid {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	if bounds.W() <= 0 {
		nx = 1
	}
	if bounds.H() <= 0 {
		ny = 1
	}
	g := &Grid{bounds: bounds, nx: nx, ny: ny}
	// Ceiling division so nx*cw covers the full width.
	g.cw = (bounds.W() + int64(nx) - 1) / int64(nx)
	if g.cw <= 0 {
		g.cw = 1
	}
	g.ch = (bounds.H() + int64(ny) - 1) / int64(ny)
	if g.ch <= 0 {
		g.ch = 1
	}
	g.cells = make([][]int32, nx*ny)
	return g
}

// cellRange maps a rectangle to the inclusive cell index range it overlaps.
// Coordinates outside bounds clamp to the boundary cells, so out-of-bounds
// rectangles are still indexed (conservatively) rather than lost.
func (g *Grid) cellRange(r Rect) (x0, y0, x1, y1 int) {
	x0 = g.clampX(r.Lo.X - g.bounds.Lo.X)
	x1 = g.clampX(r.Hi.X - g.bounds.Lo.X)
	y0 = g.clampY(r.Lo.Y - g.bounds.Lo.Y)
	y1 = g.clampY(r.Hi.Y - g.bounds.Lo.Y)
	return
}

func (g *Grid) clampX(dx int64) int {
	i := int(dx / g.cw)
	if i < 0 {
		return 0
	}
	if i >= g.nx {
		return g.nx - 1
	}
	return i
}

func (g *Grid) clampY(dy int64) int {
	i := int(dy / g.ch)
	if i < 0 {
		return 0
	}
	if i >= g.ny {
		return g.ny - 1
	}
	return i
}

// InsertRect records id in every cell r overlaps.
func (g *Grid) InsertRect(id int32, r Rect) {
	x0, y0, x1, y1 := g.cellRange(r)
	for y := y0; y <= y1; y++ {
		row := y * g.nx
		for x := x0; x <= x1; x++ {
			g.cells[row+x] = append(g.cells[row+x], id)
		}
	}
}

// QueryRect visits every id inserted into a cell that r overlaps, in
// deterministic (cell-major, insertion) order. Ids spanning several cells
// are visited once per cell — dedup at the caller.
func (g *Grid) QueryRect(r Rect, visit func(id int32)) {
	x0, y0, x1, y1 := g.cellRange(r)
	for y := y0; y <= y1; y++ {
		row := y * g.nx
		for x := x0; x <= x1; x++ {
			for _, id := range g.cells[row+x] {
				visit(id)
			}
		}
	}
}
