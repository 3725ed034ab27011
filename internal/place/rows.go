package place

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// rowBlocks is the number of x-blocks each row keeps a gap bound for.
const rowBlocks = 64

type span struct{ lo, hi int64 }

// row is one placement row's occupancy.
//
//   - raw holds the blocked spans as inserted, sorted by lo with overlaps
//     allowed, so unblock can give back exactly one contributor.
//   - union is raw's union as disjoint sorted spans; touching spans merge,
//     so consecutive union spans are separated by a gap of positive width.
//   - bound[b] is an upper bound on the width of the widest free gap
//     (clipped to the core) that overlaps x-block b.
//
// A stale row's union and bounds are out of date; the row search rebuilds
// them from raw on first use. Bulk builds and unblock leave rows stale,
// so neither pays per-span union or bound work.
type row struct {
	raw   []span
	union []span
	bound [rowBlocks]int64
	stale bool
}

// rowSpace tracks the occupied spans of every placement row.
type rowSpace struct {
	core  geom.Rect
	rowH  int64
	siteW int64
	// blockW is the x-block width: the core width over rowBlocks, rounded
	// up.
	blockW int64
	rows   []row
}

func newRowSpace(d *netlist.Design) *rowSpace {
	nRows := int((d.Core.H()) / d.RowH)
	if nRows < 1 {
		nRows = 1
	}
	rs := &rowSpace{
		core: d.Core, rowH: d.RowH, siteW: d.SiteW,
		blockW: (d.Core.W() + rowBlocks - 1) / rowBlocks,
		rows:   make([]row, nRows),
	}
	if rs.blockW < 1 {
		rs.blockW = 1
	}
	for r := range rs.rows {
		rs.rows[r].stale = true
	}
	return rs
}

func (rs *rowSpace) rowOf(y int64) int {
	return int((y - rs.core.Lo.Y) / rs.rowH)
}

func (rs *rowSpace) rowY(r int) int64 { return rs.core.Lo.Y + int64(r)*rs.rowH }

// blockOf returns the x-block holding x, clamped to the row's blocks.
func (rs *rowSpace) blockOf(x int64) int {
	b := (x - rs.core.Lo.X) / rs.blockW
	if b < 0 {
		return 0
	}
	if b >= rowBlocks {
		return rowBlocks - 1
	}
	return int(b)
}

// block marks [lo,hi) occupied in every row the rect touches. A fresh row
// merges the span into its union and retightens the bounds of the blocks
// it touches, plus one on each side; gaps only shrink, so every other
// bound stays a valid upper bound.
func (rs *rowSpace) block(b geom.Rect) {
	s := span{b.Lo.X, b.Hi.X}
	rs.eachRow(b, func(rw *row) {
		idx := sort.Search(len(rw.raw), func(i int) bool { return rw.raw[i].lo >= s.lo })
		rw.raw = append(rw.raw, span{})
		copy(rw.raw[idx+1:], rw.raw[idx:])
		rw.raw[idx] = s
		if !rw.stale {
			rw.union = mergeSpan(rw.union, s)
			rs.tighten(rw, rs.blockOf(s.lo)-1, rs.blockOf(s.hi-1)+1)
		}
	})
}

// unblock removes one exact copy of the rect's span from every row it
// touches and leaves those rows stale.
func (rs *rowSpace) unblock(b geom.Rect) {
	s := span{b.Lo.X, b.Hi.X}
	rs.eachRow(b, func(rw *row) {
		idx := sort.Search(len(rw.raw), func(i int) bool { return rw.raw[i].lo >= s.lo })
		for i := idx; i < len(rw.raw) && rw.raw[i].lo == s.lo; i++ {
			if rw.raw[i].hi == s.hi {
				rw.raw = append(rw.raw[:i], rw.raw[i+1:]...)
				rw.stale = true
				return
			}
		}
		// The caller's bookkeeping pairs every unblock with an earlier
		// block; a miss means the retained occupancy has drifted from the
		// design.
		panic("place: unblock of a span that was never blocked")
	})
}

func (rs *rowSpace) eachRow(b geom.Rect, f func(*row)) {
	r0 := rs.rowOf(b.Lo.Y)
	r1 := rs.rowOf(b.Hi.Y - 1)
	for r := r0; r <= r1; r++ {
		if r >= 0 && r < len(rs.rows) {
			f(&rs.rows[r])
		}
	}
}

// mergeSpan merges s into the disjoint sorted union u, coalescing every
// span it overlaps or touches.
func mergeSpan(u []span, s span) []span {
	i := sort.Search(len(u), func(k int) bool { return u[k].hi >= s.lo })
	j := i
	for j < len(u) && u[j].lo <= s.hi {
		if u[j].lo < s.lo {
			s.lo = u[j].lo
		}
		if u[j].hi > s.hi {
			s.hi = u[j].hi
		}
		j++
	}
	if i == j {
		u = append(u, span{})
		copy(u[i+1:], u[i:])
		u[i] = s
		return u
	}
	u[i] = s
	return append(u[:i+1], u[j:]...)
}

// gap returns gap k of the row's union, clipped to the core: gap 0 lies
// left of union[0], gap len(union) right of the last span. A clipped gap
// may be empty or inverted (hi <= lo).
func (rs *rowSpace) gap(u []span, k int) (lo, hi int64) {
	lo, hi = rs.core.Lo.X, rs.core.Hi.X
	if k > 0 && u[k-1].hi > lo {
		lo = u[k-1].hi
	}
	if k < len(u) && u[k].lo < hi {
		hi = u[k].lo
	}
	return lo, hi
}

// rebuild recomputes a stale row's union and every block bound from raw.
func (rs *rowSpace) rebuild(rw *row) {
	u := rw.union[:0]
	for _, s := range rw.raw {
		if n := len(u); n > 0 && s.lo <= u[n-1].hi {
			if s.hi > u[n-1].hi {
				u[n-1].hi = s.hi
			}
		} else {
			u = append(u, s)
		}
	}
	rw.union = u
	rw.stale = false
	rs.tighten(rw, 0, rowBlocks-1)
}

// tighten sets the bounds of blocks b0..b1 (clamped) to the exact width of
// the widest gap overlapping each of them.
func (rs *rowSpace) tighten(rw *row, b0, b1 int) {
	b0, b1 = max(b0, 0), min(b1, rowBlocks-1)
	for b := b0; b <= b1; b++ {
		rw.bound[b] = 0
	}
	lo := rs.core.Lo.X + int64(b0)*rs.blockW
	hi := rs.core.Lo.X + int64(b1+1)*rs.blockW
	if b1 == rowBlocks-1 {
		hi = rs.core.Hi.X
	}
	u := rw.union
	// Gaps before k end at or left of lo; walk the ones starting before hi.
	k := sort.Search(len(u), func(i int) bool { return u[i].lo > lo })
	for ; k <= len(u); k++ {
		glo, ghi := rs.gap(u, k)
		if glo >= hi {
			break
		}
		if ghi <= glo || ghi <= lo {
			continue
		}
		w := ghi - glo
		for b, b2 := max(rs.blockOf(glo), b0), min(rs.blockOf(ghi-1), b1); b <= b2; b++ {
			if w > rw.bound[b] {
				rw.bound[b] = w
			}
		}
	}
}

// bestInRow finds the x for a width-w cell in row r closest to targetX,
// within the core. With limit >= 0 only positions strictly closer than
// limit count. Of equally close positions the leftmost wins. Returns
// ok=false when no position qualifies.
func (rs *rowSpace) bestInRow(r int, targetX, w, limit int64) (int64, bool) {
	if r < 0 || r >= len(rs.rows) {
		return 0, false
	}
	rw := &rs.rows[r]
	if rw.stale {
		rs.rebuild(rw)
	}
	if limit >= 0 && !rs.mayFit(rw, targetX, w, limit) {
		return 0, false
	}
	u := rw.union
	// Gap k0 holds targetX or is the first gap right of it; gaps below k0
	// end at or left of targetX, gaps above it start right of targetX.
	k0 := sort.Search(len(u), func(i int) bool { return u[i].lo > targetX })
	bestX, bestCost, bestK, found := int64(0), limit, 0, false
	consider := func(k int) {
		glo, ghi := rs.gap(u, k)
		x, ok := rs.fit(glo, ghi, targetX, w)
		if !ok {
			return
		}
		cost := abs64(x - targetX)
		if bestCost < 0 || cost < bestCost || found && cost == bestCost && k < bestK {
			bestX, bestCost, bestK, found = x, cost, k, true
		}
	}
	consider(k0)
	// Walk outward, nearer side first. bestCost bounds the walk (-1 while
	// unbounded). A left gap's position is at least w left of its right
	// edge and a right gap's is at or right of its left edge, so each side
	// stops once its next near edge is as far as the bound: no farther gap
	// can beat it, nor tie it from the right.
	left, right := k0-1, k0+1
	for {
		dl, dr := int64(-1), int64(-1)
		left, right = rs.skipLeft(rw, left, w), rs.skipRight(rw, right, w)
		if left >= 0 {
			_, ghi := rs.gap(u, left)
			if d := targetX - ghi; bestCost < 0 || d < bestCost {
				dl = d
			}
		}
		if right <= len(u) {
			glo, _ := rs.gap(u, right)
			if d := glo - targetX; bestCost < 0 || d < bestCost {
				dr = d
			}
		}
		switch {
		case dl >= 0 && (dr < 0 || dl <= dr):
			consider(left)
			left--
		case dr >= 0:
			consider(right)
			right++
		default:
			return bestX, found
		}
	}
}

// skipLeft returns the nearest gap at or left of gap k that may be w wide:
// a gap ending in a block whose bound is below w is narrower than w. It
// returns -1 when no such gap remains.
func (rs *rowSpace) skipLeft(rw *row, k int, w int64) int {
	if k < 0 {
		return k
	}
	u := rw.union
	_, ghi := rs.gap(u, k)
	b := rs.blockOf(ghi - 1)
	if rw.bound[b] >= w {
		return k
	}
	for b >= 0 && rw.bound[b] < w {
		b--
	}
	if b < 0 {
		return -1
	}
	end := rs.core.Lo.X + int64(b+1)*rs.blockW
	return sort.Search(len(u), func(i int) bool { return u[i].lo > end }) - 1
}

// skipRight returns the nearest gap at or right of gap k that may be w
// wide: a gap starting in a block whose bound is below w is narrower than
// w. It returns len(union)+1 when no such gap remains.
func (rs *rowSpace) skipRight(rw *row, k int, w int64) int {
	u := rw.union
	if k > len(u) {
		return k
	}
	glo, _ := rs.gap(u, k)
	b := rs.blockOf(glo)
	if rw.bound[b] >= w {
		return k
	}
	for b < rowBlocks && rw.bound[b] < w {
		b++
	}
	if b == rowBlocks {
		return len(u) + 1
	}
	start := rs.core.Lo.X + int64(b)*rs.blockW
	return sort.Search(len(u), func(i int) bool { return u[i].hi >= start }) + 1
}

// mayFit reports whether some block within limit of targetX has a bound of
// at least w. When none does, no gap of the row can take the cell closer
// than limit.
func (rs *rowSpace) mayFit(rw *row, targetX, w, limit int64) bool {
	lo := max(targetX-limit+1, rs.core.Lo.X)
	hi := min(targetX+limit-1, rs.core.Hi.X-1)
	if lo > hi {
		return false
	}
	for _, bw := range rw.bound[rs.blockOf(lo) : rs.blockOf(hi)+1] {
		if bw >= w {
			return true
		}
	}
	return false
}

// fit places a width-w cell in the gap [glo,ghi) at targetX clamped into
// the gap and snapped down to the site grid, or one site right of that
// when the snap leaves the gap.
func (rs *rowSpace) fit(glo, ghi, targetX, w int64) (int64, bool) {
	if ghi-glo < w {
		return 0, false
	}
	x := clamp(targetX, glo, ghi-w)
	x = snap(x, rs.core.Lo.X, rs.siteW)
	if x < glo {
		x += rs.siteW
	}
	return x, x+w <= ghi
}
