// Package geom provides the planar geometry primitives used throughout the
// MBR composition flow: points, rectangles, Manhattan metrics, convex hulls
// and point-in-polygon tests.
//
// All coordinates are in database units (DBU). One micron is typically 1000
// DBU; the package itself is unit-agnostic.
package geom

import (
	"fmt"
	"sort"
)

// Point is a location in the placement plane, in database units.
type Point struct {
	X, Y int64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) int64 {
	return absInt64(p.X-q.X) + absInt64(p.Y-q.Y)
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Rect is an axis-aligned rectangle. Lo is the lower-left corner, Hi the
// upper-right. A Rect is valid when Lo.X <= Hi.X and Lo.Y <= Hi.Y; a
// degenerate rectangle (zero width and/or height) is valid and represents a
// point or segment.
type Rect struct {
	Lo, Hi Point
}

// RectWH returns a rectangle with lower-left at (x, y) and the given size.
func RectWH(x, y, w, h int64) Rect {
	return Rect{Lo: Point{x, y}, Hi: Point{x + w, y + h}}
}

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("[%v %v]", r.Lo, r.Hi) }

// Valid reports whether r's corners are ordered.
func (r Rect) Valid() bool { return r.Lo.X <= r.Hi.X && r.Lo.Y <= r.Hi.Y }

// W returns the width of r.
func (r Rect) W() int64 { return r.Hi.X - r.Lo.X }

// H returns the height of r.
func (r Rect) H() int64 { return r.Hi.Y - r.Lo.Y }

// Area returns the area of r.
func (r Rect) Area() int64 { return r.W() * r.H() }

// HalfPerimeter returns W+H, the half-perimeter wirelength of r seen as a
// net bounding box.
func (r Rect) HalfPerimeter() int64 { return r.W() + r.H() }

// Center returns the center of r, rounded toward Lo.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r, boundary inclusive.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Lo) && r.Contains(s.Hi)
}

// Overlaps reports whether r and s share any point (boundary touch counts).
func (r Rect) Overlaps(s Rect) bool {
	return r.Lo.X <= s.Hi.X && s.Lo.X <= r.Hi.X && r.Lo.Y <= s.Hi.Y && s.Lo.Y <= r.Hi.Y
}

// OverlapsStrict reports whether r and s share interior area.
func (r Rect) OverlapsStrict(s Rect) bool {
	return r.Lo.X < s.Hi.X && s.Lo.X < r.Hi.X && r.Lo.Y < s.Hi.Y && s.Lo.Y < r.Hi.Y
}

// Intersect returns the intersection of r and s. The second result is false
// when they do not overlap at all; the returned rectangle is then invalid.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Lo: Point{max64(r.Lo.X, s.Lo.X), max64(r.Lo.Y, s.Lo.Y)},
		Hi: Point{min64(r.Hi.X, s.Hi.X), min64(r.Hi.Y, s.Hi.Y)},
	}
	return out, out.Valid()
}

// Corners returns the four corners of r in counter-clockwise order starting
// at the lower-left.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Lo,
		{r.Hi.X, r.Lo.Y},
		r.Hi,
		{r.Lo.X, r.Hi.Y},
	}
}

// ClampPoint returns the point of r closest (in L1 and L∞) to p.
func (r Rect) ClampPoint(p Point) Point {
	return Point{clamp64(p.X, r.Lo.X, r.Hi.X), clamp64(p.Y, r.Lo.Y, r.Hi.Y)}
}

// BoundingBox returns the smallest rectangle containing all pts. It panics
// when pts is empty.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingBox of empty point set")
	}
	r := Rect{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		r.Lo.X = min64(r.Lo.X, p.X)
		r.Lo.Y = min64(r.Lo.Y, p.Y)
		r.Hi.X = max64(r.Hi.X, p.X)
		r.Hi.Y = max64(r.Hi.Y, p.Y)
	}
	return r
}

// IntersectAll intersects all rectangles. The second result is false when
// the common intersection is empty or rs is empty.
func IntersectAll(rs []Rect) (Rect, bool) {
	if len(rs) == 0 {
		return Rect{}, false
	}
	acc := rs[0]
	for _, r := range rs[1:] {
		var ok bool
		acc, ok = acc.Intersect(r)
		if !ok {
			return Rect{}, false
		}
	}
	return acc, true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// cross returns the z-component of (b-a) × (c-a). Positive when a→b→c turns
// counter-clockwise.
func cross(a, b, c Point) int64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// ConvexHull returns the convex hull of pts in counter-clockwise order using
// Andrew's monotone chain. Collinear points on hull edges are dropped.
// Degenerate inputs are handled: the hull of coincident points is a single
// point, of collinear points a two-point segment.
func ConvexHull(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	ps := make([]Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Dedup.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) == 1 {
		return []Point{ps[0]}
	}
	var lower, upper []Point
	for _, p := range ps {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(hull) == 0 { // all collinear: lower holds the full chain
		hull = []Point{ps[0], ps[len(ps)-1]}
	}
	return hull
}

// PolygonContains reports whether p lies inside or on the boundary of the
// convex polygon poly (vertices in CCW order, as returned by ConvexHull).
// A 1-point polygon contains only that point; a 2-point polygon contains the
// points of the segment.
func PolygonContains(poly []Point, p Point) bool {
	switch len(poly) {
	case 0:
		return false
	case 1:
		return poly[0] == p
	case 2:
		return onSegment(poly[0], poly[1], p)
	}
	for i := range poly {
		a, b := poly[i], poly[(i+1)%len(poly)]
		if cross(a, b, p) < 0 {
			return false
		}
	}
	return true
}

// onSegment reports whether p lies on the closed segment ab.
func onSegment(a, b, p Point) bool {
	if cross(a, b, p) != 0 {
		return false
	}
	return p.X >= min64(a.X, b.X) && p.X <= max64(a.X, b.X) &&
		p.Y >= min64(a.Y, b.Y) && p.Y <= max64(a.Y, b.Y)
}
