package geom

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPointManhattanDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want int64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 7},
		{Point{-2, 5}, Point{2, -5}, 14},
		{Point{10, 10}, Point{10, 11}, 1},
	}
	for _, c := range cases {
		if got := c.p.ManhattanDist(c.q); got != c.want {
			t.Errorf("ManhattanDist(%v,%v) = %d, want %d", c.p, c.q, got, c.want)
		}
		if got := c.q.ManhattanDist(c.p); got != c.want {
			t.Errorf("symmetry: ManhattanDist(%v,%v) = %d, want %d", c.q, c.p, got, c.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := RectWH(10, 20, 30, 40)
	if r.W() != 30 || r.H() != 40 {
		t.Fatalf("W,H = %d,%d want 30,40", r.W(), r.H())
	}
	if r.Area() != 1200 {
		t.Fatalf("Area = %d want 1200", r.Area())
	}
	if r.HalfPerimeter() != 70 {
		t.Fatalf("HalfPerimeter = %d want 70", r.HalfPerimeter())
	}
	if got := r.Center(); got != (Point{25, 40}) {
		t.Fatalf("Center = %v want (25,40)", got)
	}
	if !r.Contains(Point{10, 20}) || !r.Contains(Point{40, 60}) {
		t.Fatal("boundary points must be contained")
	}
	if r.Contains(Point{9, 20}) || r.Contains(Point{10, 61}) {
		t.Fatal("exterior points must not be contained")
	}
}

func TestRectIntersect(t *testing.T) {
	a := RectWH(0, 0, 10, 10)
	b := RectWH(5, 5, 10, 10)
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := Rect{Point{5, 5}, Point{10, 10}}
	if got != want {
		t.Fatalf("Intersect = %v want %v", got, want)
	}

	c := RectWH(20, 20, 5, 5)
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint rects must not intersect")
	}

	// Boundary touch: overlap true, strict overlap false, intersection is a
	// degenerate (zero-area) rect.
	d := RectWH(10, 0, 5, 10)
	if !a.Overlaps(d) {
		t.Fatal("touching rects overlap (inclusive)")
	}
	if a.OverlapsStrict(d) {
		t.Fatal("touching rects do not overlap strictly")
	}
	e, ok := a.Intersect(d)
	if !ok || e.Area() != 0 {
		t.Fatalf("touching intersection should be degenerate, got %v ok=%v", e, ok)
	}
}

func TestRectClampPoint(t *testing.T) {
	r := RectWH(0, 0, 10, 10)
	cases := []struct{ in, want Point }{
		{Point{5, 5}, Point{5, 5}},
		{Point{-3, 5}, Point{0, 5}},
		{Point{15, 20}, Point{10, 10}},
		{Point{4, -9}, Point{4, 0}},
	}
	for _, c := range cases {
		if got := r.ClampPoint(c.in); got != c.want {
			t.Errorf("ClampPoint(%v) = %v want %v", c.in, got, c.want)
		}
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{3, 7}, {-1, 2}, {5, 5}, {0, 9}}
	bb := BoundingBox(pts)
	if bb != (Rect{Point{-1, 2}, Point{5, 9}}) {
		t.Fatalf("BoundingBox = %v", bb)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BoundingBox(nil) should panic")
		}
	}()
	BoundingBox(nil)
}

func TestIntersectAll(t *testing.T) {
	rs := []Rect{RectWH(0, 0, 10, 10), RectWH(2, 2, 10, 10), RectWH(4, 0, 10, 10)}
	got, ok := IntersectAll(rs)
	if !ok {
		t.Fatal("expected nonempty intersection")
	}
	if got != (Rect{Point{4, 2}, Point{10, 10}}) {
		t.Fatalf("IntersectAll = %v", got)
	}
	if _, ok := IntersectAll(nil); ok {
		t.Fatal("empty set has no intersection")
	}
	rs = append(rs, RectWH(100, 100, 1, 1))
	if _, ok := IntersectAll(rs); ok {
		t.Fatal("disjoint member should empty the intersection")
	}
}

func TestConvexHullSquarePlusInterior(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {5, 5}, {3, 2}}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d want 4 (%v)", len(hull), hull)
	}
	want := map[Point]bool{{0, 0}: true, {10, 0}: true, {10, 10}: true, {0, 10}: true}
	for _, p := range hull {
		if !want[p] {
			t.Fatalf("unexpected hull vertex %v", p)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Fatalf("hull of empty = %v", h)
	}
	h := ConvexHull([]Point{{3, 3}, {3, 3}})
	if len(h) != 1 || h[0] != (Point{3, 3}) {
		t.Fatalf("hull of coincident points = %v", h)
	}
	h = ConvexHull([]Point{{0, 0}, {5, 5}, {2, 2}, {9, 9}})
	if len(h) != 2 {
		t.Fatalf("collinear hull = %v, want 2 endpoints", h)
	}
	bb := BoundingBox(h)
	if bb != (Rect{Point{0, 0}, Point{9, 9}}) {
		t.Fatalf("collinear hull endpoints wrong: %v", h)
	}
}

func TestPolygonContains(t *testing.T) {
	hull := ConvexHull([]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	in := []Point{{5, 5}, {0, 0}, {10, 10}, {0, 5}, {10, 5}, {1, 9}}
	out := []Point{{-1, 5}, {11, 5}, {5, -1}, {5, 11}, {11, 11}}
	for _, p := range in {
		if !PolygonContains(hull, p) {
			t.Errorf("point %v should be inside", p)
		}
	}
	for _, p := range out {
		if PolygonContains(hull, p) {
			t.Errorf("point %v should be outside", p)
		}
	}
	// Degenerate polygons.
	if !PolygonContains([]Point{{2, 2}}, Point{2, 2}) || PolygonContains([]Point{{2, 2}}, Point{2, 3}) {
		t.Error("1-point polygon containment wrong")
	}
	seg := []Point{{0, 0}, {4, 4}}
	if !PolygonContains(seg, Point{2, 2}) || PolygonContains(seg, Point{2, 3}) || PolygonContains(seg, Point{5, 5}) {
		t.Error("segment containment wrong")
	}
	if PolygonContains(nil, Point{0, 0}) {
		t.Error("empty polygon contains nothing")
	}
}

func TestPolygonContainsTriangle(t *testing.T) {
	hull := ConvexHull([]Point{{0, 0}, {10, 0}, {5, 10}})
	if !PolygonContains(hull, Point{5, 3}) {
		t.Error("interior point of triangle")
	}
	if PolygonContains(hull, Point{1, 9}) {
		t.Error("exterior point of triangle")
	}
	if !PolygonContains(hull, Point{5, 10}) {
		t.Error("apex vertex")
	}
}

// Property: every input point is inside the hull polygon.
func TestConvexHullContainsAllInputs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{int64(rng.Intn(200) - 100), int64(rng.Intn(200) - 100)}
		}
		hull := ConvexHull(pts)
		for _, p := range pts {
			if !PolygonContains(hull, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the hull is convex — every cross product of consecutive edge
// pairs is non-negative (CCW) — and hull vertices are a subset of the input.
func TestConvexHullIsConvexCCW(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(60)
		pts := make([]Point, n)
		set := map[Point]bool{}
		for i := range pts {
			pts[i] = Point{int64(rng.Intn(100)), int64(rng.Intn(100))}
			set[pts[i]] = true
		}
		hull := ConvexHull(pts)
		for _, v := range hull {
			if !set[v] {
				return false // hull vertex not from input
			}
		}
		if len(hull) < 3 {
			return true // degenerate is fine
		}
		for i := range hull {
			a := hull[i]
			b := hull[(i+1)%len(hull)]
			c := hull[(i+2)%len(hull)]
			if cross(a, b, c) <= 0 {
				return false // not strictly convex CCW
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hull is invariant under input permutation.
func TestConvexHullPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{int64(rng.Intn(50)), int64(rng.Intn(50))}
		}
		h1 := ConvexHull(pts)
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		h2 := ConvexHull(pts)
		return samePointSet(h1, h2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func samePointSet(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p Point) [2]int64 { return [2]int64{p.X, p.Y} }
	ka := make([][2]int64, len(a))
	kb := make([][2]int64, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	less := func(s [][2]int64) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i][0] != s[j][0] {
				return s[i][0] < s[j][0]
			}
			return s[i][1] < s[j][1]
		}
	}
	sort.Slice(ka, less(ka))
	sort.Slice(kb, less(kb))
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// Property: bounding box of hull equals bounding box of input.
func TestConvexHullPreservesBoundingBox(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{int64(rng.Intn(1000)), int64(rng.Intn(1000))}
		}
		return BoundingBox(ConvexHull(pts)) == BoundingBox(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRectCorners(t *testing.T) {
	r := RectWH(1, 2, 3, 4)
	c := r.Corners()
	want := [4]Point{{1, 2}, {4, 2}, {4, 6}, {1, 6}}
	if c != want {
		t.Fatalf("Corners = %v want %v", c, want)
	}
}
