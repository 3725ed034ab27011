package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// placeTestDesign is a bare design for §4.2 LP tests: a 400 µm square core
// on the default 100 × 1200 site/row grid. Only snapToGrid reads it.
func placeTestDesign() *netlist.Design {
	return netlist.NewDesign("place", geom.RectWH(0, 0, 400000, 400000), lib.MustGenerateDefault())
}

// randomPlaceInputs draws one §4.2 LP over d's core with the given job
// count. The region is a point, a line, a wide rectangle clamped to the
// core fit of a random cell (as placementInputs clamps it), or one that
// pokes out of the core. Each job's net box is a point or a wide box near
// the region or far from it; its pin offset lies inside the cell.
// Coordinates sometimes sit on a coarse grid, so breakpoints tie.
func randomPlaceInputs(rng *rand.Rand, d *netlist.Design, jobs int) placeInputs {
	core := d.Core
	quantum := int64(1)
	if rng.Intn(2) == 0 {
		quantum = 1200
	}
	span := func(n int64) int64 { return rng.Int63n(n/quantum+1) * quantum }
	cellW, cellH := 500+span(8000), 1200+span(4800)
	at := geom.Point{X: core.Lo.X + span(core.W()), Y: core.Lo.Y + span(core.H())}

	var region geom.Rect
	switch rng.Intn(4) {
	case 0: // degenerate: one point
		region = geom.Rect{Lo: at, Hi: at}
	case 1: // degenerate: a horizontal or vertical line
		region = geom.Rect{Lo: at, Hi: at}
		if rng.Intn(2) == 0 {
			region.Hi.X += span(60000)
		} else {
			region.Hi.Y += span(60000)
		}
	case 2: // wide, clamped to the core fit
		region = geom.Rect{Lo: at, Hi: geom.Point{X: at.X + span(200000), Y: at.Y + span(200000)}}
		coreFit := geom.Rect{Lo: core.Lo, Hi: geom.Point{X: core.Hi.X - cellW, Y: core.Hi.Y - cellH}}
		if r, ok := region.Intersect(coreFit); ok {
			region = r
		}
	default: // pokes out of the core
		region = geom.Rect{
			Lo: geom.Point{X: at.X - span(300000), Y: at.Y - span(300000)},
			Hi: geom.Point{X: at.X + span(300000), Y: at.Y + span(300000)},
		}
	}

	in := placeInputs{region: region}
	spread := []int64{2400, 40000, 500000}[rng.Intn(3)]
	for j := 0; j < jobs; j++ {
		lo := geom.Point{
			X: at.X - spread + span(2*spread),
			Y: at.Y - spread + span(2*spread),
		}
		box := geom.Rect{Lo: lo, Hi: lo}
		if rng.Intn(3) != 0 {
			box.Hi.X += span(spread)
			box.Hi.Y += span(spread)
		}
		in.jobs = append(in.jobs, pinJob{
			off: lib.PinOffset{DX: span(cellW), DY: span(cellH)},
			box: box,
		})
	}
	return in
}

// axisCost is one axis of the §4.2 objective at corner coordinate c: the
// summed extent of every job's net box widened by its pin.
func axisCost(jobs []pinJob, a axis, c int64) int64 {
	var sum int64
	for _, j := range jobs {
		lo, hi, p := j.box.Lo.X, j.box.Hi.X, c+j.off.DX
		if a == axisY {
			lo, hi, p = j.box.Lo.Y, j.box.Hi.Y, c+j.off.DY
		}
		sum += max(hi, p) - min(lo, p)
	}
	return sum
}

// checkAxisInterval checks axisInterval against the objective itself: both
// ends cost the same, nothing in the region costs less (a piecewise-linear
// function's minimum over [lo, hi] is at a breakpoint or a bound), and the
// cost rises just outside the interval wherever the region extends.
func checkAxisInterval(t *testing.T, in *placeInputs, a axis) {
	t.Helper()
	lo, hi := in.region.Lo.X, in.region.Hi.X
	if a == axisY {
		lo, hi = in.region.Lo.Y, in.region.Hi.Y
	}
	left, right := axisInterval(lo, hi, in.jobs, a)
	if left > right || left < lo || right > hi {
		t.Fatalf("axis %d: interval [%d, %d] outside region [%d, %d]", a, left, right, lo, hi)
	}
	best := axisCost(in.jobs, a, left)
	if c := axisCost(in.jobs, a, right); c != best {
		t.Fatalf("axis %d: cost %d at left end %d, %d at right end %d", a, best, left, c, right)
	}
	probe := []int64{lo, hi}
	for _, j := range in.jobs {
		off, blo, bhi := j.off.DX, j.box.Lo.X, j.box.Hi.X
		if a == axisY {
			off, blo, bhi = j.off.DY, j.box.Lo.Y, j.box.Hi.Y
		}
		probe = append(probe, blo-off, bhi-off)
	}
	for _, c := range probe {
		if c < lo || c > hi {
			continue
		}
		if cost := axisCost(in.jobs, a, c); cost < best {
			t.Fatalf("axis %d: cost %d at %d beats the interval's %d", a, cost, c, best)
		}
	}
	if left > lo && axisCost(in.jobs, a, left-1) <= best {
		t.Fatalf("axis %d: optimum set extends left of %d", a, left)
	}
	if right < hi && axisCost(in.jobs, a, right+1) <= best {
		t.Fatalf("axis %d: optimum set extends right of %d", a, right)
	}
}

// FuzzClosedFormMatchesSimplex checks solvePlacement's closed form against
// the simplex on random §4.2 LPs with 1–24 jobs: wherever the closed form
// is taken (both axes' optimum sets snap to one grid point, or the LP is
// in leftEndDomain) the snapped position must equal simplexPlacement's. It
// also checks each axis's interval against the objective itself. Equality
// in leftEndDomain is a property of the simplex's pivot path, observed
// rather than proved; this target is what would find a counterexample.
// The inputs reach past that domain on every side (fewer jobs, point and
// line regions, regions below the core origin), so it also checks that
// the dispatch keeps those LPs on the simplex.
func FuzzClosedFormMatchesSimplex(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(2), uint8(16))
	f.Add(int64(3), uint8(4))
	f.Add(int64(4), uint8(9))
	f.Add(int64(5), uint8(23))
	f.Add(int64(6), uint8(1))
	d := placeTestDesign()
	f.Fuzz(func(t *testing.T, seed int64, jobs uint8) {
		n := 1 + int(jobs)%24
		in := randomPlaceInputs(rand.New(rand.NewSource(seed)), d, n)
		checkAxisInterval(t, &in, axisX)
		checkAxisInterval(t, &in, axisY)
		xl, xr := axisInterval(in.region.Lo.X, in.region.Hi.X, in.jobs, axisX)
		yl, yr := axisInterval(in.region.Lo.Y, in.region.Hi.Y, in.jobs, axisY)
		pos, closed, err := solvePlacement(d, &in)
		if err != nil {
			t.Fatal(err)
		}
		left := snapToGrid(d, geom.Point{X: xl, Y: yl}, in.region)
		if want := left == snapToGrid(d, geom.Point{X: xr, Y: yr}, in.region) || leftEndDomain(&in); closed != want {
			t.Fatalf("%d jobs, intervals x [%d, %d] y [%d, %d]: closed form %v, want %v",
				n, xl, xr, yl, yr, closed, want)
		}
		sp, err := simplexPlacement(d, &in)
		if err != nil {
			t.Fatal(err)
		}
		if closed && pos != sp {
			t.Fatalf("%d jobs, region %v, intervals x [%d, %d] y [%d, %d]: closed form %v, simplex %v",
				n, in.region, xl, xr, yl, yr, pos, sp)
		}
	})
}

// TestClosedFormPlacementsEngage composes a design whose 8-bit MBRs have
// closedFormJobs or more D/Q jobs: the closed form must place some of
// them, and the count must not depend on the worker count.
func TestClosedFormPlacementsEngage(t *testing.T) {
	spec := randomSpec(3)
	counts := map[int]int{}
	for _, workers := range []int{1, 2} {
		d, g, plan := genComposeInput(t, spec)
		opts := DefaultOptions()
		opts.Workers = workers
		res, err := Compose(d, g, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		wide := 0
		for _, m := range res.MBRs {
			if m.Bits >= closedFormJobs/2 {
				wide++
			}
		}
		if wide == 0 {
			t.Fatalf("no MBR has %d or more jobs: the fixture no longer reaches leftEndDomain", closedFormJobs)
		}
		if res.ClosedFormPlacements == 0 {
			t.Fatalf("workers=%d: %d MBRs (%d with ≥ %d bits), none placed in closed form",
				workers, len(res.MBRs), wide, closedFormJobs/2)
		}
		t.Logf("workers=%d: %d of %d MBRs placed in closed form", workers, res.ClosedFormPlacements, len(res.MBRs))
		counts[workers] = res.ClosedFormPlacements
	}
	if counts[1] != counts[2] {
		t.Fatalf("closed-form placements %d at workers=1, %d at workers=2", counts[1], counts[2])
	}
}

// BenchmarkSolvePlacement times one §4.2 solve over a pool of random LPs:
// jobs=4 (a 2-bit MBR) draws only LPs that reach the simplex, jobs=16 (an
// 8-bit MBR) only LPs solved in closed form.
func BenchmarkSolvePlacement(b *testing.B) {
	d := placeTestDesign()
	for _, jobs := range []int{4, 16} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			var pool []placeInputs
			for len(pool) < 64 {
				in := randomPlaceInputs(rng, d, jobs)
				if _, closed, _ := solvePlacement(d, &in); closed == (jobs >= closedFormJobs) {
					pool = append(pool, in)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := solvePlacement(d, &pool[i%len(pool)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
