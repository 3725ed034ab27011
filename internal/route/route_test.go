package route

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

var testLib = lib.MustGenerateDefault()

func newDesign() *netlist.Design {
	return netlist.NewDesign("r", geom.RectWH(0, 0, 96000, 96000), testLib)
}

// wireUp adds a 2-pin net between two new 1-bit registers at the given
// points.
func wireUp(t testing.TB, d *netlist.Design, i int, a, b geom.Point) {
	t.Helper()
	cell := testLib.CellsOfWidth(lib.FuncClass{Kind: lib.FlipFlop}, 1)[0]
	r1, err := d.AddRegister(fmt.Sprintf("a%d", i), cell, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.AddRegister(fmt.Sprintf("b%d", i), cell, b)
	if err != nil {
		t.Fatal(err)
	}
	n := d.AddNet(fmt.Sprintf("n%d", i), false)
	d.Connect(d.QPin(r1, 0), n)
	d.Connect(d.DPin(r2, 0), n)
}

func TestEstimateEmptyDesign(t *testing.T) {
	d := newDesign()
	m := Estimate(d, DefaultOptions())
	if m.OverflowEdges() != 0 || m.TotalOverflow() != 0 {
		t.Fatal("empty design must have zero overflow")
	}
	if m.MaxUtilization() != 0 || m.AvgUtilization() != 0 {
		t.Fatal("empty design must have zero utilization")
	}
}

func TestDemandFollowsNetBBox(t *testing.T) {
	d := newDesign()
	// One horizontal net crossing several gcells.
	wireUp(t, d, 0, geom.Point{X: 0, Y: 48000}, geom.Point{X: 90000, Y: 48000})
	m := Estimate(d, DefaultOptions())
	var total float64
	for _, v := range m.HDemand {
		total += v
	}
	if total <= 0 {
		t.Fatal("horizontal net must create horizontal demand")
	}
	// A purely horizontal net creates no vertical demand (same g-row).
	var vtotal float64
	for _, v := range m.VDemand {
		vtotal += v
	}
	if vtotal != 0 {
		t.Fatalf("unexpected vertical demand %g", vtotal)
	}
}

func TestOverflowWhenConcentrated(t *testing.T) {
	d := newDesign()
	// Many long parallel nets through the same gcell row → overflow.
	for i := 0; i < 40; i++ {
		wireUp(t, d, i, geom.Point{X: 0, Y: 48000}, geom.Point{X: 90000, Y: 48000})
	}
	opts := DefaultOptions()
	opts.HCap = 8
	m := Estimate(d, opts)
	if m.OverflowEdges() == 0 {
		t.Fatal("expected overflow edges")
	}
	if m.MaxUtilization() <= 1 {
		t.Fatalf("max utilization %g should exceed 1", m.MaxUtilization())
	}
	if m.TotalOverflow() <= 0 {
		t.Fatal("expected positive total overflow")
	}
}

func TestSpreadingReducesOverflow(t *testing.T) {
	build := func(spread bool) int {
		d := newDesign()
		for i := 0; i < 40; i++ {
			y := int64(48000)
			if spread {
				y = int64(i * 2400)
			}
			wireUp(t, d, i, geom.Point{X: 0, Y: y}, geom.Point{X: 90000, Y: y})
		}
		opts := DefaultOptions()
		opts.HCap = 8
		return Estimate(d, opts).OverflowEdges()
	}
	packed := build(false)
	spread := build(true)
	if spread >= packed {
		t.Fatalf("spreading must reduce overflow: packed=%d spread=%d", packed, spread)
	}
}

func TestClockNetInclusion(t *testing.T) {
	d := newDesign()
	cell := testLib.CellsOfWidth(lib.FuncClass{Kind: lib.FlipFlop}, 1)[0]
	clk := d.AddNet("clk", true)
	for i := 0; i < 10; i++ {
		r, err := d.AddRegister(fmt.Sprintf("r%d", i), cell, geom.Point{X: int64(i) * 9000, Y: 0})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), clk)
	}
	with := Estimate(d, Options{GCell: 4800, HCap: 12, VCap: 10, IncludeClock: true})
	without := Estimate(d, Options{GCell: 4800, HCap: 12, VCap: 10, IncludeClock: false})
	var sumWith, sumWithout float64
	for _, v := range with.HDemand {
		sumWith += v
	}
	for _, v := range without.HDemand {
		sumWithout += v
	}
	if sumWith <= sumWithout {
		t.Fatal("clock demand must appear when included")
	}
	if sumWithout != 0 {
		t.Fatal("clock-only design must have zero signal demand")
	}
}

func TestSinglePinNetIgnored(t *testing.T) {
	d := newDesign()
	cell := testLib.CellsOfWidth(lib.FuncClass{Kind: lib.FlipFlop}, 1)[0]
	r, _ := d.AddRegister("r", cell, geom.Point{X: 0, Y: 0})
	n := d.AddNet("dangling", false)
	d.Connect(d.QPin(r, 0), n)
	m := Estimate(d, DefaultOptions())
	var sum float64
	for _, v := range m.HDemand {
		sum += v
	}
	for _, v := range m.VDemand {
		sum += v
	}
	if sum != 0 {
		t.Fatal("single-pin nets must not create demand")
	}
}

func TestHpwlScaleMonotone(t *testing.T) {
	prev := 0.0
	for pins := 2; pins <= 30; pins++ {
		s := hpwlScale(pins)
		if s < prev {
			t.Fatalf("hpwlScale must be non-decreasing, %d pins: %g < %g", pins, s, prev)
		}
		prev = s
	}
}

// TestGridClampingAtBoundary pins gx/gy clamping: pins on the core
// boundary and arbitrarily far outside it must land inside [0, nx-1] /
// [0, ny-1] — Estimate must never index out of range from a stray pin.
func TestGridClampingAtBoundary(t *testing.T) {
	core := geom.RectWH(1000, 2000, 96000, 48000)
	g := gridFor(core, DefaultOptions())
	cases := []struct {
		x, y int64
	}{
		{core.Lo.X, core.Lo.Y},                 // lower-left corner
		{core.Hi.X, core.Hi.Y},                 // upper-right corner
		{core.Lo.X - 1, core.Lo.Y - 1},         // just outside
		{core.Hi.X + 1, core.Hi.Y + 1},         // just outside
		{core.Lo.X - 1<<40, core.Lo.Y - 1<<40}, // far outside
		{core.Hi.X + 1<<40, core.Hi.Y + 1<<40}, // far outside
	}
	for _, c := range cases {
		if got := g.gx(c.x); got < 0 || got >= g.nx {
			t.Fatalf("gx(%d) = %d out of [0,%d)", c.x, got, g.nx)
		}
		if got := g.gy(c.y); got < 0 || got >= g.ny {
			t.Fatalf("gy(%d) = %d out of [0,%d)", c.y, got, g.ny)
		}
	}
	if g.gx(core.Lo.X) != 0 || g.gy(core.Lo.Y) != 0 {
		t.Fatal("core origin must map to cell 0")
	}
	if g.gx(core.Hi.X+1<<40) != g.nx-1 || g.gy(core.Hi.Y+1<<40) != g.ny-1 {
		t.Fatal("far-outside points must clamp to the last cell")
	}
}

// TestDegenerateGridIsAtLeast2x2 checks the nx=2/ny=2 floor: a core
// smaller than one G-cell still yields one H and one V edge per row/column
// and correct edge indexing.
func TestDegenerateGridIsAtLeast2x2(t *testing.T) {
	opts := DefaultOptions()
	g := gridFor(geom.RectWH(0, 0, 10, 10), opts)
	if g.nx != 2 || g.ny != 2 {
		t.Fatalf("degenerate core must grid to 2x2, got %dx%d", g.nx, g.ny)
	}
	if g.hEdges() != 2 || g.vEdges() != 2 {
		t.Fatalf("2x2 grid must have 2 H and 2 V edges, got %d/%d", g.hEdges(), g.vEdges())
	}
	// A diagonal net across the tiny core spans both cells in each
	// dimension: every edge of the 2x2 grid carries demand, none panics.
	d := netlist.NewDesign("tiny", geom.RectWH(0, 0, 10, 10), testLib)
	wireUp(t, d, 0, geom.Point{X: 0, Y: 0}, geom.Point{X: 96000, Y: 96000})
	m := Estimate(d, opts)
	if m.NX != 2 || m.NY != 2 {
		t.Fatalf("map dims %dx%d", m.NX, m.NY)
	}
	for i, v := range m.HDemand {
		if v <= 0 {
			t.Fatalf("H edge %d of degenerate grid carries no demand", i)
		}
	}
	for i, v := range m.VDemand {
		if v <= 0 {
			t.Fatalf("V edge %d of degenerate grid carries no demand", i)
		}
	}
}

// TestEdgeIndexLayout pins the documented edge indexing (H: [y*(nx-1)+x],
// V: [y*nx+x]) by placing one net in a known G-cell row/column and checking
// exactly which indices receive demand.
func TestEdgeIndexLayout(t *testing.T) {
	d := newDesign() // 96000x96000 at GCell 4800 → 21x21 grid
	opts := DefaultOptions()
	g := gridFor(d.Core, opts)
	// Horizontal net in g-row 3 spanning columns 2..5.
	y := int64(3 * 4800)
	wireUp(t, d, 0, geom.Point{X: 2 * 4800, Y: y}, geom.Point{X: 5 * 4800, Y: y})
	m := Estimate(d, opts)
	row := g.gy(y)
	for i, v := range m.HDemand {
		yIdx, xIdx := i/(g.nx-1), i%(g.nx-1)
		want := yIdx == row && xIdx >= 2 && xIdx < 5
		if (v > 0) != want {
			t.Fatalf("HDemand[%d] (x=%d,y=%d) = %g, want demand=%v", i, xIdx, yIdx, v, want)
		}
	}
	for i, v := range m.VDemand {
		if v != 0 {
			t.Fatalf("VDemand[%d] = %g for a purely horizontal net", i, v)
		}
	}
}

// TestHpwlScaleMonotoneInPinCount is the satellite property test: demand
// weight never decreases as pins are added to a net with a fixed bbox.
func TestHpwlScaleMonotoneInPinCount(t *testing.T) {
	d := newDesign()
	cell := testLib.CellsOfWidth(lib.FuncClass{Kind: lib.FlipFlop}, 1)[0]
	drv, err := d.AddRegister("drv", cell, geom.Point{X: 0, Y: 48000})
	if err != nil {
		t.Fatal(err)
	}
	n := d.AddNet("fan", false)
	d.Connect(d.QPin(drv, 0), n)
	prev := -1.0
	for i := 0; i < 20; i++ {
		// Sinks inside the fixed bbox: pin count grows, bbox does not.
		r, err := d.AddRegister(fmt.Sprintf("s%d", i), cell, geom.Point{X: 45000, Y: 48000})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.DPin(r, 0), n)
		// Far sink fixes the bbox on the first iteration.
		if i == 0 {
			far, err := d.AddRegister("far", cell, geom.Point{X: 90000, Y: 48000})
			if err != nil {
				t.Fatal(err)
			}
			d.Connect(d.DPin(far, 0), n)
		}
		m := Estimate(d, DefaultOptions())
		var total float64
		for _, v := range m.HDemand {
			total += v
		}
		if total < prev {
			t.Fatalf("demand decreased when adding pin %d: %g < %g", i, total, prev)
		}
		prev = total
	}
}

// FuzzEstimateDeltaEquivalence fuzzes the batch estimator and the retained
// engine together: arbitrary pin coordinates (on, off and far outside the
// core), G-cell pitches and a post-baseline move must never panic, never
// produce negative demand, and the engine's delta-maintained map must stay
// bit-identical to a fresh Estimate.
func FuzzEstimateDeltaEquivalence(f *testing.F) {
	f.Add(int64(0), int64(0), int64(96000), int64(96000), int64(4800), int64(500), int64(500))
	f.Add(int64(-5000), int64(99999), int64(96001), int64(-1), int64(1200), int64(0), int64(0))
	f.Add(int64(10), int64(10), int64(20), int64(20), int64(1<<40), int64(-96000), int64(96000))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, gcell, dx, dy int64) {
		const bound = int64(1) << 32 // keep coordinate arithmetic overflow-free
		clampC := func(v int64) int64 {
			if v > bound {
				return bound
			}
			if v < -bound {
				return -bound
			}
			return v
		}
		ax, ay, bx, by = clampC(ax), clampC(ay), clampC(bx), clampC(by)
		dx, dy = clampC(dx)%100000, clampC(dy)%100000
		if gcell < 0 {
			gcell = -gcell
		}
		// Keep the pitch ≥ core/80 so fuzzed grids stay small enough to
		// allocate; clamping behaviour is covered by the coordinate ranges.
		gcell = gcell%200000 + 1200
		opts := Options{GCell: gcell, HCap: 2, VCap: 2, IncludeClock: true}

		d := newDesign()
		wireUp(t, d, 0, geom.Point{X: ax, Y: ay}, geom.Point{X: bx, Y: by})
		wireUp(t, d, 1, geom.Point{X: bx, Y: ay}, geom.Point{X: ax, Y: by})
		rt := NewEngine(d, opts)
		rt.Update()

		in := d.InstByName("a0")
		d.MoveInst(in, geom.Point{X: in.Pos.X + dx, Y: in.Pos.Y + dy})

		want := Estimate(d, opts)
		got := rt.Map()
		if got.NX != want.NX || got.NY != want.NY {
			t.Fatalf("grid %dx%d != oracle %dx%d", got.NX, got.NY, want.NX, want.NY)
		}
		for i := range want.HDemand {
			if want.HDemand[i] < 0 {
				t.Fatalf("negative HDemand[%d] = %g", i, want.HDemand[i])
			}
			if got.HDemand[i] != want.HDemand[i] {
				t.Fatalf("HDemand[%d]: engine %v != oracle %v", i, got.HDemand[i], want.HDemand[i])
			}
		}
		for i := range want.VDemand {
			if want.VDemand[i] < 0 {
				t.Fatalf("negative VDemand[%d] = %g", i, want.VDemand[i])
			}
			if got.VDemand[i] != want.VDemand[i] {
				t.Fatalf("VDemand[%d]: engine %v != oracle %v", i, got.VDemand[i], want.VDemand[i])
			}
		}
		if rt.OverflowEdges() != want.OverflowEdges() {
			t.Fatalf("OverflowEdges: engine %d != oracle %d", rt.OverflowEdges(), want.OverflowEdges())
		}
	})
}

// TestRebuildAnyWorkerCount pins that the rebuild's per-worker chunking
// covers every net exactly once whatever the worker count, including
// counts that do not divide the net count.
func TestRebuildAnyWorkerCount(t *testing.T) {
	d := newDesign()
	for i := 0; i < 5; i++ {
		y := int64(8000 + 16000*i)
		wireUp(t, d, i, geom.Point{X: 4000, Y: y}, geom.Point{X: 90000 - 9000*int64(i), Y: 96000 - y})
	}
	opts := DefaultOptions()
	want := Estimate(d, opts)
	for w := 1; w <= 6; w++ {
		rt := NewEngine(d, opts)
		rt.SetWorkers(w)
		rt.Update()
		got := rt.Map()
		for i := range want.HDemand {
			if got.HDemand[i] != want.HDemand[i] {
				t.Fatalf("workers=%d: HDemand[%d] = %v, oracle %v", w, i, got.HDemand[i], want.HDemand[i])
			}
		}
		for i := range want.VDemand {
			if got.VDemand[i] != want.VDemand[i] {
				t.Fatalf("workers=%d: VDemand[%d] = %v, oracle %v", w, i, got.VDemand[i], want.VDemand[i])
			}
		}
	}
}
