package place

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

var testLib = lib.MustGenerateDefault()

func ffClass() lib.FuncClass {
	return lib.FuncClass{Kind: lib.FlipFlop}
}

func newDesign(w, h int64) *netlist.Design {
	d := netlist.NewDesign("p", geom.RectWH(0, 0, w, h), testLib)
	d.SiteW = 100
	d.RowH = 1200
	return d
}

func addReg(t testing.TB, d *netlist.Design, name string, bits int, x, y int64) *netlist.Inst {
	t.Helper()
	cs := testLib.CellsOfWidth(ffClass(), bits)
	in, err := d.AddRegister(name, cs[0], geom.Point{X: x, Y: y})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCheckLegalDetectsProblems(t *testing.T) {
	d := newDesign(100000, 24000)
	// Two overlapping registers on an off-grid position.
	a := addReg(t, d, "a", 1, 150, 600)
	b := addReg(t, d, "b", 1, 200, 600)
	_ = a
	_ = b
	v := CheckLegal(d)
	kinds := map[string]int{}
	for _, x := range v {
		kinds[x.Kind]++
	}
	if kinds["overlap"] == 0 {
		t.Error("overlap not detected")
	}
	if kinds["off-row"] == 0 {
		t.Error("off-row not detected")
	}
	if kinds["off-site"] == 0 {
		t.Error("off-site not detected")
	}
}

func TestCheckLegalOutsideCore(t *testing.T) {
	d := newDesign(10000, 12000)
	addReg(t, d, "a", 8, 9000, 0) // 8-bit cell wider than remaining space
	v := CheckLegal(d)
	found := false
	for _, x := range v {
		if x.Kind == "outside-core" {
			found = true
		}
	}
	if !found {
		t.Fatal("outside-core not detected")
	}
}

func TestLegalizeResolvesOverlaps(t *testing.T) {
	d := newDesign(200000, 48000)
	// Pile 40 registers on the same spot.
	for i := 0; i < 40; i++ {
		addReg(t, d, fmt.Sprintf("r%d", i), []int{1, 2, 4, 8}[i%4], 50000, 12000)
	}
	res := Legalize(d)
	if len(res.Failed) != 0 {
		t.Fatalf("failed to place %d cells", len(res.Failed))
	}
	if v := CheckLegal(d); len(v) != 0 {
		t.Fatalf("violations after legalize: %v", v[0])
	}
	if res.Moved == 0 {
		t.Fatal("expected cells to move")
	}
}

func TestLegalizeKeepsLegalCellsStill(t *testing.T) {
	d := newDesign(200000, 48000)
	// Already-legal cells spread out.
	for i := 0; i < 10; i++ {
		addReg(t, d, fmt.Sprintf("r%d", i), 1, int64(i)*5000, 12000)
	}
	res := Legalize(d)
	if res.TotalDisplacement != 0 {
		t.Fatalf("legal placement should not move, displacement=%d", res.TotalDisplacement)
	}
}

func TestLegalizeRespectsFixed(t *testing.T) {
	d := newDesign(200000, 24000)
	f := addReg(t, d, "fixed", 8, 50000, 0)
	f.Fixed = true
	// A movable register right on top of it.
	m := addReg(t, d, "m", 1, 50000, 0)
	res := Legalize(d)
	if len(res.Failed) != 0 {
		t.Fatal("placement failed")
	}
	if f.Pos != (geom.Point{X: 50000, Y: 0}) {
		t.Fatal("fixed cell moved")
	}
	if m.Bounds().OverlapsStrict(f.Bounds()) {
		t.Fatal("overlap with fixed cell remains")
	}
}

func TestLegalizeIncremental(t *testing.T) {
	d := newDesign(200000, 48000)
	var others []*netlist.Inst
	for i := 0; i < 20; i++ {
		others = append(others, addReg(t, d, fmt.Sprintf("r%d", i), 2, int64(i%5)*10000, int64(i/5)*1200))
	}
	Legalize(d)
	before := map[string]geom.Point{}
	for _, in := range others {
		before[in.Name] = in.Pos
	}
	// Drop a new MBR in the middle of the others.
	mbr := addReg(t, d, "mbr", 8, 10000, 1200)
	res := LegalizeIncremental(d, []*netlist.Inst{mbr})
	if len(res.Failed) != 0 {
		t.Fatal("incremental placement failed")
	}
	for _, in := range others {
		if in.Pos != before[in.Name] {
			t.Fatalf("incremental legalization moved unrelated cell %s", in.Name)
		}
	}
	if v := CheckLegal(d); len(v) != 0 {
		t.Fatalf("violations after incremental: %v", v[0])
	}
}

func TestLegalizeFullCore(t *testing.T) {
	// A core with room for exactly one row of a few cells; overflow must be
	// reported, not silently dropped.
	d := newDesign(3000, 1200)
	for i := 0; i < 10; i++ {
		addReg(t, d, fmt.Sprintf("r%d", i), 8, 0, 0)
	}
	res := Legalize(d)
	if len(res.Failed) == 0 {
		t.Fatal("expected placement failures in a too-small core")
	}
}

// Property: legalization always produces a violation-free placement (when
// it does not fail) and never moves fixed cells, for random register soups.
func TestLegalizeAlwaysLegal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := newDesign(300000, 60000)
		n := 10 + rng.Intn(60)
		var fixedPos []geom.Point
		for i := 0; i < n; i++ {
			bits := []int{1, 2, 4, 8}[rng.Intn(4)]
			in := addReg(t, d, fmt.Sprintf("r%d", i), bits,
				int64(rng.Intn(250000)), int64(rng.Intn(55000)))
			if rng.Intn(10) == 0 {
				// Fixed cells must start legal to be meaningful obstacles.
				in.Pos = geom.Point{
					X: (in.Pos.X / d.SiteW) * d.SiteW,
					Y: (in.Pos.Y / d.RowH) * d.RowH,
				}
				in.Fixed = true
				fixedPos = append(fixedPos, in.Pos)
			}
		}
		res := Legalize(d)
		if len(res.Failed) > 0 {
			return true // allowed outcome; nothing else to check
		}
		// Fixed cells unmoved?
		idx := 0
		ok := true
		d.Insts(func(in *netlist.Inst) {
			if in.Fixed && in.Area() > 0 {
				if in.Pos != fixedPos[idx] {
					ok = false
				}
				idx++
			}
		})
		if !ok {
			return false
		}
		// Overlap-free among movable cells (fixed may overlap each other by
		// construction).
		for _, v := range CheckLegal(d) {
			if v.Kind == "overlap" {
				if v.Inst.Fixed && v.With != nil && v.With.Fixed {
					continue
				}
				return false
			}
			if v.Kind != "overlap" && !v.Inst.Fixed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
