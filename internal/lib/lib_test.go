package lib

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func defaultFFClass() FuncClass {
	return FuncClass{Kind: FlipFlop, Edge: RisingEdge, Reset: AsyncReset, Scan: InternalScan}
}

func TestFuncClassKey(t *testing.T) {
	a := defaultFFClass()
	b := a
	if a.Key() != b.Key() {
		t.Fatal("equal classes must have equal keys")
	}
	b.HasEnable = true
	if a.Key() == b.Key() {
		t.Fatal("distinct classes must have distinct keys")
	}
	if !strings.Contains(a.Key(), "arst") || !strings.Contains(a.Key(), "iscan") {
		t.Fatalf("key %q should encode reset and scan", a.Key())
	}
}

func TestGenerateDefault(t *testing.T) {
	l := MustGenerateDefault()
	spec := DefaultGenSpec()
	wantCells := len(spec.Classes) * len(spec.Widths) * len(spec.Drives)
	if got := len(l.Cells()); got != wantCells {
		t.Fatalf("cell count = %d want %d", got, wantCells)
	}
	for _, class := range spec.Classes {
		ws := l.Widths(class)
		if len(ws) != len(spec.Widths) {
			t.Fatalf("class %s widths = %v", class.Key(), ws)
		}
		if l.MaxWidth(class) != 8 {
			t.Fatalf("class %s max width = %d", class.Key(), l.MaxWidth(class))
		}
	}
}

func TestPerBitEconomies(t *testing.T) {
	l := MustGenerateDefault()
	class := defaultFFClass()
	var prevArea, prevCap float64 = 1e18, 1e18
	for _, bits := range []int{1, 2, 4, 8} {
		cells := l.CellsOfWidth(class, bits)
		if len(cells) == 0 {
			t.Fatalf("no %d-bit cells", bits)
		}
		c := cells[0] // drive 1
		if pa := float64(c.Area) / float64(c.Bits); pa >= prevArea {
			t.Errorf("per-bit area must shrink with width: %d-bit %.1f ≥ previous %.1f", bits, pa, prevArea)
		} else {
			prevArea = pa
		}
		if pc := c.ClkCap / float64(c.Bits); pc >= prevCap {
			t.Errorf("per-bit clk cap must shrink with width: %d-bit %.3f ≥ previous %.3f", bits, pc, prevCap)
		} else {
			prevCap = pc
		}
	}
}

func TestDriveStrengthEffects(t *testing.T) {
	l := MustGenerateDefault()
	class := defaultFFClass()
	cells := l.CellsOfWidth(class, 4)
	if len(cells) != 3 {
		t.Fatalf("want 3 drives, got %d", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if cells[i].DriveRes >= cells[i-1].DriveRes {
			t.Error("stronger drive must have lower resistance")
		}
		if cells[i].Area <= cells[i-1].Area {
			t.Error("stronger drive must have larger area")
		}
		if cells[i].ClkCap <= cells[i-1].ClkCap {
			t.Error("stronger drive must have larger clock cap")
		}
	}
}

func TestSelectCellDrivePolicy(t *testing.T) {
	l := MustGenerateDefault()
	class := defaultFFClass()
	// Replaced registers' strongest (minimum) drive resistance: the X2 cell.
	x2 := l.CellsOfWidth(class, 1)[1]
	got := l.SelectCell(class, 4, x2.DriveRes)
	if got == nil {
		t.Fatal("no cell selected")
	}
	if got.Drive != 2 {
		t.Fatalf("selected drive %d, want 2 (least over-design at ≥ strength)", got.Drive)
	}
	// A resistance stronger than anything in the library → strongest cell.
	got = l.SelectCell(class, 4, 0.001)
	if got.Drive != 4 {
		t.Fatalf("selected drive %d, want strongest (4)", got.Drive)
	}
	// Very weak requirement → weakest (drive 1) wins on clk cap.
	got = l.SelectCell(class, 4, 1e9)
	if got.Drive != 1 {
		t.Fatalf("selected drive %d, want 1", got.Drive)
	}
	// Absent width.
	if l.SelectCell(class, 5, 1) != nil {
		t.Fatal("5-bit cell should not exist")
	}
}

func TestSmallestWidthAtLeast(t *testing.T) {
	l := MustGenerateDefault()
	class := defaultFFClass()
	cases := []struct {
		bits, want int
		ok         bool
	}{
		{1, 1, true}, {2, 2, true}, {3, 4, true}, {4, 4, true},
		{5, 8, true}, {6, 8, true}, {7, 8, true}, {8, 8, true},
		{9, 0, false},
	}
	for _, c := range cases {
		got, ok := l.SmallestWidthAtLeast(class, c.bits)
		if got != c.want || ok != c.ok {
			t.Errorf("SmallestWidthAtLeast(%d) = %d,%v want %d,%v", c.bits, got, ok, c.want, c.ok)
		}
	}
}

func TestAddValidation(t *testing.T) {
	l := NewLibrary("t")
	good := MustGenerateDefault().Cells()[0]
	if err := l.Add(good); err != nil {
		t.Fatalf("Add(good): %v", err)
	}
	if err := l.Add(good); err == nil {
		t.Fatal("duplicate name must be rejected")
	}
	bad := *good
	bad.Name = "bad-bits"
	bad.Bits = 0
	if err := l.Add(&bad); err == nil {
		t.Fatal("zero bits must be rejected")
	}
	bad = *good
	bad.Name = "bad-pins"
	bad.DPins = nil
	if err := l.Add(&bad); err == nil {
		t.Fatal("mismatched pin count must be rejected")
	}
	bad = *good
	bad.Name = "bad-area"
	bad.Area = 0
	if err := l.Add(&bad); err == nil {
		t.Fatal("zero area must be rejected")
	}
	bad = *good
	bad.Name = "bad-res"
	bad.DriveRes = 0
	if err := l.Add(&bad); err == nil {
		t.Fatal("zero drive resistance must be rejected")
	}
}

func TestCellByNameAndClassCells(t *testing.T) {
	l := MustGenerateDefault()
	c := l.Cells()[0]
	if l.CellByName(c.Name) != c {
		t.Fatal("CellByName round trip failed")
	}
	if l.CellByName("nope") != nil {
		t.Fatal("unknown name should return nil")
	}
	cc := l.cells[c.Class]
	for i := 1; i < len(cc); i++ {
		a, b := cc[i-1], cc[i]
		if a.Bits > b.Bits || (a.Bits == b.Bits && a.Drive > b.Drive) {
			t.Fatal("a class's cells must be sorted by (bits, drive)")
		}
	}
}

func TestGenerateRejectsMissingWidth1(t *testing.T) {
	spec := DefaultGenSpec()
	spec.Widths = []int{2, 4}
	if _, err := Generate(spec); err == nil {
		t.Fatal("widths without 1 must be rejected")
	}
}

func TestPinOffsetsInsideCell(t *testing.T) {
	l := MustGenerateDefault()
	for _, c := range l.Cells() {
		check := func(p PinOffset, what string) {
			if p.DX < 0 || p.DX > c.Width || p.DY < 0 || p.DY > c.Height {
				t.Errorf("cell %s %s pin offset %v outside footprint %dx%d",
					c.Name, what, p, c.Width, c.Height)
			}
		}
		for _, p := range c.DPins {
			check(p, "D")
		}
		for _, p := range c.QPins {
			check(p, "Q")
		}
		check(c.ClkPin, "CLK")
	}
}

// Property: an N-bit cell always beats N 1-bit cells of the same class and
// drive on both total area and total clock capacitance — the premise of MBR
// composition.
func TestMBRAlwaysBeatsDiscreteRegisters(t *testing.T) {
	l := MustGenerateDefault()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		classes := DefaultGenSpec().Classes
		class := classes[rng.Intn(len(classes))]
		widths := []int{2, 4, 8}
		bits := widths[rng.Intn(len(widths))]
		drives := []int{1, 2, 4}
		drive := drives[rng.Intn(len(drives))]
		var mbr, single *Cell
		for _, c := range l.CellsOfWidth(class, bits) {
			if c.Drive == drive {
				mbr = c
			}
		}
		for _, c := range l.CellsOfWidth(class, 1) {
			if c.Drive == drive {
				single = c
			}
		}
		if mbr == nil || single == nil {
			return false
		}
		n := float64(bits)
		return float64(mbr.Area) < n*float64(single.Area) &&
			mbr.ClkCap < n*single.ClkCap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
