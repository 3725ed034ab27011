// Package lib models the standard-cell register library that MBR
// composition draws from: register functional classes, multi-bit register
// (MBR) families in several bit widths and drive strengths, and the
// electrical quantities the composition flow reasons with — area, clock-pin
// capacitance, data-pin capacitance, drive resistance and intrinsic delay.
//
// The paper uses accurate CCS models from a 28nm production library; here a
// linear delay abstraction (delay = intrinsic + driveResistance × load, §4.1
// of the paper describes exactly this abstraction) over a parametric cell
// generator stands in. What matters for the algorithm is the *relative*
// structure across widths: per-bit area and per-bit clock capacitance shrink
// as width grows, larger drives have lower resistance but higher pin
// capacitance and area.
package lib

import (
	"fmt"
	"sort"
)

// RegKind distinguishes level-sensitive latches from edge-triggered
// flip-flops. Registers of different kinds are never merge-compatible.
type RegKind int

// Register kinds.
const (
	FlipFlop RegKind = iota
	Latch
)

func (k RegKind) String() string {
	if k == Latch {
		return "latch"
	}
	return "ff"
}

// ResetKind is the reset/preset behaviour of a register class.
type ResetKind int

// Reset behaviours.
const (
	NoReset ResetKind = iota
	AsyncReset
	SyncReset
	AsyncSet
)

func (r ResetKind) String() string {
	switch r {
	case AsyncReset:
		return "arst"
	case SyncReset:
		return "srst"
	case AsyncSet:
		return "aset"
	}
	return "norst"
}

// ScanKind is the scan style of a register cell.
type ScanKind int

// Scan styles.
const (
	// NoScan cells have no scan circuitry.
	NoScan ScanKind = iota
	// InternalScan MBRs chain their bits internally: one SI pin on the first
	// bit, one SO pin on the last; the internal scan order is fixed.
	InternalScan
	// ExternalScan MBRs expose an SI/SO pin pair per bit so independent
	// chains can cross the cell; costs external routing (§4.1 penalizes it).
	ExternalScan
)

func (s ScanKind) String() string {
	switch s {
	case InternalScan:
		return "iscan"
	case ExternalScan:
		return "escan"
	}
	return "noscan"
}

// ClockEdge is the active clock edge of a flip-flop class (ignored for
// latches, where it encodes the transparent phase).
type ClockEdge int

// Clock edges.
const (
	RisingEdge ClockEdge = iota
	FallingEdge
)

func (e ClockEdge) String() string {
	if e == FallingEdge {
		return "neg"
	}
	return "pos"
}

// FuncClass identifies a register functional-equivalence family. Two
// registers can only ever merge when their classes are equal (and, beyond
// the library, their control nets match — that part lives in the netlist).
type FuncClass struct {
	Kind      RegKind
	Edge      ClockEdge
	Reset     ResetKind
	HasEnable bool
	Scan      ScanKind
}

// Key returns a stable string identity for the class, for cell names,
// messages and reports. The library indexes classes by the struct itself,
// so lookups format nothing.
func (f FuncClass) Key() string {
	en := "noen"
	if f.HasEnable {
		en = "en"
	}
	return fmt.Sprintf("%s_%s_%s_%s_%s", f.Kind, f.Edge, f.Reset, en, f.Scan)
}

// PinOffset is a pin's placement offset from the cell's lower-left corner,
// in database units. The MBR placement LP (§4.2) references pin coordinates
// as cell corner + offset.
type PinOffset struct {
	DX, DY int64
}

// Cell is one register cell of the library: a specific width and drive of a
// functional class.
type Cell struct {
	Name  string
	Class FuncClass
	// Bits is the number of D/Q pairs (1 for a single-bit register).
	Bits int
	// Drive is the drive strength multiplier (1, 2, 4 ...) of the output
	// stages.
	Drive int
	// Area in square database units.
	Area int64
	// Width and Height of the cell footprint in database units.
	Width, Height int64
	// ClkCap is the total clock-pin input capacitance, in femtofarads.
	ClkCap float64
	// DPinCap is the input capacitance of each D pin, in femtofarads.
	DPinCap float64
	// DriveRes is the linear-model drive resistance of each Q output, in
	// kΩ. Delay ≈ Intrinsic + DriveRes × load.
	DriveRes float64
	// Intrinsic is the fixed clock-to-Q delay component, in picoseconds.
	Intrinsic float64
	// Setup is the D-pin setup time, in picoseconds.
	Setup float64
	// Leakage is the cell leakage power, in nanowatts.
	Leakage float64
	// DPins and QPins are per-bit pin offsets, index = bit.
	DPins, QPins []PinOffset
	// ClkPin is the clock pin offset.
	ClkPin PinOffset
}

// Library is an immutable collection of register cells indexed by
// functional class.
type Library struct {
	Name  string
	cells map[FuncClass][]*Cell // class → cells sorted by (Bits, Drive)
	all   []*Cell
}

// NewLibrary returns an empty library with the given name.
func NewLibrary(name string) *Library {
	return &Library{Name: name, cells: map[FuncClass][]*Cell{}}
}

// Add inserts a cell. It returns an error when a cell of the same name
// already exists or the cell is malformed.
func (l *Library) Add(c *Cell) error {
	if c.Bits <= 0 {
		return fmt.Errorf("lib: cell %q has non-positive bits %d", c.Name, c.Bits)
	}
	if len(c.DPins) != c.Bits || len(c.QPins) != c.Bits {
		return fmt.Errorf("lib: cell %q pin offsets (%d D, %d Q) do not match %d bits",
			c.Name, len(c.DPins), len(c.QPins), c.Bits)
	}
	if c.Area <= 0 || c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("lib: cell %q has non-positive geometry", c.Name)
	}
	if c.DriveRes <= 0 || c.ClkCap <= 0 {
		return fmt.Errorf("lib: cell %q has non-positive electricals", c.Name)
	}
	for _, ex := range l.all {
		if ex.Name == c.Name {
			return fmt.Errorf("lib: duplicate cell name %q", c.Name)
		}
	}
	cc := append(l.cells[c.Class], c)
	sort.Slice(cc, func(i, j int) bool {
		a, b := cc[i], cc[j]
		if a.Bits != b.Bits {
			return a.Bits < b.Bits
		}
		return a.Drive < b.Drive
	})
	l.cells[c.Class] = cc
	l.all = append(l.all, c)
	return nil
}

// MustAdd is Add that panics on error; for use by builders with
// programmatically correct cells.
func (l *Library) MustAdd(c *Cell) {
	if err := l.Add(c); err != nil {
		panic(err)
	}
}

// Cells returns every cell of the library in insertion order.
func (l *Library) Cells() []*Cell { return l.all }

// CellByName returns the named cell, or nil.
func (l *Library) CellByName(name string) *Cell {
	for _, c := range l.all {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// HasClass reports whether any cell of the class exists.
func (l *Library) HasClass(f FuncClass) bool { return len(l.cells[f]) > 0 }

// Widths returns the sorted distinct bit widths available for a class.
func (l *Library) Widths(f FuncClass) []int {
	var out []int
	for _, c := range l.cells[f] { // sorted by Bits
		if len(out) == 0 || out[len(out)-1] != c.Bits {
			out = append(out, c.Bits)
		}
	}
	return out
}

// MaxWidth returns the largest bit width available for a class (0 when the
// class is absent).
func (l *Library) MaxWidth(f FuncClass) int {
	cs := l.cells[f] // sorted by Bits
	if len(cs) == 0 {
		return 0
	}
	return cs[len(cs)-1].Bits
}

// CellsOfWidth returns the cells of a class with exactly the given width,
// sorted by drive.
func (l *Library) CellsOfWidth(f FuncClass, bits int) []*Cell {
	return append([]*Cell(nil), l.widthRun(f, bits)...)
}

// widthRun returns the library's own run of a class's cells with exactly
// the given width (they are contiguous: a class's cells are sorted by
// bits, then drive). Callers must not modify it.
func (l *Library) widthRun(f FuncClass, bits int) []*Cell {
	cc := l.cells[f]
	lo := 0
	for lo < len(cc) && cc[lo].Bits < bits {
		lo++
	}
	hi := lo
	for hi < len(cc) && cc[hi].Bits == bits {
		hi++
	}
	return cc[lo:hi]
}

// SmallestWidthAtLeast returns the smallest library width ≥ bits for the
// class, and whether one exists. It is the incomplete-MBR lookup: a
// candidate of 6 bits maps to an 8-bit cell when no 6-bit cell exists.
func (l *Library) SmallestWidthAtLeast(f FuncClass, bits int) (int, bool) {
	for _, w := range l.Widths(f) {
		if w >= bits {
			return w, true
		}
	}
	return 0, false
}

// SelectCell implements the paper's §4.1 mapping policy: among the cells of
// a class with the requested width, pick the one whose drive resistance is
// the largest that does not exceed maxDriveRes (so the MBR drives at least
// as strongly as the strongest replaced register — "the drive resistance of
// the selected MBR should match the minimum drive resistance of the
// registers that will be replaced"), breaking ties by lowest clock-pin
// capacitance. When no cell is strong enough, the strongest available is
// returned. Returns nil when the class/width combination is absent.
func (l *Library) SelectCell(f FuncClass, bits int, maxDriveRes float64) *Cell {
	cands := l.widthRun(f, bits)
	if len(cands) == 0 {
		return nil
	}
	var best *Cell
	for _, c := range cands {
		if c.DriveRes > maxDriveRes+1e-12 {
			continue // too weak
		}
		if best == nil ||
			c.DriveRes > best.DriveRes+1e-12 || // least over-design
			(absf(c.DriveRes-best.DriveRes) <= 1e-12 && c.ClkCap < best.ClkCap) {
			best = c
		}
	}
	if best == nil {
		// Nothing strong enough: take the strongest (lowest resistance).
		best = cands[0]
		for _, c := range cands[1:] {
			if c.DriveRes < best.DriveRes ||
				(c.DriveRes == best.DriveRes && c.ClkCap < best.ClkCap) {
				best = c
			}
		}
	}
	return best
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
