package netlist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
)

// instSnap fingerprints every per-instance quantity an incremental engine
// may cache: position, flags, groups, the cell, and pin connectivity.
type instSnap string

func snapInst(d *Design, in *Inst) instSnap {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %v %v %d %d %p %p|", in.Pos, in.Fixed, in.SizeOnly,
		in.GateGroup, in.ScanPartition, in.RegCell, in.Comb)
	for _, pid := range in.Pins {
		p := d.Pin(pid)
		fmt.Fprintf(&b, "%d/%d:%d ", p.Kind, p.Bit, p.Net)
	}
	return instSnap(b.String())
}

func snapshot(d *Design) map[InstID]instSnap {
	out := map[InstID]instSnap{}
	d.Insts(func(in *Inst) { out[in.ID] = snapInst(d, in) })
	return out
}

// TestTouchedLogCoversEdits is the satellite audit test: after a battery of
// edits through the Design API, every instance whose observable state
// changed — including created and removed ones — must appear in
// the flow-class touched record, and the log must report itself complete.
func TestTouchedLogCoversEdits(t *testing.T) {
	d, r1, r2 := buildPair(t)
	cursor := d.Epoch()
	before := snapshot(d)

	// Parametric edits.
	d.MoveInst(r1, geom.Point{X: 2200, Y: 1200})
	d.SetFixed(r2, true)
	d.SetFixed(r2, false) // net no-op state-wise, still fine to report
	d.SetGateGroup(r2, 3)
	cells := testLib.CellsOfWidth(testClass(), 1)
	if len(cells) > 1 {
		if err := d.ResizeRegister(r1, cells[len(cells)-1]); err != nil {
			t.Fatal(err)
		}
	}

	// Creation: a register added and deliberately never connected.
	orphan, err := d.AddRegister("orphan", cellOf(t, 1), geom.Point{X: 500, Y: 500})
	if err != nil {
		t.Fatal(err)
	}
	_ = orphan

	// Structural edits: merge the pair into a 2-bit MBR, then split it.
	mr, err := d.MergeRegisters([]*Inst{r1, r2}, cellOf(t, 2), "m0", geom.Point{X: 2000, Y: 1200})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.SplitRegister(mr.MBR, cellOf(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Removal.
	d.RemoveInst(parts[0])

	after := snapshot(d)
	changed := map[InstID]bool{}
	for id, s := range before {
		if s2, ok := after[id]; !ok || s2 != s {
			changed[id] = true // mutated or removed
		}
	}
	for id := range after {
		if _, ok := before[id]; !ok {
			changed[id] = true // created
		}
	}

	touched, complete := d.TouchedSinceClass(cursor, EditClassFlow, nil)
	if !complete {
		t.Fatalf("touched log overflowed on %d edits", len(touched))
	}
	logged := map[InstID]bool{}
	for _, id := range touched {
		logged[id] = true
	}
	for id := range changed {
		if !logged[id] {
			t.Errorf("instance %d changed state but is missing from the touched log", id)
		}
	}
}

// TestCreationIsLogged pins the bugfix: instance creation alone (no
// Connect) must reach the touched log.
func TestCreationIsLogged(t *testing.T) {
	d := newTestDesign()
	cursor := d.Epoch()
	r, err := d.AddRegister("lonely", cellOf(t, 1), geom.Point{X: 100, Y: 100})
	if err != nil {
		t.Fatal(err)
	}
	touched, complete := d.TouchedSinceClass(cursor, EditClassFlow, nil)
	if !complete {
		t.Fatal("log overflowed")
	}
	for _, id := range touched {
		if id == r.ID {
			return
		}
	}
	t.Fatalf("created instance %d not in touched log %v", r.ID, touched)
}
