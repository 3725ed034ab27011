package netlist

import (
	"testing"

	"repro/internal/geom"
)

func TestEpochBumpsPerEditClass(t *testing.T) {
	d, r1, _ := buildPair(t)

	base := d.Epoch()
	baseStruct := d.StructuralEpoch()

	// Parametric: bumps the epoch only.
	d.MoveInst(r1, geom.Point{X: 2000, Y: 1200})
	if d.Epoch() <= base {
		t.Fatalf("MoveInst did not bump epoch: %d -> %d", base, d.Epoch())
	}
	if d.StructuralEpoch() != baseStruct {
		t.Fatalf("MoveInst changed the structural epoch")
	}

	cur := d.Epoch()
	if err := d.ResizeRegister(r1, cellOf(t, 1)); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() <= cur {
		t.Fatalf("ResizeRegister did not bump epoch")
	}
	if d.StructuralEpoch() != baseStruct {
		t.Fatalf("ResizeRegister changed structural epoch")
	}

	// Structural: data-net connectivity.
	cur = d.Epoch()
	dn := d.Net(d.DPin(r1, 0).Net)
	d.Disconnect(d.DPin(r1, 0))
	if d.StructuralEpoch() <= baseStruct {
		t.Fatalf("data-net Disconnect did not bump structural epoch")
	}
	d.Connect(d.DPin(r1, 0), dn)
	if d.StructuralEpoch() != d.Epoch() {
		t.Fatalf("data-net Connect: structural epoch %d != epoch %d",
			d.StructuralEpoch(), d.Epoch())
	}

	// Clock: clock-net connectivity bumps the epoch only.
	baseStruct = d.StructuralEpoch()
	cur = d.Epoch()
	cn := d.Net(d.ClockPin(r1).Net)
	d.Disconnect(d.ClockPin(r1))
	if d.Epoch() <= cur {
		t.Fatalf("clock-net Disconnect did not bump epoch")
	}
	if d.StructuralEpoch() != baseStruct {
		t.Fatalf("clock-net Disconnect bumped structural epoch")
	}
	d.Connect(d.ClockPin(r1), cn)
	if d.StructuralEpoch() != baseStruct {
		t.Fatalf("clock-net Connect bumped structural epoch")
	}
}

// A reset net carries no register D/Q pins, so an edit on it notes only
// the editing instance: one epoch step, one touched entry.
func TestControlNetEditBumpsEpochOnce(t *testing.T) {
	d, r1, _ := buildPair(t)
	rp := d.FindPin(r1, PinReset, 0)
	rst := d.Net(rp.Net)
	for _, edit := range []func(){
		func() { d.Disconnect(rp) },
		func() { d.Connect(rp, rst) },
	} {
		cur := d.Epoch()
		edit()
		if d.Epoch() != cur+1 {
			t.Fatalf("reset-net edit moved the epoch %d -> %d, want +1", cur, d.Epoch())
		}
		touched, ok := d.TouchedSinceClass(cur, EditClassFlow, nil)
		if !ok || len(touched) != 1 || touched[0] != r1.ID {
			t.Fatalf("touched = %v (complete %v), want only r1", touched, ok)
		}
	}
}

func TestTouchedSinceDedupAndOrder(t *testing.T) {
	d, r1, r2 := buildPair(t)

	cursor := d.Epoch()
	d.MoveInst(r1, geom.Point{X: 2000, Y: 1200})
	d.MoveInst(r2, geom.Point{X: 4000, Y: 1200})
	d.MoveInst(r1, geom.Point{X: 2500, Y: 1200})

	touched, complete := d.TouchedSinceClass(cursor, EditClassFlow, nil)
	if !complete {
		t.Fatalf("record unexpectedly incomplete")
	}
	if len(touched) != 2 {
		t.Fatalf("touched = %v, want 2 deduplicated instances", touched)
	}
	// Most recent first: r1 was edited last.
	if touched[0] != r1.ID || touched[1] != r2.ID {
		t.Fatalf("touched = %v, want [%d %d]", touched, r1.ID, r2.ID)
	}

	// A cursor at the current epoch sees nothing.
	if got, ok := d.TouchedSinceClass(d.Epoch(), EditClassFlow, nil); !ok || len(got) != 0 {
		t.Fatalf("read(now) = %v, %v; want empty, complete", got, ok)
	}

	// A mid-sequence cursor sees only the later edits.
	mid := d.Epoch()
	d.MoveInst(r2, geom.Point{X: 4500, Y: 1200})
	got, ok := d.TouchedSinceClass(mid, EditClassFlow, nil)
	if !ok || len(got) != 1 || got[0] != r2.ID {
		t.Fatalf("read(mid) = %v, %v; want [%d], complete", got, ok, r2.ID)
	}
}

func TestTouchedSinceRemovedInst(t *testing.T) {
	d, r1, _ := buildPair(t)
	cursor := d.Epoch()
	id := r1.ID
	d.RemoveInst(r1)
	touched, complete := d.TouchedSinceClass(cursor, EditClassFlow, nil)
	if !complete {
		t.Fatalf("record unexpectedly incomplete")
	}
	found := false
	for _, t := range touched {
		if t == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("RemoveInst not recorded in touched set %v", touched)
	}
}

func TestEditClassScoping(t *testing.T) {
	d, r1, r2 := buildPair(t)
	if d.EditClass() != EditClassFlow {
		t.Fatalf("default edit class = %v, want flow", d.EditClass())
	}

	cursor := d.Epoch()
	d.WithEditClass(EditClassCTS, func() {
		if d.EditClass() != EditClassCTS {
			t.Fatalf("WithEditClass did not switch the class")
		}
		d.MoveInst(r1, geom.Point{X: 2000, Y: 1200})
	})
	if d.EditClass() != EditClassFlow {
		t.Fatalf("WithEditClass did not restore the class")
	}
	if d.Epoch() <= cursor {
		t.Fatalf("CTS-class edit did not bump the shared epoch")
	}

	// The CTS edit is invisible to the flow record but on the CTS record.
	flow, ok := d.TouchedSinceClass(cursor, EditClassFlow, nil)
	if !ok || len(flow) != 0 {
		t.Fatalf("flow record sees CTS-class edit: %v, %v", flow, ok)
	}
	ctsT, ok := d.TouchedSinceClass(cursor, EditClassCTS, nil)
	if !ok || len(ctsT) != 1 || ctsT[0] != r1.ID {
		t.Fatalf("CTS record = %v, %v; want [%d], complete", ctsT, ok, r1.ID)
	}

	// And vice versa: a flow edit stays off the CTS record.
	cursor = d.Epoch()
	d.MoveInst(r2, geom.Point{X: 4000, Y: 1200})
	if got, ok := d.TouchedSinceClass(cursor, EditClassCTS, nil); !ok || len(got) != 0 {
		t.Fatalf("CTS record sees flow-class edit: %v, %v", got, ok)
	}
	if got, ok := d.TouchedSinceClass(cursor, EditClassFlow, nil); !ok || len(got) != 1 || got[0] != r2.ID {
		t.Fatalf("flow record = %v, %v; want [%d], complete", got, ok, r2.ID)
	}

	// Nested overrides restore the outer class, even on panic-free return.
	d.WithEditClass(EditClassCTS, func() {
		d.WithEditClass(EditClassFlow, func() {
			if d.EditClass() != EditClassFlow {
				t.Fatalf("nested WithEditClass did not switch")
			}
		})
		if d.EditClass() != EditClassCTS {
			t.Fatalf("nested WithEditClass did not restore outer class")
		}
	})
}

func TestPinSpaceCoversRemovedInsts(t *testing.T) {
	d, r1, _ := buildPair(t)
	before := d.PinSpace()
	if before <= 0 {
		t.Fatalf("PinSpace = %d", before)
	}
	d.RemoveInst(r1)
	if d.PinSpace() != before {
		t.Fatalf("PinSpace shrank on RemoveInst: %d -> %d", before, d.PinSpace())
	}
	if _, err := d.AddRegister("extra", cellOf(t, 1), geom.Point{X: 7000, Y: 1200}); err != nil {
		t.Fatal(err)
	}
	if d.PinSpace() <= before {
		t.Fatalf("PinSpace did not grow with a new instance: %d -> %d", before, d.PinSpace())
	}
}

// Consecutive touches of one instance share one entry: a reader whose
// cursor falls between two coalesced touches still gets the instance.
func TestCoalescedTouchesStayVisible(t *testing.T) {
	d, r1, r2 := buildPair(t)
	start := d.Epoch()
	d.MoveInst(r1, geom.Point{X: 1100, Y: 1200})
	between := d.Epoch()
	for i := 0; i < 20; i++ {
		d.MoveInst(r1, geom.Point{X: int64(1200 + i), Y: 1200})
	}
	for _, cursor := range []uint64{start, between, d.Epoch() - 1} {
		got, ok := d.TouchedSinceClass(cursor, EditClassFlow, nil)
		if !ok || len(got) != 1 || got[0] != r1.ID {
			t.Fatalf("cursor %d: read = %v, %v; want [%d], complete", cursor, got, ok, r1.ID)
		}
	}
	if got, ok := d.TouchedSinceClass(d.Epoch(), EditClassFlow, nil); !ok || len(got) != 0 {
		t.Fatalf("current cursor sees %v, %v; want nothing", got, ok)
	}
	// Another instance in between keeps both entries.
	mid := d.Epoch()
	d.MoveInst(r2, geom.Point{X: 3100, Y: 1200})
	d.MoveInst(r1, geom.Point{X: 1500, Y: 1200})
	got, ok := d.TouchedSinceClass(mid, EditClassFlow, nil)
	if !ok || len(got) != 2 || got[0] != r1.ID || got[1] != r2.ID {
		t.Fatalf("read = %v, %v; want [%d %d], complete", got, ok, r1.ID, r2.ID)
	}
}
