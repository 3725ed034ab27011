package sta

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// qLoadDesign generates the small D1 design the structural fuzz target
// runs on.
func qLoadDesign(t *testing.T) *netlist.Design {
	t.Helper()
	spec, _ := bench.ProfileByName("D1", bench.ProfileOpts{Scale: 400})
	gen, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Design
}

// qLoadPair picks a register r with a data Q net and a movable,
// resizable register s != r with a merge partner o ∉ {r, s}, and moves s's
// D pin onto r's Q net, so edits to s reload r's Q net while r stays
// untouched.
func qLoadPair(t *testing.T, d *netlist.Design) (r, s, o *netlist.Inst, cell *lib.Cell) {
	t.Helper()
	regs := d.Registers()
	for _, cand := range regs {
		if q := d.QPin(cand, 0); q != nil && q.Net != netlist.NoID && !d.Net(q.Net).IsClock {
			r = cand
			break
		}
	}
	for _, cand := range regs {
		if cand == r || cand.Fixed || cand.SizeOnly || len(capAlternates(d, cand)) == 0 {
			continue
		}
		for start := 0; start < len(regs); start++ {
			if p, c := fuzzMergePartner(d, cand, regs, start); p != nil && p != r {
				s, o, cell = cand, p, c
				break
			}
		}
		if s != nil {
			break
		}
	}
	if r == nil || s == nil {
		t.Fatal("no register pair fits")
	}
	d.Connect(d.DPin(s, 0), d.Net(d.QPin(r, 0).Net))
	return r, s, o, cell
}

// runMatchesFresh runs e and checks it against a fresh engine in the same
// clock mode, bit for bit.
func runMatchesFresh(t *testing.T, e *Engine, d *netlist.Design, ideal bool) {
	t.Helper()
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(d)
	fresh.SetIdealClocks(ideal)
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
}

// TestFlipReusesOnlyCurrentQLoads changes the load on a register's Q net
// without touching the register — a sink moves, a sink is resized, a
// merge lands a D pin on the net — and then flips the clock mode, which
// re-seeds every register. The flip must recompute that register's load,
// either in the same run as the edit or from the load the edit's own run
// stored; every run must equal a fresh engine. A flip with no edit
// recomputes no load at all.
func TestFlipReusesOnlyCurrentQLoads(t *testing.T) {
	cases := []struct {
		name string
		edit func(t *testing.T, d *netlist.Design, s, o *netlist.Inst, cell *lib.Cell)
	}{
		{"move a sink", func(t *testing.T, d *netlist.Design, s, o *netlist.Inst, cell *lib.Cell) {
			d.MoveInst(s, geom.Point{X: s.Pos.X + 3000, Y: s.Pos.Y + 2000})
		}},
		{"resize a sink", func(t *testing.T, d *netlist.Design, s, o *netlist.Inst, cell *lib.Cell) {
			if err := d.ResizeRegister(s, capAlternates(d, s)[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"merge a D pin onto the net", func(t *testing.T, d *netlist.Design, s, o *netlist.Inst, cell *lib.Cell) {
			pos := geom.Point{X: s.Pos.X + 4000, Y: s.Pos.Y}
			if _, err := d.MergeRegisters([]*netlist.Inst{s, o}, cell, "qload_mbr", pos); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		for _, sameRun := range []bool{true, false} {
			name := tc.name + "/edit run then flip"
			if sameRun {
				name = tc.name + "/edit and flip in one run"
			}
			t.Run(name, func(t *testing.T) {
				d := qLoadDesign(t)
				r, s, o, cell := qLoadPair(t, d)
				e := New(d)
				runMatchesFresh(t, e, d, false)
				qnet := d.Net(d.QPin(r, 0).Net)
				before := d.NetLoadCap(qnet)
				tc.edit(t, d, s, o, cell)
				if d.NetLoadCap(qnet) == before {
					t.Fatalf("the edit left %s's Q-net load at %v", r.Name, before)
				}
				if !sameRun {
					runMatchesFresh(t, e, d, false)
				}
				e.SetIdealClocks(true)
				runMatchesFresh(t, e, d, true)
				if st := e.Stats(); sameRun && st.LastSeedLoads == 0 {
					t.Fatalf("the flip with the edit recomputed no Q-net load")
				} else if !sameRun && st.LastSeedLoads != 0 {
					t.Fatalf("a flip with no edit recomputed %d Q-net loads, want 0", st.LastSeedLoads)
				}
				e.SetIdealClocks(false)
				runMatchesFresh(t, e, d, false)
			})
		}
	}
}

// capAlternates returns the register's same-class, same-width cells whose
// D pin capacitance differs from its own cell's.
func capAlternates(d *netlist.Design, s *netlist.Inst) []*lib.Cell {
	var out []*lib.Cell
	for _, c := range d.Lib.CellsOfWidth(s.RegCell.Class, s.RegCell.Bits) {
		if c != s.RegCell && c.DPinCap != s.RegCell.DPinCap {
			out = append(out, c)
		}
	}
	return out
}
