package sta

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// FuzzStructuralDeltaMatchesFull drives a retained engine through a byte
// string of edits on a small generated design — register merges and
// splits (the structural patch), moves, resizes and skews (the cone),
// ideal-clock flips (the full re-seed) and combinational reconnects (the
// rebuild) — and after every edit, and after a closing flip, checks the
// analysis against a fresh engine, bit for bit.
func FuzzStructuralDeltaMatchesFull(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 9, 0, 17, 1, 3, 5, 0, 2, 0})
	f.Add([]byte{5, 0, 3, 1, 8, 5, 1, 4, 6, 2, 0, 11})
	f.Add([]byte{1, 0, 1, 2, 1, 4, 0, 0, 0, 1, 6, 3, 1, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		spec, _ := bench.ProfileByName("D1", bench.ProfileOpts{Scale: 400})
		gen, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := gen.Design
		e := New(d)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var combs, drivers []*netlist.Inst
		d.Insts(func(in *netlist.Inst) {
			switch in.Kind {
			case netlist.KindComb:
				combs = append(combs, in)
			case netlist.KindPort:
				if p := d.OutPin(in); p != nil && p.Dir == netlist.DirOut && p.Net != netlist.NoID && !d.Net(p.Net).IsClock {
					drivers = append(drivers, in)
				}
			}
		})
		skews := map[netlist.InstID]float64{}
		ideal := false
		check := func(label string) {
			t.Helper()
			got, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			fresh := New(d)
			fresh.SetIdealClocks(ideal)
			for id, s := range skews {
				fresh.SetSkew(id, s)
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %s", label, e.Stats().LastKind)
			sameResults(t, got, want)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, int(ops[i+1])
			regs := d.Registers()
			r := regs[arg%len(regs)]
			movable := !r.Fixed && !r.SizeOnly
			switch op {
			case 0: // merge
				if o, cell := fuzzMergePartner(d, r, regs, arg/len(regs)); movable && o != nil {
					if _, err := d.MergeRegisters([]*netlist.Inst{r, o}, cell, fmt.Sprintf("fz_m%d", i), r.Pos); err != nil {
						t.Fatal(err)
					}
				}
			case 1: // split
				if cs := d.Lib.CellsOfWidth(r.RegCell.Class, 1); movable && r.Bits() > 1 && len(cs) > 0 {
					d.SplitRegister(r, cs[0]) // a name collision rejects it and edits nothing
				}
			case 2: // move
				if movable {
					d.MoveInst(r, geom.Point{X: r.Pos.X + int64(arg*37%4001) - 2000, Y: r.Pos.Y + int64(arg*53%4001) - 2000})
				}
			case 3: // resize
				if cs := d.Lib.CellsOfWidth(r.RegCell.Class, r.RegCell.Bits); !r.Fixed && len(cs) > 1 {
					if err := d.ResizeRegister(r, cs[arg%len(cs)]); err != nil {
						t.Fatal(err)
					}
				}
			case 4: // skew
				s := float64(arg%41 - 20)
				e.SetSkew(r.ID, s)
				skews[r.ID] = s
			case 5: // ideal-clock flip
				ideal = !ideal
				e.SetIdealClocks(ideal)
			case 6: // combinational reconnect onto an input port's net: no cycle
				if len(combs) > 0 && len(drivers) > 0 {
					c := combs[arg%len(combs)]
					port := drivers[arg%len(drivers)]
					if in := d.FindPin(c, netlist.PinData, 0); in != nil {
						d.Connect(in, d.Net(d.OutPin(port).Net))
					}
				}
			}
			check(fmt.Sprintf("op %d (%d)", i/2, op))
		}
		// A closing flip re-seeds every register, most from the Q-net loads
		// stored at their last seed: each must still be current.
		ideal = !ideal
		e.SetIdealClocks(ideal)
		check("closing flip")
	})
}

// fuzzMergePartner returns the first live register from regs[start:] (then
// from the front) that MergeRegisters accepts beside r, and the cell for
// the combined width.
func fuzzMergePartner(d *netlist.Design, r *netlist.Inst, regs []*netlist.Inst, start int) (*netlist.Inst, *lib.Cell) {
	for i := range regs {
		o := regs[(start+i)%len(regs)]
		if o == r || o.Fixed || o.SizeOnly || o.RegCell.Class != r.RegCell.Class {
			continue
		}
		same := true
		for _, k := range []netlist.PinKind{netlist.PinClock, netlist.PinReset, netlist.PinEnable, netlist.PinScanEnable} {
			same = same && d.ControlNet(o, k) == d.ControlNet(r, k)
		}
		if cs := d.Lib.CellsOfWidth(r.RegCell.Class, r.Bits()+o.Bits()); same && len(cs) > 0 {
			return o, cs[0]
		}
	}
	return nil, nil
}
