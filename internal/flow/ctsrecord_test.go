package flow

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// TestCTSClassEditsTouchOnlyClocks pins the rule the route engine and the
// metrics tracker read the CTS-class record by: a CTS-class edit only
// rewires clock pins and adds, moves or removes clock buffers. Through the
// base attach, the tree update after a composition pass, the clock release
// inside a merge edit and the update after it, and a canonicalizing
// rebuild, every instance on the CTS-class record is a clock buffer (live
// or removed) or a clock sink — a register or clock gate — whose position
// and signal nets did not change, the flow-class record stays empty and no
// CTS-class edit is structural.
func TestCTSClassEditsTouchOnlyClocks(t *testing.T) {
	for _, spec := range []bench.Spec{
		bench.D1(bench.ProfileOpts{Scale: 100}),
		bench.D4(bench.ProfileOpts{Scale: 40}),
	} {
		b, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, cfg := b.Design, DefaultConfig()
		d.ResetTouchedLog()
		s := &Session{d: d, plan: b.Plan, cfg: cfg, engs: newEngines(d, b.Plan, cfg)}
		t.Cleanup(s.Close)
		type instState struct {
			pos  geom.Point
			nets []netlist.NetID
		}
		check := func(phase string, fn func() error) {
			t.Helper()
			before := map[netlist.InstID]instState{}
			d.Insts(func(in *netlist.Inst) {
				before[in.ID] = instState{in.Pos, d.InstNets(in.ID, true, nil)}
			})
			cursor := d.Epoch()
			if err := fn(); err != nil {
				t.Fatalf("%s %s: %v", d.Name, phase, err)
			}
			if flowT, _ := d.TouchedSinceClass(cursor, netlist.EditClassFlow, nil); len(flowT) != 0 {
				t.Fatalf("%s %s: %d flow-class instances touched", d.Name, phase, len(flowT))
			}
			ctsT, _ := d.TouchedSinceClass(cursor, netlist.EditClassCTS, nil)
			for _, id := range ctsT {
				in := d.Inst(id)
				if in == nil {
					if rm := d.RemovedInst(id); rm.Kind != netlist.KindClockBuf {
						t.Fatalf("%s %s: removed %s %s", d.Name, phase, rm.Kind, rm.Name)
					}
					continue
				}
				if in.Kind == netlist.KindClockBuf {
					continue
				}
				was, ok := before[id]
				if (in.Kind != netlist.KindReg && in.Kind != netlist.KindClockGate) ||
					!ok || in.Pos != was.pos || !slices.Equal(d.InstNets(id, true, nil), was.nets) {
					t.Fatalf("%s %s: %s %s changed beyond its clock pin", d.Name, phase, in.Kind, in.Name)
				}
			}
			if len(ctsT) == 0 {
				t.Fatalf("%s %s: no CTS-class edit", d.Name, phase)
			}
			if e := d.StructuralEpochOf(netlist.EditClassCTS); e != 0 {
				t.Fatalf("%s %s: CTS-class structural edit at epoch %d", d.Name, phase, e)
			}
		}
		release := func(regs []*netlist.Inst) {
			check("clock release", func() error { s.engs.cts.ReleaseClocks(regs); return nil })
		}

		check("attach", s.engs.cts.Attach)

		// Session.ComposePass with the clock release observed.
		opts := core.NormalizeOptions(cfg.Compose)
		opts.Workers = cfg.Workers
		opts.ReleaseClocks = release
		s.engs.sta.SetIdealClocks(true)
		if _, err := s.engs.sta.RunEndpoints(); err != nil {
			t.Fatal(err)
		}
		cres, err := core.Compose(d, s.engs.cg.Update(s.engs.sta), b.Plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		s.engs.sta.SetIdealClocks(false)
		if len(cres.MBRs) == 0 {
			t.Fatalf("%s: composition made no MBR", d.Name)
		}
		check("update after compose", s.engs.cts.Update)

		// A merge edit as applyMerge makes it.
		pairs := mergeablePairs(s, 1, false)
		if len(pairs) == 0 {
			t.Fatalf("%s: no mergeable pair", d.Name)
		}
		group := pairs[0][:]
		first := group[0].RegCell
		cell, err := fitCell(d.Lib, first.Class, 2, first.DriveRes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Bank(d, b.Plan, release, group, cell, "probe_mbr", centroid(d, group)); err != nil {
			t.Fatal(err)
		}
		check("update after merge", s.engs.cts.Update)
		check("canonicalize", s.engs.cts.Canonicalize)
	}
}
