package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// fingerprint captures the state an incremental consumer caches for one
// instance: position, flags, groups, cell identity, pin connectivity.
func fingerprint(d *netlist.Design, in *netlist.Inst) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %v %v %d %d %p %p|", in.Pos, in.Fixed, in.SizeOnly,
		in.GateGroup, in.ScanPartition, in.RegCell, in.Comb)
	for _, pid := range in.Pins {
		p := d.Pin(pid)
		fmt.Fprintf(&b, "%d/%d:%d ", p.Kind, p.Bit, p.Net)
	}
	return b.String()
}

func designSnapshot(d *netlist.Design) map[netlist.InstID]string {
	out := map[netlist.InstID]string{}
	d.Insts(func(in *netlist.Inst) { out[in.ID] = fingerprint(d, in) })
	return out
}

// TestComposeTouchedLogConsistency runs a real composition pass — merges,
// scan-plan rewrites, incremental legalization moves — and asserts the
// touched log accounts for every instance whose state actually changed
// (the satellite guarantee: a flow pass never leaves the log inconsistent
// with the mutations it performed).
func TestComposeTouchedLogConsistency(t *testing.T) {
	b, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: 300}))
	if err != nil {
		t.Fatal(err)
	}
	d := b.Design
	eng := sta.New(d)
	eng.SetIdealClocks(true)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := compat.Build(d, res, b.Plan, compat.DefaultOptions())

	cursor := d.Epoch()
	before := designSnapshot(d)
	cres, err := Compose(d, g, b.Plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.MBRs) == 0 {
		t.Fatal("composition merged nothing; the test needs real mutations")
	}
	after := designSnapshot(d)

	changed := map[netlist.InstID]bool{}
	for id, s := range before {
		if s2, ok := after[id]; !ok || s2 != s {
			changed[id] = true
		}
	}
	for id := range after {
		if _, ok := before[id]; !ok {
			changed[id] = true
		}
	}

	touched, complete := d.TouchedSinceClass(cursor, netlist.EditClassFlow, nil)
	if !complete {
		t.Skipf("touched log overflowed (%d changes); nothing to verify", len(changed))
	}
	logged := map[netlist.InstID]bool{}
	for _, id := range touched {
		logged[id] = true
	}
	for id := range changed {
		if !logged[id] {
			t.Errorf("compose changed instance %d but the touched log missed it", id)
		}
	}
}
