package flow

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// freshScanVictims selects decompose victims the long way: a fresh STA
// engine under ideal clocks, every register checked against the pass's
// filter (movable, at least two bits, a 1-bit cell of its class at its
// drive strength, worst D/Q slack below the threshold), worst slack first
// with the instance ID breaking ties, cut to the budget.
func freshScanVictims(t *testing.T, d *netlist.Design, dcfg DecomposeConfig) []string {
	t.Helper()
	eng := sta.New(d)
	eng.SetIdealClocks(true)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	type cand struct {
		in    *netlist.Inst
		slack float64
	}
	var cands []cand
	for _, in := range d.Registers() {
		if in.Fixed || in.SizeOnly || in.Bits() < 2 ||
			d.Lib.SelectCell(in.RegCell.Class, 1, in.RegCell.DriveRes) == nil {
			continue
		}
		worst := math.Min(sta.RegDSlack(d, res, in), sta.RegQSlack(d, res, in))
		if worst < dcfg.SlackThresholdPS {
			cands = append(cands, cand{in, worst})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].slack != cands[j].slack {
			return cands[i].slack < cands[j].slack
		}
		return cands[i].in.ID < cands[j].in.ID
	})
	if len(cands) > dcfg.Budget {
		cands = cands[:dcfg.Budget]
	}
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.in.Name
	}
	return names
}

// TestDecomposeVictimsMatchFreshScan checks which registers the decompose
// pass splits: over several bank/debank rounds of a composed session —
// the retained STA engine by then patched and re-seeded many times — each
// pass must pick exactly the victims, in exactly the order, that a fresh
// analysis and a scan of every register pick.
func TestDecomposeVictimsMatchFreshScan(t *testing.T) {
	b, err := bench.Generate(bench.D4(bench.ProfileOpts{Scale: 40}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(b.Design, b.Plan, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := s.ComposePass(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Measure(); err != nil {
		t.Fatal(err)
	}
	dcfg := DecomposeConfig{Budget: 4, SlackThresholdPS: 1e9}
	for round := 0; round < 3; round++ {
		want := freshScanVictims(t, s.Design(), dcfg)
		if len(want) != dcfg.Budget {
			t.Fatalf("round %d: the scan found %d victims, want the budget %d", round, len(want), dcfg.Budget)
		}
		res, err := s.DecomposePassWith(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Victims, want) {
			t.Fatalf("round %d: victims %v, fresh scan picks %v", round, res.Victims, want)
		}
		if _, err := s.Measure(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RestorePass(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ComposePass(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Measure(); err != nil {
			t.Fatal(err)
		}
	}
}
