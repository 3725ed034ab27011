package metrics_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/cts"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/sta"
)

const oracleScale = 300

func genProfile(t testing.TB, name string) *bench.Result {
	t.Helper()
	o := bench.ProfileOpts{Scale: oracleScale}
	var spec bench.Spec
	switch name {
	case "D1":
		spec = bench.D1(o)
	case "D2":
		spec = bench.D2(o)
	case "D3":
		spec = bench.D3(o)
	case "D4":
		spec = bench.D4(o)
	case "D5":
		spec = bench.D5(o)
	default:
		t.Fatalf("unknown profile %s", name)
	}
	b, err := bench.Generate(spec)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return b
}

// requireEqualsOracles compares the tracked aggregates against the batch
// walks they replace. Everything is integral, so equality is exact.
func requireEqualsOracles(t *testing.T, ctx string, tr *metrics.Tracker, d *netlist.Design) {
	t.Helper()
	got := tr.Aggregates()
	_, sig := d.Wirelength()
	regs := d.Registers()
	comp := 0
	for _, in := range regs {
		if _, excluded := compat.Exclusion(d, in); !excluded {
			comp++
		}
	}
	want := metrics.Aggregates{
		Cells:       d.NumInsts(),
		Regs:        len(regs),
		CompRegs:    comp,
		AreaDBU2:    d.TotalArea(),
		SignalWLDBU: sig,
	}
	if got != want {
		t.Fatalf("%s: tracker %+v != oracle %+v (stats %+v)", ctx, got, want, tr.Stats())
	}
}

// mutate applies one random round of flow-class edits: register moves,
// resizes, removals, and signal-pin disconnect/reconnect toggles.
func mutate(t *testing.T, d *netlist.Design, rng *rand.Rand, parked map[netlist.PinID]netlist.NetID) {
	t.Helper()
	regs := d.Registers()
	if len(regs) == 0 {
		return
	}
	for k := 0; k < 2+rng.Intn(6); k++ {
		in := regs[rng.Intn(len(regs))]
		if in.Fixed {
			continue
		}
		dx := int64(rng.Intn(40001)) - 20000
		dy := int64(rng.Intn(40001)) - 20000
		d.MoveInst(in, geom.Point{X: in.Pos.X + dx, Y: in.Pos.Y + dy})
	}
	for k := 0; k < rng.Intn(3); k++ {
		in := regs[rng.Intn(len(regs))]
		if in.Fixed || in.SizeOnly {
			continue
		}
		cands := d.Lib.CellsOfWidth(in.RegCell.Class, in.RegCell.Bits)
		if len(cands) < 2 {
			continue
		}
		if err := d.ResizeRegister(in, cands[rng.Intn(len(cands))]); err != nil {
			t.Fatalf("resize: %v", err)
		}
	}
	// Toggle a data pin off and back onto its net, exercising structural
	// edits (net membership and HPWL both change).
	for k := 0; k < 1+rng.Intn(3); k++ {
		in := regs[rng.Intn(len(regs))]
		p := d.FindPin(in, netlist.PinData, 0)
		if p == nil {
			continue
		}
		if p.Net != netlist.NoID {
			parked[p.ID] = p.Net
			d.Disconnect(p)
		} else if nid, ok := parked[p.ID]; ok {
			d.Connect(p, d.Net(nid))
			delete(parked, p.ID)
		}
	}
	if rng.Intn(3) == 0 && len(regs) > 20 {
		d.RemoveInst(regs[rng.Intn(len(regs))])
	}
}

// mutateComposability applies edits that move registers into or out of the
// compatibility graph's node set without adding or removing a register:
// fixed and size-only toggles, a clock-pin disconnect, and a one-register
// merge into its class's maximum-width cell (ResizeRegister keeps the
// width, so a merge is how a register reaches the maximum).
func mutateComposability(t *testing.T, d *netlist.Design, rng *rand.Rand) {
	t.Helper()
	regs := d.Registers()
	pick := func() *netlist.Inst { return regs[rng.Intn(len(regs))] }
	in := pick()
	d.SetFixed(in, !in.Fixed)
	in = pick()
	d.SetSizeOnly(in, !in.SizeOnly)
	if cp := d.ClockPin(pick()); cp != nil {
		d.Disconnect(cp)
	}
	for tries := 0; tries < 20; tries++ {
		in := pick()
		if in.Fixed || in.SizeOnly {
			continue
		}
		class := in.RegCell.Class
		widest := d.Lib.MaxWidth(class)
		if in.RegCell.Bits >= widest {
			continue
		}
		cell := d.Lib.CellsOfWidth(class, widest)[0]
		if _, err := d.MergeRegisters([]*netlist.Inst{in}, cell, in.Name, in.Pos); err != nil {
			t.Fatalf("merge to max width: %v", err)
		}
		return
	}
}

// TestTrackerEqualsOracles runs randomized edit rounds on all five bench
// profiles and requires the tracked aggregates to match the batch oracles
// exactly after every round, with the delta path actually taken.
func TestTrackerEqualsOracles(t *testing.T) {
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		t.Run(profile, func(t *testing.T) {
			d := genProfile(t, profile).Design
			tr := metrics.New(d)
			requireEqualsOracles(t, "baseline", tr, d)
			rng := rand.New(rand.NewSource(int64(len(profile) * 31)))
			parked := map[netlist.PinID]netlist.NetID{}
			for round := 0; round < 12; round++ {
				mutate(t, d, rng, parked)
				if round%2 == 1 {
					mutateComposability(t, d, rng)
				}
				requireEqualsOracles(t, fmt.Sprintf("round %d", round), tr, d)
			}
			// Removals leave dead IDs behind in the tracker's slots. Each
			// victim is first touched under the CTS class, so one delta sees
			// it in both rings: its slot must read dead after the first
			// visit or the second subtracts it again.
			removeTouchedTwice(t, d, rng, 4)
			requireEqualsOracles(t, "removals", tr, d)
			// More edits and removals land unsynced before Invalidate: the
			// rebuild reuses slots whose contents went stale, and every
			// snapshot's net buffer; further edits then run deltas over them.
			mutate(t, d, rng, parked)
			removeTouchedTwice(t, d, rng, 2)
			tr.Invalidate()
			requireEqualsOracles(t, "post-invalidate", tr, d)
			for round := 0; round < 4; round++ {
				mutate(t, d, rng, parked)
				removeTouchedTwice(t, d, rng, 1)
				mutateComposability(t, d, rng)
				requireEqualsOracles(t, fmt.Sprintf("post-invalidate round %d", round), tr, d)
			}
			st := tr.Stats()
			if st.Deltas == 0 {
				t.Fatalf("no sync took the delta path: %+v", st)
			}
			if st.FullRebuilds != 2 {
				t.Fatalf("expected exactly the baseline and post-invalidate rebuilds, got %+v", st)
			}
		})
	}
}

// removeTouchedTwice removes n random registers, each after a CTS-class
// clock-pin rewire, so the removal reaches the tracker through both the
// flow and the CTS touched rings.
func removeTouchedTwice(t *testing.T, d *netlist.Design, rng *rand.Rand, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		regs := d.Registers()
		in := regs[rng.Intn(len(regs))]
		cp := d.ClockPin(in)
		if cp == nil || cp.Net == netlist.NoID {
			continue
		}
		clk := d.Net(cp.Net)
		d.WithEditClass(netlist.EditClassCTS, func() {
			d.Disconnect(cp)
			d.Connect(cp, clk)
		})
		d.RemoveInst(in)
	}
}

// TestTrackerCompRegsEqualsGraphNodes checks the tracked composable count
// against the node count of a batch-built compatibility graph, after
// edits that change composability.
func TestTrackerCompRegsEqualsGraphNodes(t *testing.T) {
	d := genProfile(t, "D1").Design
	tr := metrics.New(d)
	tr.Aggregates()
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 3; round++ {
		mutateComposability(t, d, rng)
	}
	res, err := sta.New(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	g := compat.Build(d, res, nil, compat.DefaultOptions())
	if got := tr.Aggregates().CompRegs; got != len(g.Regs) {
		t.Fatalf("tracked CompRegs %d != compat.Build's %d nodes (stats %+v)", got, len(g.Regs), tr.Stats())
	}
	if st := tr.Stats(); st.Deltas == 0 {
		t.Fatalf("composability edits never took the delta path: %+v", st)
	}
}

// TestTrackerCTSRingOverflowRecounts shrinks the touched rings so the CTS
// engine's per-update churn overflows its ring while the handful of flow
// edits stays tracked: the tracker must fall back to the instance-side
// recount (keeping its net caches) and still match the oracles.
func TestTrackerCTSRingOverflowRecounts(t *testing.T) {
	d := genProfile(t, "D2").Design
	d.SetTouchedLogCap(64)
	defer d.SetTouchedLogCap(0)
	eng := cts.NewEngine(d, cts.DefaultOptions())
	if err := eng.Attach(); err != nil {
		t.Fatalf("attach: %v", err)
	}
	tr := metrics.New(d)
	requireEqualsOracles(t, "baseline", tr, d)
	rng := rand.New(rand.NewSource(7))
	parked := map[netlist.PinID]netlist.NetID{}
	for round := 0; round < 6; round++ {
		mutate(t, d, rng, parked)
		mutateComposability(t, d, rng)
		if err := eng.Update(); err != nil {
			t.Fatalf("cts update: %v", err)
		}
		requireEqualsOracles(t, fmt.Sprintf("round %d", round), tr, d)
	}
	st := tr.Stats()
	if st.InstRecounts == 0 {
		t.Fatalf("CTS churn never forced an instance recount: %+v", st)
	}
	if st.FullRebuilds != 1 {
		t.Fatalf("CTS-ring overflow escalated to a full rebuild: %+v", st)
	}
}

// TestTrackerFlowRingOverflowRebuilds floods the flow ring in one round
// and checks the tracker downgrades to a full rebuild — and is still
// exact.
func TestTrackerFlowRingOverflowRebuilds(t *testing.T) {
	d := genProfile(t, "D1").Design
	d.SetTouchedLogCap(32)
	defer d.SetTouchedLogCap(0)
	tr := metrics.New(d)
	requireEqualsOracles(t, "baseline", tr, d)
	for _, in := range d.Registers() {
		if !in.Fixed {
			d.MoveInst(in, geom.Point{X: in.Pos.X + 100, Y: in.Pos.Y})
		}
	}
	requireEqualsOracles(t, "post-flood", tr, d)
	if st := tr.Stats(); st.FullRebuilds != 2 {
		t.Fatalf("flow-ring overflow did not rebuild: %+v", st)
	}
}

// TestTrackerInvalidate drops the cache and checks the next sync rebuilds.
func TestTrackerInvalidate(t *testing.T) {
	d := genProfile(t, "D3").Design
	tr := metrics.New(d)
	requireEqualsOracles(t, "baseline", tr, d)
	tr.Invalidate()
	requireEqualsOracles(t, "post-invalidate", tr, d)
	if st := tr.Stats(); st.FullRebuilds != 2 {
		t.Fatalf("Invalidate did not force a rebuild: %+v", st)
	}
}
