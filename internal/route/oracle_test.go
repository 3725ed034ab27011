package route_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sta"
)

// oracleScale keeps the five profiles small enough for many edit rounds.
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

// requireMapsEqual asserts exact equality with the route.Estimate oracle:
// grid shape, bit-identical demand arrays, and every derived metric —
// including the engine's incrementally maintained overflow count.
func requireMapsEqual(t *testing.T, ctx string, eng *route.Engine, d *netlist.Design, opts route.Options) {
	t.Helper()
	got := eng.Map()
	want := route.Estimate(d, opts)
	if got.NX != want.NX || got.NY != want.NY {
		t.Fatalf("%s: grid %dx%d != oracle %dx%d", ctx, got.NX, got.NY, want.NX, want.NY)
	}
	for i := range want.HDemand {
		if got.HDemand[i] != want.HDemand[i] {
			t.Fatalf("%s: HDemand[%d] = %v, oracle %v", ctx, i, got.HDemand[i], want.HDemand[i])
		}
	}
	for i := range want.VDemand {
		if got.VDemand[i] != want.VDemand[i] {
			t.Fatalf("%s: VDemand[%d] = %v, oracle %v", ctx, i, got.VDemand[i], want.VDemand[i])
		}
	}
	if g, w := eng.OverflowEdges(), want.OverflowEdges(); g != w {
		t.Fatalf("%s: maintained OverflowEdges %d != oracle %d", ctx, g, w)
	}
	if g, w := got.OverflowEdges(), want.OverflowEdges(); g != w {
		t.Fatalf("%s: map OverflowEdges %d != oracle %d", ctx, g, w)
	}
	if g, w := got.TotalOverflow(), want.TotalOverflow(); g != w {
		t.Fatalf("%s: TotalOverflow %v != oracle %v", ctx, g, w)
	}
	if g, w := got.MaxUtilization(), want.MaxUtilization(); g != w {
		t.Fatalf("%s: MaxUtilization %v != oracle %v", ctx, g, w)
	}
}

// mutate applies one randomized edit round: moves, resizes, and every third
// round a composition pass (merges remove registers, create an MBR, and
// rewire its nets). release is the clock-release hook merges need when
// retained clock trees are attached (nil otherwise).
func mutate(t *testing.T, b *bench.Result, eng *sta.Engine, rng *rand.Rand, round int, release func([]*netlist.Inst)) {
	t.Helper()
	d := b.Design
	regs := d.Registers()
	if len(regs) == 0 {
		return
	}
	for k := 0; k < 1+rng.Intn(5); k++ {
		r := regs[rng.Intn(len(regs))]
		if r.Fixed {
			continue
		}
		d.MoveInst(r, geom.Point{
			X: r.Pos.X + int64(rng.Intn(4001)) - 2000,
			Y: r.Pos.Y + int64(rng.Intn(4001)) - 2000,
		})
	}
	for k := 0; k < rng.Intn(3); k++ {
		r := regs[rng.Intn(len(regs))]
		if r.Fixed || r.SizeOnly {
			continue
		}
		cands := d.Lib.CellsOfWidth(r.RegCell.Class, r.RegCell.Bits)
		if len(cands) > 1 {
			if err := d.ResizeRegister(r, cands[rng.Intn(len(cands))]); err != nil {
				t.Fatalf("resize: %v", err)
			}
		}
	}
	if round%3 == 2 {
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("sta for compose: %v", err)
		}
		g := compat.Build(d, res, b.Plan, compat.DefaultOptions())
		opts := core.DefaultOptions()
		opts.NamePrefix = fmt.Sprintf("orc%d", round)
		opts.ReleaseClocks = release
		if _, err := core.Compose(d, g, b.Plan, opts); err != nil {
			t.Fatalf("compose: %v", err)
		}
	}
}

// TestDeltaEqualsEstimateOracle is the equivalence oracle of the ISSUE:
// after randomized rounds of move/resize/merge edit storms on all five
// profiles, the delta-maintained congestion map must equal a fresh
// route.Estimate bit-for-bit, at several worker counts.
func TestDeltaEqualsEstimateOracle(t *testing.T) {
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/w%d", profile, workers), func(t *testing.T) {
				b := genProfile(t, profile)
				d := b.Design
				eng := sta.New(d)
				eng.SetIdealClocks(true)
				opts := route.DefaultOptions()
				rt := route.NewEngine(d, opts)
				rt.SetWorkers(workers)
				rng := rand.New(rand.NewSource(int64(len(profile)*1000 + workers)))

				for round := 0; round < 8; round++ {
					rt.Update()
					ctx := fmt.Sprintf("%s w%d round %d (%s)",
						profile, workers, round, rt.Stats().LastKind)
					requireMapsEqual(t, ctx, rt, d, opts)
					mutate(t, b, eng, rng, round, nil)
				}
				// Removals leave dead instance and net IDs behind. More of
				// them land unsynced before Invalidate, so the rebuild reuses
				// slots whose contents went stale; moving the drivers of the
				// nets a removal left with one pin then retracts whatever the
				// rebuild left in those nets' slots.
				removeRegs(t, d, rng, 12)
				requireMapsEqual(t, "removals", rt, d, opts)
				drivers := strandNets(d, 4)
				removeRegs(t, d, rng, 4)
				rt.Invalidate()
				requireMapsEqual(t, "post-invalidate", rt, d, opts)
				for _, in := range drivers {
					d.MoveInst(in, geom.Point{X: in.Pos.X + 2400, Y: in.Pos.Y})
				}
				requireMapsEqual(t, "stranded drivers moved", rt, d, opts)
				for round := 8; round < 12; round++ {
					mutate(t, b, eng, rng, round, nil)
					removeRegs(t, d, rng, 2)
					requireMapsEqual(t, fmt.Sprintf("post-invalidate round %d", round), rt, d, opts)
				}
				st := rt.Stats()
				if st.Deltas == 0 {
					t.Fatalf("no update took the delta path: %+v", st)
				}
				if st.Rebuilds != 2 {
					t.Fatalf("expected the attach and post-invalidate rebuilds, got %+v", st)
				}
			})
		}
	}
}

// strandNets removes the one sink instance of up to n two-pin signal nets
// whose driver and sink are both movable, leaving each net live with a
// single pin. It returns the drivers.
func strandNets(d *netlist.Design, n int) []*netlist.Inst {
	var drivers, sinks []*netlist.Inst
	used := map[*netlist.Inst]bool{}
	d.Nets(func(nt *netlist.Net) {
		if len(drivers) == n || nt.IsClock || nt.Driver == netlist.NoID || len(nt.Sinks) != 1 {
			return
		}
		drv, sink := d.Inst(d.Pin(nt.Driver).Inst), d.Inst(d.Pin(nt.Sinks[0]).Inst)
		if drv.Fixed || sink.Fixed || drv == sink || used[drv] || used[sink] {
			return
		}
		used[drv], used[sink] = true, true
		drivers, sinks = append(drivers, drv), append(sinks, sink)
	})
	for _, in := range sinks {
		d.RemoveInst(in)
	}
	return drivers
}

// removeRegs removes up to n random registers, together with the nets
// their removal leaves unconnected.
func removeRegs(t *testing.T, d *netlist.Design, rng *rand.Rand, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		regs := d.Registers()
		if len(regs) <= 20 {
			return
		}
		in := regs[rng.Intn(len(regs))]
		var nets []*netlist.Net
		for _, pid := range in.Pins {
			if nid := d.Pin(pid).Net; nid != netlist.NoID {
				nets = append(nets, d.Net(nid))
			}
		}
		d.RemoveInst(in)
		for _, nt := range nets {
			if nt.Driver == netlist.NoID && len(nt.Sinks) == 0 {
				if err := d.RemoveNet(nt); err != nil {
					t.Fatalf("remove net: %v", err)
				}
			}
		}
	}
}

// TestOracleWithRetainedCTS drives the edit storm with a retained clock
// tree attached, so updates see real CTS-class churn (buffer moves, leaf
// rewires). The engine must fold that churn in: the map equals the oracle.
func TestOracleWithRetainedCTS(t *testing.T) {
	// Clock nets are always routed; the subtest keeps its historical name.
	t.Run("includeClock=true", func(t *testing.T) {
		b := genProfile(t, "D2")
		d := b.Design
		eng := sta.New(d)
		eng.SetIdealClocks(true)
		ct := cts.NewEngine(d, cts.DefaultOptions())
		if err := ct.Attach(); err != nil {
			t.Fatalf("attach: %v", err)
		}
		opts := route.DefaultOptions()
		rt := route.NewEngine(d, opts)
		rng := rand.New(rand.NewSource(7))

		for round := 0; round < 8; round++ {
			rt.Update()
			ctx := fmt.Sprintf("cts round %d (%s)", round, rt.Stats().LastKind)
			requireMapsEqual(t, ctx, rt, d, opts)
			mutate(t, b, eng, rng, round, ct.ReleaseClocks)
			if err := ct.Update(); err != nil {
				t.Fatalf("cts update: %v", err)
			}
		}
		if st := rt.Stats(); st.Deltas == 0 {
			t.Fatalf("no update took the delta path: %+v", st)
		}
	})
}

// TestDeltaTouchesOnlyAffectedNets pins the O(touched) claim: one moved
// register must be served by a delta that re-contributes only the mover's
// neighbourhood, far below the design's net count.
func TestDeltaTouchesOnlyAffectedNets(t *testing.T) {
	b := genProfile(t, "D2")
	d := b.Design
	opts := route.DefaultOptions()
	rt := route.NewEngine(d, opts)
	rt.Update()

	var r *netlist.Inst
	for _, c := range d.Registers() {
		if !c.Fixed {
			r = c
			break
		}
	}
	if r == nil {
		t.Skip("no movable register")
	}
	d.MoveInst(r, geom.Point{X: r.Pos.X + 500, Y: r.Pos.Y + 500})
	rt.Update()
	st := rt.Stats()
	if st.LastKind != "delta" {
		t.Fatalf("expected delta, got %q (fallback %q)", st.LastKind, st.LastFallback)
	}
	if st.LastNetsDelta == 0 {
		t.Fatal("delta re-contributed no nets for a moved register")
	}
	if st.LastNetsDelta >= d.NumNets()/2 {
		t.Fatalf("delta re-contributed %d of %d nets — not O(touched)",
			st.LastNetsDelta, d.NumNets())
	}
	requireMapsEqual(t, "single-move delta", rt, d, opts)
}

// TestInvalidateForcesRebuild checks the engine's Invalidate: after
// Invalidate the next sync rebuilds from scratch and matches the oracle.
func TestInvalidateForcesRebuild(t *testing.T) {
	b := genProfile(t, "D1")
	d := b.Design
	opts := route.DefaultOptions()
	rt := route.NewEngine(d, opts)
	rt.Update()
	rt.Invalidate()
	rt.Update()
	st := rt.Stats()
	if st.LastKind != "rebuild" || st.LastFallback != "invalidate" {
		t.Fatalf("expected invalidate rebuild, got %q/%q", st.LastKind, st.LastFallback)
	}
	sum := rt.Summary()
	if sum.Rebuilds != 2 || sum.LastKind != "rebuild" {
		t.Fatalf("summary disagrees with stats: %+v", sum)
	}
	requireMapsEqual(t, "post-invalidate", rt, d, opts)
}
