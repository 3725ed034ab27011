package cts_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cts"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/place"
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

// twin is a pair of identically generated designs receiving identical
// edits: A carries the retained engine, B is rebuilt fresh every round by
// the batch Build oracle. Because the edit script never creates new
// registers, register pin IDs stay identical across the pair, so both
// sides cluster the same canonical sink sequence.
type twin struct {
	a, b *bench.Result
	// spares are registers whose clock pins the script toggles on and off
	// the clock net, exercising sink insertion and removal.
	spares []int
	// clockOf remembers each register's generate-time clock net ID (equal
	// in both designs) so toggles know where to reconnect.
	clockOf map[int]netlist.NetID
}

func makeTwin(t *testing.T, profile string) *twin {
	tw := &twin{a: genProfile(t, profile), b: genProfile(t, profile), clockOf: map[int]netlist.NetID{}}
	ra, rb := tw.a.Design.Registers(), tw.b.Design.Registers()
	if len(ra) != len(rb) {
		t.Fatalf("twin generation diverged: %d vs %d registers", len(ra), len(rb))
	}
	for i := range ra {
		if cp := tw.a.Design.ClockPin(ra[i]); cp != nil && cp.Net != netlist.NoID {
			tw.clockOf[i] = cp.Net
		}
	}
	// Park every 10th clocked register off the clock net before the engine
	// attaches, so the script can plug sinks in later.
	for i := range ra {
		if _, ok := tw.clockOf[i]; ok && i%10 == 3 {
			tw.spares = append(tw.spares, i)
			tw.a.Design.Disconnect(tw.a.Design.ClockPin(ra[i]))
			tw.b.Design.Disconnect(tw.b.Design.ClockPin(rb[i]))
		}
	}
	return tw
}

// regs returns the index-aligned live register lists of both designs.
func (tw *twin) regs(t *testing.T) ([]*netlist.Inst, []*netlist.Inst) {
	ra, rb := tw.a.Design.Registers(), tw.b.Design.Registers()
	if len(ra) != len(rb) {
		t.Fatalf("twin register lists diverged: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].ID != rb[i].ID {
			t.Fatalf("twin register %d diverged: inst %d vs %d", i, ra[i].ID, rb[i].ID)
		}
	}
	return ra, rb
}

// mutate applies one identical randomized edit round to both designs:
// register moves, resizes (clock pin cap changes), removals, and spare
// clock-pin toggles (sink set growth and shrinkage).
func (tw *twin) mutate(t *testing.T, rng *rand.Rand) {
	t.Helper()
	ra, rb := tw.regs(t)
	for k := 0; k < 2+rng.Intn(6); k++ {
		i := rng.Intn(len(ra))
		if ra[i].Fixed {
			continue
		}
		dx := int64(rng.Intn(40001)) - 20000
		dy := int64(rng.Intn(40001)) - 20000
		tw.a.Design.MoveInst(ra[i], geom.Point{X: ra[i].Pos.X + dx, Y: ra[i].Pos.Y + dy})
		tw.b.Design.MoveInst(rb[i], geom.Point{X: rb[i].Pos.X + dx, Y: rb[i].Pos.Y + dy})
	}
	for k := 0; k < rng.Intn(3); k++ {
		i := rng.Intn(len(ra))
		if ra[i].Fixed || ra[i].SizeOnly {
			continue
		}
		cands := tw.a.Design.Lib.CellsOfWidth(ra[i].RegCell.Class, ra[i].RegCell.Bits)
		if len(cands) < 2 {
			continue
		}
		c := rng.Intn(len(cands))
		if err := tw.a.Design.ResizeRegister(ra[i], cands[c]); err != nil {
			t.Fatalf("resize A: %v", err)
		}
		if err := tw.b.Design.ResizeRegister(rb[i], cands[c]); err != nil {
			t.Fatalf("resize B: %v", err)
		}
	}
	// Toggle a few spares: connected -> parked, parked -> connected.
	for k := 0; k < 1+rng.Intn(3) && len(tw.spares) > 0; k++ {
		si := tw.spares[rng.Intn(len(tw.spares))]
		if si >= len(ra) {
			continue
		}
		cpa, cpb := tw.a.Design.ClockPin(ra[si]), tw.b.Design.ClockPin(rb[si])
		if cpa.Net != netlist.NoID {
			tw.a.Design.Disconnect(cpa)
			tw.b.Design.Disconnect(cpb)
		} else {
			na := tw.a.Design.Net(tw.clockOf[si])
			nb := tw.b.Design.Net(tw.clockOf[si])
			tw.a.Design.Connect(cpa, na)
			tw.b.Design.Connect(cpb, nb)
		}
	}
	// Occasionally delete a register outright (a merged-away member, as
	// far as the clock tree is concerned).
	if rng.Intn(3) == 0 && len(ra) > 20 {
		i := rng.Intn(len(ra))
		tw.a.Design.RemoveInst(ra[i])
		tw.b.Design.RemoveInst(rb[i])
	}
}

// buildOracle mirrors the batch flow on design B: a fresh Build per clock
// root in net-ID order plus one global legalization pass. It returns the
// trees (callers must Remove them before the next round) and the buffers
// in creation order.
func buildOracle(t *testing.T, d *netlist.Design) ([]*cts.Tree, []*netlist.Inst) {
	t.Helper()
	return buildOracleWith(t, d, cts.DefaultOptions())
}

// buildOracleWith is buildOracle under the given tree options.
func buildOracleWith(t *testing.T, d *netlist.Design, opts cts.Options) ([]*cts.Tree, []*netlist.Inst) {
	t.Helper()
	var roots []*netlist.Net
	d.Nets(func(n *netlist.Net) {
		if n.IsClock && len(n.Sinks) > 0 {
			roots = append(roots, n)
		}
	})
	var trees []*cts.Tree
	var bufs []*netlist.Inst
	for _, root := range roots {
		tr, err := cts.Build(d, root, opts)
		if err != nil {
			t.Fatalf("oracle build: %v", err)
		}
		trees = append(trees, tr)
		bufs = append(bufs, tr.Buffers...)
	}
	if len(bufs) > 0 {
		place.LegalizeIncremental(d, bufs)
	}
	return trees, bufs
}

// requireTreesEqual asserts the engine-maintained trees on A equal the
// fresh oracle trees on B: buffer count, positions, per-net member lists
// (register pins by ID, buffer pins by buffer index), and clock metrics.
func requireTreesEqual(t *testing.T, ctx string, eng *cts.Engine, a, b *netlist.Design, oracleBufs []*netlist.Inst) {
	t.Helper()
	got := eng.Buffers()
	if len(got) != len(oracleBufs) {
		t.Fatalf("%s: %d buffers != oracle %d", ctx, len(got), len(oracleBufs))
	}
	// Index both buffer sets so cross-references compare positionally.
	idxA := map[netlist.InstID]int{}
	idxB := map[netlist.InstID]int{}
	for i := range got {
		idxA[got[i].ID] = i
		idxB[oracleBufs[i].ID] = i
	}
	for i := range got {
		ga, gb := got[i], oracleBufs[i]
		if ga.Pos != gb.Pos {
			t.Fatalf("%s: buffer %d at %v, oracle at %v", ctx, i, ga.Pos, gb.Pos)
		}
		na := a.Net(a.OutPin(ga).Net)
		nb := b.Net(b.OutPin(gb).Net)
		if len(na.Sinks) != len(nb.Sinks) {
			t.Fatalf("%s: buffer %d drives %d sinks, oracle %d",
				ctx, i, len(na.Sinks), len(nb.Sinks))
		}
		for j := range na.Sinks {
			pa, pb := a.Pin(na.Sinks[j]), b.Pin(nb.Sinks[j])
			ia, ib := a.Inst(pa.Inst), b.Inst(pb.Inst)
			if (ia.Kind == netlist.KindClockBuf) != (ib.Kind == netlist.KindClockBuf) {
				t.Fatalf("%s: buffer %d sink %d kind mismatch", ctx, i, j)
			}
			if ia.Kind == netlist.KindClockBuf {
				if idxA[ia.ID] != idxB[ib.ID] {
					t.Fatalf("%s: buffer %d sink %d is buffer #%d, oracle #%d",
						ctx, i, j, idxA[ia.ID], idxB[ib.ID])
				}
			} else if pa.ID != pb.ID {
				t.Fatalf("%s: buffer %d sink %d pin %d != oracle %d",
					ctx, i, j, pa.ID, pb.ID)
			}
		}
	}
	ma, mb := cts.Measure(a), cts.Measure(b)
	if ma.Buffers != mb.Buffers || ma.Sinks != mb.Sinks || ma.WirelengthDBU != mb.WirelengthDBU {
		t.Fatalf("%s: metrics diverged:\n engine %+v\n oracle %+v", ctx, ma, mb)
	}
	// TotalCapFF is summed over nets in net-ID order, which differs between
	// the twins (retained vs per-round nets), so allow float ulp noise.
	if diff := math.Abs(ma.TotalCapFF - mb.TotalCapFF); diff > 1e-6*(1+math.Abs(mb.TotalCapFF)) {
		t.Fatalf("%s: TotalCapFF %v != oracle %v", ctx, ma.TotalCapFF, mb.TotalCapFF)
	}
}

// TestDeltaEqualsBuildOracle is the equivalence oracle of the ISSUE: after
// randomized rounds of move/resize/remove/sink-toggle edits on all five
// profiles, the delta-maintained trees must equal a fresh batch Build at
// several worker counts.
func TestDeltaEqualsBuildOracle(t *testing.T) {
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/w%d", profile, workers), func(t *testing.T) {
				tw := makeTwin(t, profile)
				eng := cts.NewEngine(tw.a.Design, cts.DefaultOptions())
				eng.SetWorkers(workers)
				if err := eng.Attach(); err != nil {
					t.Fatalf("attach: %v", err)
				}
				rng := rand.New(rand.NewSource(int64(len(profile)*1000 + workers)))
				for round := 0; round < 8; round++ {
					trees, bufs := buildOracle(t, tw.b.Design)
					ctx := fmt.Sprintf("%s w%d round %d (%s)",
						profile, workers, round, eng.Stats().LastKind)
					requireTreesEqual(t, ctx, eng, tw.a.Design, tw.b.Design, bufs)
					for _, tr := range trees {
						tr.Remove()
					}
					tw.mutate(t, rng)
					if err := eng.Update(); err != nil {
						t.Fatalf("round %d: update: %v", round, err)
					}
				}
				st := eng.Stats()
				if st.Deltas == 0 {
					t.Fatalf("no update took the delta path: %+v", st)
				}
				if st.ReclusteredLeaves == 0 {
					t.Fatalf("edits never re-clustered a leaf: %+v", st)
				}
			})
		}
	}
}

// TestEngineDeterministicAcrossWorkers replays the same edit sequence at
// several worker counts and requires identical trees and decision stats.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	type snap struct {
		bufs []geom.Point
		st   cts.Stats
	}
	run := func(workers int) []snap {
		tw := makeTwin(t, "D2")
		eng := cts.NewEngine(tw.a.Design, cts.DefaultOptions())
		eng.SetWorkers(workers)
		if err := eng.Attach(); err != nil {
			t.Fatalf("attach: %v", err)
		}
		rng := rand.New(rand.NewSource(99))
		var out []snap
		for round := 0; round < 6; round++ {
			var pts []geom.Point
			for _, b := range eng.Buffers() {
				pts = append(pts, b.Pos)
			}
			st := eng.Stats()
			// Wall-time counters are not deterministic; only decisions are.
			st.PlanNS, st.RepairNS, st.LegalizeNS = 0, 0, 0
			st.LastPlanNS, st.LastRepairNS, st.LastLegalizeNS = 0, 0, 0
			out = append(out, snap{pts, st})
			tw.mutate(t, rng)
			if err := eng.Update(); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		other := run(w)
		for i := range base {
			if len(base[i].bufs) != len(other[i].bufs) {
				t.Fatalf("w%d round %d: buffer count %d != %d",
					w, i, len(other[i].bufs), len(base[i].bufs))
			}
			for k := range base[i].bufs {
				if base[i].bufs[k] != other[i].bufs[k] {
					t.Fatalf("w%d round %d: buffer %d at %v, base at %v",
						w, i, k, other[i].bufs[k], base[i].bufs[k])
				}
			}
			if base[i].st != other[i].st {
				t.Fatalf("w%d round %d stats diverged:\n base %+v\nother %+v",
					w, i, base[i].st, other[i].st)
			}
		}
	}
}

// TestNewDomainFallsBackToRebuild gives a clock net sinks the engine has
// never seen and checks the delta path yields to a rebuild with the
// documented reason — and that the rebuilt trees still match the oracle.
func TestNewDomainFallsBackToRebuild(t *testing.T) {
	tw := makeTwin(t, "D1")
	eng := cts.NewEngine(tw.a.Design, cts.DefaultOptions())
	if err := eng.Attach(); err != nil {
		t.Fatalf("attach: %v", err)
	}
	ra, rb := tw.regs(t)
	na := tw.a.Design.AddNet("late_clk", true)
	nb := tw.b.Design.AddNet("late_clk", true)
	moved := 0
	for i := range ra {
		if moved >= 8 {
			break
		}
		cpa, cpb := tw.a.Design.ClockPin(ra[i]), tw.b.Design.ClockPin(rb[i])
		if cpa == nil || cpa.Net == netlist.NoID {
			continue
		}
		tw.a.Design.Connect(cpa, na)
		tw.b.Design.Connect(cpb, nb)
		moved++
	}
	if err := eng.Update(); err != nil {
		t.Fatalf("update: %v", err)
	}
	st := eng.Stats()
	if st.LastKind != cts.UpdateRebuild {
		t.Fatalf("expected rebuild fallback, got %q", st.LastKind)
	}
	if st.LastFallbackReason != "clock-roots-changed" {
		t.Fatalf("fallback reason = %q", st.LastFallbackReason)
	}
	trees, bufs := buildOracle(t, tw.b.Design)
	requireTreesEqual(t, "post-rebuild", eng, tw.a.Design, tw.b.Design, bufs)
	for _, tr := range trees {
		tr.Remove()
	}
}

// TestCachedMetricsEqualsMeasure is the retained-metrics oracle: after every
// engine update the retained Metrics fold must equal the batch Measure of
// the same design bit-for-bit (same per-net helper, same ascending-net-ID
// fold), and a design edited since the last update must be answered by the
// batch fallback, again exactly; an in-sync call must not allocate. It runs
// at the default options and under the 4000-DBU re-center hysteresis the
// server and benchmark use, where held buffers leave the trees different
// from a fresh Build.
func TestCachedMetricsEqualsMeasure(t *testing.T) {
	for _, hold := range []int64{0, 4000} {
		for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				name := fmt.Sprintf("%s/w%d", profile, workers)
				if hold > 0 {
					name = fmt.Sprintf("%s/w%d-hold%d", profile, workers, hold)
				}
				t.Run(name, func(t *testing.T) {
					opts := cts.DefaultOptions()
					opts.RecenterThresholdDBU = hold
					checkMetricsEqualsMeasure(t, profile, workers, opts)
				})
			}
		}
	}
}

func checkMetricsEqualsMeasure(t *testing.T, profile string, workers int, opts cts.Options) {
	tw := makeTwin(t, profile)
	eng := cts.NewEngine(tw.a.Design, opts)
	eng.SetWorkers(workers)
	if err := eng.Attach(); err != nil {
		t.Fatalf("attach: %v", err)
	}
	rng := rand.New(rand.NewSource(int64(len(profile)*77 + workers)))
	held := 0
	for round := 0; round < 8; round++ {
		before := eng.Stats().MetricsFallbacks
		got := eng.Metrics()
		want := cts.Measure(tw.a.Design)
		if got != want {
			t.Fatalf("round %d: retained metrics %+v != Measure %+v",
				round, got, want)
		}
		if eng.Stats().MetricsFallbacks != before {
			t.Fatalf("round %d: in-sync Metrics took the fallback", round)
		}
		tw.mutate(t, rng)
		// Edited since the last update: the retained trees may not be
		// trusted, so Metrics must detect it and fall back — and still
		// agree with the oracle.
		got = eng.Metrics()
		want = cts.Measure(tw.a.Design)
		if got != want {
			t.Fatalf("round %d: fallback metrics %+v != Measure %+v",
				round, got, want)
		}
		if eng.Stats().MetricsFallbacks != before+1 {
			t.Fatalf("round %d: stale Metrics did not fall back", round)
		}
		if err := eng.Update(); err != nil {
			t.Fatalf("round %d: update: %v", round, err)
		}
		held += eng.Stats().LastHeldCentroids
	}
	if opts.RecenterThresholdDBU > 0 && held == 0 {
		t.Fatalf("hysteresis run never held a buffer: the configuration tests nothing")
	}
	// The in-sync fold reuses its buffer: once grown, Metrics allocates
	// nothing.
	eng.Metrics()
	if n := testing.AllocsPerRun(10, func() { eng.Metrics() }); n != 0 {
		t.Fatalf("in-sync Metrics allocates %.1f times per call, want 0", n)
	}
}

// leafResize picks a register on a leaf net and a same-class, same-width
// cell with a larger clock-pin capacitance, preferring one that lifts the
// leaf's sink capacitance over opts.MaxCap — so a fresh plan must split
// that leaf (tips). ok is false when no register has a larger cell.
func leafResize(d *netlist.Design, eng *cts.Engine, opts cts.Options) (r *netlist.Inst, cell *lib.Cell, tips, ok bool) {
	for _, buf := range eng.Buffers() {
		n := d.Net(d.OutPin(buf).Net)
		total, leaf := 0.0, true
		for _, pid := range n.Sinks {
			p := d.Pin(pid)
			leaf = leaf && d.Inst(p.Inst).Kind != netlist.KindClockBuf
			total += p.Cap
		}
		if !leaf {
			continue
		}
		for _, pid := range n.Sinks {
			p := d.Pin(pid)
			in := d.Inst(p.Inst)
			if in.Kind != netlist.KindReg || in.Fixed || in.SizeOnly {
				continue
			}
			for _, c := range d.Lib.CellsOfWidth(in.RegCell.Class, in.RegCell.Bits) {
				if c.ClkCap <= p.Cap {
					continue
				}
				if total-p.Cap+c.ClkCap > opts.MaxCap {
					return in, c, true, true
				}
				if !ok {
					r, cell, ok = in, c, true
				}
			}
		}
	}
	return r, cell, false, ok
}

// TestLocalizedEditsReuseRetainedPlans makes one localized edit per round
// and checks each round against the batch Build oracle, as
// TestDeltaEqualsBuildOracle does: a skew-only batch (which edits no
// netlist state), one data-cell move, one register move and one register
// resize. Only the domain a register edit reached may be re-planned; the
// other domains reuse their retained plans. The resize keeps the clock pin
// where it was, so the plan inputs differ in capacitance alone, and where
// a profile allows it tips its leaf over the capacitance limit, so the
// fresh plan differs too.
func TestLocalizedEditsReuseRetainedPlans(t *testing.T) {
	tipped := 0
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		t.Run(profile, func(t *testing.T) {
			tw := makeTwin(t, profile)
			da, db := tw.a.Design, tw.b.Design
			// A capacitance limit that binds before the fanout limit does,
			// so some leaf is one resize away from it.
			opts := cts.DefaultOptions()
			opts.MaxCap = 12
			eng := cts.NewEngine(da, opts)
			if err := eng.Attach(); err != nil {
				t.Fatalf("attach: %v", err)
			}
			domains := eng.Stats().DomainsReplanned
			if domains < 2 {
				t.Fatalf("profile too small for the per-domain claim: %d domains", domains)
			}
			round := func(name string, replans int) {
				t.Helper()
				if err := eng.Update(); err != nil {
					t.Fatalf("%s: update: %v", name, err)
				}
				trees, bufs := buildOracleWith(t, db, opts)
				requireTreesEqual(t, profile+" "+name, eng, da, db, bufs)
				for _, tr := range trees {
					tr.Remove()
				}
				if got := eng.Stats().LastDomainsReplanned; got != replans {
					t.Fatalf("%s: %d of %d domains re-planned, want %d", name, got, domains, replans)
				}
			}

			round("skew-only batch", 0)

			var cell netlist.InstID = netlist.NoID
			da.Insts(func(in *netlist.Inst) {
				if cell == netlist.NoID && in.Kind == netlist.KindComb && !in.Fixed {
					cell = in.ID
				}
			})
			for _, d := range []*netlist.Design{da, db} {
				in := d.Inst(cell)
				d.MoveInst(in, geom.Point{X: in.Pos.X + 2*d.SiteW, Y: in.Pos.Y})
			}
			round("data-cell move", 0)

			ra, _ := tw.regs(t)
			i := slices.IndexFunc(ra, func(in *netlist.Inst) bool {
				cp := da.ClockPin(in)
				return !in.Fixed && cp != nil && cp.Net != netlist.NoID
			})
			for _, d := range []*netlist.Design{da, db} {
				in := d.Inst(ra[i].ID)
				d.MoveInst(in, geom.Point{X: in.Pos.X + 15000, Y: in.Pos.Y + 9000})
			}
			round("register move", 1)

			r, c, tips, ok := leafResize(da, eng, opts)
			if !ok {
				t.Fatalf("%s: no register has a larger cell", profile)
			}
			if tips {
				tipped++
			}
			for _, d := range []*netlist.Design{da, db} {
				in := d.Inst(r.ID)
				cp := d.ClockPin(in)
				before := d.PinPos(cp)
				if err := d.ResizeRegister(in, c); err != nil {
					t.Fatalf("resize: %v", err)
				}
				after := d.PinPos(cp)
				d.MoveInst(in, geom.Point{X: in.Pos.X + before.X - after.X, Y: in.Pos.Y + before.Y - after.Y})
			}
			round("register resize", 1)
		})
	}
	if tipped == 0 {
		t.Fatal("no profile has a leaf one resize away from the capacitance limit")
	}
}
