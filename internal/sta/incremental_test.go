package sta

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// sameResults reports whether two snapshots are bit-identical (exact float
// equality — the incremental path promises byte-identity, not tolerance).
func sameResults(t *testing.T, got, want *Results) {
	t.Helper()
	if len(got.Arrival) != len(want.Arrival) {
		t.Fatalf("pin space differs: %d vs %d", len(got.Arrival), len(want.Arrival))
	}
	for i := range got.Arrival {
		if got.Arrival[i] != want.Arrival[i] {
			t.Fatalf("arrival[%d] = %v want %v", i, got.Arrival[i], want.Arrival[i])
		}
		if got.Required[i] != want.Required[i] {
			t.Fatalf("required[%d] = %v want %v", i, got.Required[i], want.Required[i])
		}
		if got.Slack[i] != want.Slack[i] {
			t.Fatalf("slack[%d] = %v want %v", i, got.Slack[i], want.Slack[i])
		}
	}
	if got.WNS != want.WNS || got.TNS != want.TNS ||
		got.FailingEndpoints != want.FailingEndpoints ||
		got.TotalEndpoints != want.TotalEndpoints {
		t.Fatalf("summary differs: got WNS=%v TNS=%v fail=%d total=%d, want WNS=%v TNS=%v fail=%d total=%d",
			got.WNS, got.TNS, got.FailingEndpoints, got.TotalEndpoints,
			want.WNS, want.TNS, want.FailingEndpoints, want.TotalEndpoints)
	}
	if len(got.ClockArrival) != len(want.ClockArrival) {
		t.Fatalf("clock arrival count differs: %d vs %d", len(got.ClockArrival), len(want.ClockArrival))
	}
	for id, v := range want.ClockArrival {
		if got.ClockArrival[id] != v {
			t.Fatalf("clock arrival[%d] = %v want %v", id, got.ClockArrival[id], v)
		}
	}
}

func TestIncrementalMatchesFullAfterParametricEdits(t *testing.T) {
	d, r1, r2 := pipeline(t)
	// Pad the design so the touched set stays under the engine's
	// "quarter of the instances → just rebuild" heuristic.
	for i := 0; i < 16; i++ {
		r, err := d.AddRegister(fmt.Sprintf("pad_%d", i), regCell(t, 1),
			geom.Point{X: int64(60000 + 1000*i), Y: 30000})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), d.Net(d.ClockNet(r1)))
	}
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.FullBuilds != 1 || s.IncrementalRuns != 0 {
		t.Fatalf("first run stats = %+v", s)
	}

	buf := d.InstByName("u_buf")
	d.MoveInst(buf, geom.Point{X: 30000, Y: 14000})
	d.MoveInst(r2, geom.Point{X: 45000, Y: 11000})
	if cs := testLib.CellsOfWidth(ffClass(), 1); len(cs) > 1 {
		if err := d.ResizeRegister(r1, cs[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.SetSkew(r1.ID, 30)

	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.IncrementalRuns != 1 {
		t.Fatalf("edit run did not take the incremental path: %+v", s)
	}
	if s := e.Stats(); s.LastConePins == 0 {
		t.Fatalf("incremental run re-evaluated no pins: %+v", s)
	}

	oracle := New(d)
	oracle.SetSkew(r1.ID, 30)
	want, err := oracle.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
}

func TestIncrementalNoEditsIsStable(t *testing.T) {
	d, _, _ := pipeline(t)
	e := New(d)
	first, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, second, first)
	if s := e.Stats(); s.FullBuilds != 1 || s.IncrementalRuns != 1 {
		t.Fatalf("stats = %+v, want one full and one incremental run", s)
	}
}

// runAgainstFresh re-runs the retained engine and checks it against a
// fresh analysis of the same design, and that the run was of the given
// kind.
func runAgainstFresh(t *testing.T, e *Engine, d *netlist.Design, kind string) {
	t.Helper()
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.LastKind != kind {
		t.Fatalf("run kind %q, want %q: %+v", s.LastKind, kind, s)
	}
	want, err := New(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
}

// Register-only rewiring is patched into the retained graph: a register
// Q pin reconnected to its net, and a register D pin moved to another net.
func TestStructuralEditPatchesGraph(t *testing.T) {
	d, r1, r2 := pipeline(t)
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Re-route r2.Q → out through a reconnect.
	qp := d.QPin(r2, 0)
	n := d.Net(qp.Net)
	d.Disconnect(qp)
	d.Connect(qp, n)
	runAgainstFresh(t, e, d, "structural")

	// r2.D leaves the buffer's net for r1's input net: the buffer output
	// loses its only arc, r2.D gains one from the input port.
	dp := d.DPin(r2, 0)
	d.Connect(dp, d.Net(d.DPin(r1, 0).Net))
	runAgainstFresh(t, e, d, "structural")
	if s := e.Stats(); s.FullBuilds != 1 || s.StructuralDeltas != 2 {
		t.Fatalf("stats = %+v, want two patches after the first build", s)
	}
}

// Rewiring the patch cannot prove level-preserving still rebuilds: a
// combinational pin changing nets, and a register Q pin driving a net that
// had no driver (its sinks sit at level 0 in the retained graph).
func TestStructuralEditForcesRebuildWhenNotLocal(t *testing.T) {
	d, r1, _ := pipeline(t)
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	buf := d.InstByName("u_buf")
	bufIn := d.FindPin(buf, netlist.PinData, 0)
	d.Connect(bufIn, d.Net(d.DPin(r1, 0).Net))
	runAgainstFresh(t, e, d, "full")
	if s := e.Stats(); s.FullBuilds != 2 {
		t.Fatalf("stats = %+v, want the combinational reconnect to rebuild", s)
	}

	d, r1, _ = pipeline(t)
	qp := d.QPin(r1, 0)
	n := d.Net(qp.Net)
	d.Disconnect(qp)
	e = New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d.Connect(qp, n)
	runAgainstFresh(t, e, d, "full")
	if s := e.Stats(); s.FullBuilds != 2 {
		t.Fatalf("stats = %+v, want the Q pin on a driverless net to rebuild", s)
	}
}

func TestTimingSpecChangeForcesRebuild(t *testing.T) {
	d, _, _ := pipeline(t)
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d.Timing.ClockPeriod = 800 // direct field write: no epoch, caught by the spec snapshot
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.FullBuilds != 2 {
		t.Fatalf("stats = %+v, want Timing change to force a rebuild", s)
	}
	want, err := New(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
}

// An ideal-clock flip re-seeds every register and sweeps the retained
// graph in full: no rebuild. A buffered clock makes the two modes differ.
func TestClockModeFlipReusesGraph(t *testing.T) {
	d, r1, _ := pipeline(t)
	clk := d.Net(d.ClockNet(r1))
	root := d.AddNet("clkroot", true)
	cp, _ := d.AddPort("clkport", true, geom.Point{X: 0, Y: 0})
	d.Connect(d.OutPin(cp), root)
	cb, _ := d.AddClockBuf("cb0", bufSpec, geom.Point{X: 5000, Y: 5000})
	d.Connect(d.FindPin(cb, netlist.PinData, 0), root)
	d.Connect(d.OutPin(cb), clk)
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ideal := range []bool{true, false} {
		e.SetIdealClocks(ideal)
		got, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if s := e.Stats(); s.FullBuilds != 1 || s.Reseeds != i+1 || s.LastKind != "reseed" {
			t.Fatalf("ideal=%v: stats = %+v, want the mode flip to re-seed the retained graph", ideal, s)
		}
		fresh := New(d)
		fresh.SetIdealClocks(ideal)
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want)
	}
}

func TestClockGateChainArrivals(t *testing.T) {
	d, r1, r2 := pipeline(t)
	// clkport → cb → (mid net) → gate → clk: a two-stage clock chain.
	clkNet := d.Net(d.ClockNet(r1))
	root := d.AddNet("clkroot", true)
	mid := d.AddNet("clkmid", true)
	cp, _ := d.AddPort("clkport", true, geom.Point{X: 0, Y: 0})
	d.Connect(d.OutPin(cp), root)
	cb, _ := d.AddClockBuf("cb0", bufSpec, geom.Point{X: 5000, Y: 5000})
	d.Connect(d.FindPin(cb, netlist.PinData, 0), root)
	d.Connect(d.OutPin(cb), mid)
	cg, _ := d.AddClockGate("cg0", bufSpec, geom.Point{X: 8000, Y: 8000})
	d.Connect(d.FindPin(cg, netlist.PinData, 0), mid)
	d.Connect(d.OutPin(cg), clkNet)

	res, err := New(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Two stages of intrinsic delay is a hard floor for both registers.
	floor := 2 * bufSpec.Intrinsic
	for _, r := range []*netlist.Inst{r1, r2} {
		if a := res.ClockArrival[r.ID]; a <= floor {
			t.Fatalf("clock arrival at %s = %g, want > %g (two chained stages)", r.Name, a, floor)
		}
	}

	// Ideal mode ignores the whole chain.
	e := New(d)
	e.SetIdealClocks(true)
	ideal, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ideal.ClockArrival[r1.ID] != 0 || ideal.ClockArrival[r2.ID] != 0 {
		t.Fatalf("ideal-clock arrivals = %g, %g; want 0",
			ideal.ClockArrival[r1.ID], ideal.ClockArrival[r2.ID])
	}
}

func TestClockNetworkLoopDetected(t *testing.T) {
	d, r1, _ := pipeline(t)
	// Two clock buffers driving each other; the registers' clock net hangs
	// off the cycle.
	clkNet := d.Net(d.ClockNet(r1))
	na := d.AddNet("loop_a", true)
	cb1, _ := d.AddClockBuf("cb1", bufSpec, geom.Point{X: 5000, Y: 5000})
	cb2, _ := d.AddClockBuf("cb2", bufSpec, geom.Point{X: 6000, Y: 6000})
	d.Connect(d.OutPin(cb1), na)
	d.Connect(d.FindPin(cb2, netlist.PinData, 0), na)
	d.Connect(d.OutPin(cb2), clkNet)
	d.Connect(d.FindPin(cb1, netlist.PinData, 0), clkNet)

	_, err := New(d).Run()
	if err == nil || !strings.Contains(err.Error(), "clock network loop") {
		t.Fatalf("err = %v, want clock network loop", err)
	}

	// Ideal mode never walks the clock network, so the same design analyzes.
	e := New(d)
	e.SetIdealClocks(true)
	if _, err := e.Run(); err != nil {
		t.Fatalf("ideal-clock run failed on looped clock network: %v", err)
	}
}

func TestIdealEqualsPropagatedOnUndrivenClock(t *testing.T) {
	// The pipeline fixture's clk net has no driver: propagated analysis
	// treats it as an ideal root, so both modes must agree exactly.
	d, _, _ := pipeline(t)
	prop, err := New(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	e.SetIdealClocks(true)
	ideal, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ideal, prop)
}

func TestCombinationalSelfLoopDetected(t *testing.T) {
	d := netlist.NewDesign("self", geom.RectWH(0, 0, 10000, 10000), testLib)
	d.Timing.ClockPeriod = 1000
	a, _ := d.AddComb("a", bufSpec, geom.Point{X: 0, Y: 0})
	n := d.AddNet("n", false)
	d.Connect(d.OutPin(a), n)
	d.Connect(d.FindPin(a, netlist.PinData, 0), n)
	_, err := New(d).Run()
	if err == nil || !strings.Contains(err.Error(), "combinational cycle") {
		t.Fatalf("err = %v, want combinational cycle", err)
	}
}

func TestNetSinkPosOnInstMissingSink(t *testing.T) {
	d, r1, r2 := pipeline(t)
	clkNet := d.Net(d.ClockNet(r1))
	buf := d.InstByName("u_buf")
	// The buffer has no pin on the clock net: the lookup must say so
	// instead of inventing a position.
	if _, ok := netSinkPosOnInst(d, clkNet, buf); ok {
		t.Fatal("netSinkPosOnInst found a sink that does not exist")
	}
	if pos, ok := netSinkPosOnInst(d, clkNet, r2); !ok || pos != d.PinPos(d.ClockPin(r2)) {
		t.Fatalf("netSinkPosOnInst(r2) = %v, %v; want clock pin position", pos, ok)
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	d, r1, _ := pipeline(t)
	seq := New(d)
	seq.SetWorkers(1)
	want, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 7} {
		e := New(d)
		e.SetWorkers(w)
		got, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want)
	}
	_ = r1
}

// clockTreeFixture rebuilds the pipeline's clock network as a two-level
// buffered tree with a gated branch — clkport → cb → {lb0, lb1, cg} — and
// spreads r1, r2 and 18 pad registers over the three leaf nets.
func clockTreeFixture(t *testing.T) (*netlist.Design, []*netlist.Inst) {
	t.Helper()
	d, r1, r2 := pipeline(t)
	root := d.AddNet("clkroot", true)
	port, _ := d.AddPort("clkport", true, geom.Point{X: 0, Y: 50000})
	d.Connect(d.OutPin(port), root)
	stage := func(name string, gate bool, pos geom.Point, in *netlist.Net) *netlist.Net {
		var b *netlist.Inst
		if gate {
			b, _ = d.AddClockGate(name, bufSpec, pos)
		} else {
			b, _ = d.AddClockBuf(name, bufSpec, pos)
		}
		out := d.AddNet(name+"_out", true)
		d.Connect(d.FindPin(b, netlist.PinData, 0), in)
		d.Connect(d.OutPin(b), out)
		return out
	}
	cb := stage("cb", false, geom.Point{X: 30000, Y: 40000}, root)
	leaves := []*netlist.Net{
		stage("lb0", false, geom.Point{X: 15000, Y: 30000}, cb),
		stage("lb1", false, geom.Point{X: 45000, Y: 30000}, cb),
		stage("cg", true, geom.Point{X: 70000, Y: 30000}, cb),
	}
	regs := []*netlist.Inst{r1, r2}
	d.Connect(d.ClockPin(r1), leaves[0])
	d.Connect(d.ClockPin(r2), leaves[1])
	for i := 0; i < 18; i++ {
		r, err := d.AddRegister(fmt.Sprintf("pad_%d", i), regCell(t, 1),
			geom.Point{X: int64(10000 + 4000*i), Y: 20000 + int64(i%3)*1200})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), leaves[i%3])
		regs = append(regs, r)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, regs
}

// TestRetainedClockArrivalsMatchOracle edits a buffered, gated clock tree
// — buffer moves under the CTS edit class, a gate move, clock pins moved
// between and off leaf nets, skews, register moves — and checks after
// each incremental run that every register's retained clock arrival
// equals the full clockArrivals oracle plus its skew, that the whole
// snapshot equals a fresh engine's, and how many arrivals the run
// recomputed.
func TestRetainedClockArrivalsMatchOracle(t *testing.T) {
	d, regs := clockTreeFixture(t)
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().LastClockRegs; got != len(regs) {
		t.Fatalf("full run recomputed %d clock arrivals, want all %d", got, len(regs))
	}
	skews := map[netlist.InstID]float64{}
	inst := d.InstByName
	cts := func(f func()) { d.WithEditClass(netlist.EditClassCTS, f) }
	steps := []struct {
		name string
		edit func()
		// maxRegs bounds the registers the run may recompute.
		maxRegs int
	}{
		{"leaf buffer move (CTS class)", func() {
			cts(func() { d.MoveInst(inst("lb0"), geom.Point{X: 16000, Y: 31200}) })
		}, len(regs)},
		// Inside its parent net's bounding box the move leaves the parent's
		// load, and with it the sibling leaves, alone: only lb1's 7
		// registers are recomputed.
		{"leaf buffer move inside the parent's box (CTS class)", func() {
			cts(func() { d.MoveInst(inst("lb1"), geom.Point{X: 46000, Y: 31200}) })
		}, 7},
		{"gate move", func() { d.MoveInst(inst("cg"), geom.Point{X: 71000, Y: 30000}) }, len(regs)},
		// Both leaves' loads change: the pin's new leaf is touched, the
		// one it left is remembered.
		{"clock pin moved between leaves (CTS class)", func() {
			cts(func() { d.Connect(d.ClockPin(inst("pad_0")), d.Net(d.ClockNet(inst("pad_1")))) })
		}, 14},
		{"skew only", func() {
			e.SetSkew(inst("pad_4").ID, 12)
			skews[inst("pad_4").ID] = 12
		}, 1},
		{"clock pin disconnected (CTS class)", func() {
			cts(func() { d.Disconnect(d.ClockPin(inst("pad_3"))) })
		}, 6},
		{"root buffer move (CTS class)", func() {
			cts(func() { d.MoveInst(inst("cb"), geom.Point{X: 31000, Y: 42000}) })
		}, len(regs)},
		{"gated register move", func() { d.MoveInst(inst("pad_5"), geom.Point{X: 30000, Y: 21200}) }, 6},
	}
	for _, st := range steps {
		before := e.Stats()
		st.edit()
		got, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		s := e.Stats()
		if s.IncrementalRuns != before.IncrementalRuns+1 {
			t.Fatalf("%s: run did not take the incremental path: %+v", st.name, s)
		}
		if s.LastClockRegs > st.maxRegs {
			t.Fatalf("%s: recomputed %d clock arrivals, want <= %d", st.name, s.LastClockRegs, st.maxRegs)
		}
		oracle, err := New(d).clockArrivals()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range d.Registers() {
			if want := oracle[r.ID] + skews[r.ID]; e.clk.eff[r.ID] != want {
				t.Fatalf("%s: retained clock arrival of %s = %v, oracle %v", st.name, r.Name, e.clk.eff[r.ID], want)
			}
		}
		fresh := New(d)
		for id, ps := range skews {
			fresh.SetSkew(id, ps)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want)
	}
}

// TestRunEndpointsMatchesRun pins RunEndpoints to the endpoint statistics
// of Run's snapshot, on the full path and after incremental edits.
func TestRunEndpointsMatchesRun(t *testing.T) {
	d, regs := clockTreeFixture(t)
	withSnap, stats := New(d), New(d)
	for round := 0; round < 3; round++ {
		res, err := withSnap.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := stats.RunEndpoints()
		if err != nil {
			t.Fatal(err)
		}
		if got != res.EndpointStats {
			t.Fatalf("round %d: RunEndpoints = %+v, Run = %+v", round, got, res.EndpointStats)
		}
		r := regs[round]
		d.MoveInst(r, geom.Point{X: r.Pos.X + 3000, Y: r.Pos.Y})
		withSnap.SetSkew(r.ID, float64(10*round+5))
		stats.SetSkew(r.ID, float64(10*round+5))
	}
	if s := stats.Stats(); s.IncrementalRuns == 0 {
		t.Fatalf("RunEndpoints never took the incremental path: %+v", s)
	}
}

// TestClockFromDataNetRecomputesAll feeds the clock gate from a data net,
// so its registers' arrivals depend on where that net's driver sits.
// Incremental runs trace clock nets only, so they must recompute every
// arrival, and stay equal to the oracle, once a data net feeds the clock
// network.
func TestClockFromDataNetRecomputesAll(t *testing.T) {
	d, regs := clockTreeFixture(t)
	cg, r1 := d.InstByName("cg"), d.InstByName("r1")
	d.Connect(d.FindPin(cg, netlist.PinData, 0), d.Net(d.QPin(r1, 0).Net))
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d.MoveInst(r1, geom.Point{X: r1.Pos.X + 5000, Y: r1.Pos.Y + 2400})
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.LastKind != "incremental" || s.LastClockRegs != len(regs) {
		t.Fatalf("stats = %+v, want an incremental run recomputing all %d clock arrivals", s, len(regs))
	}
	want, err := New(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
}
