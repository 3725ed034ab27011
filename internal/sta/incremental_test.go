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

func TestStructuralEditForcesRebuild(t *testing.T) {
	d, _, r2 := pipeline(t)
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Re-route r2.Q → out through a reconnect: structural.
	qp := d.QPin(r2, 0)
	n := d.Net(qp.Net)
	d.Disconnect(qp)
	d.Connect(qp, n)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.FullBuilds != 2 || s.IncrementalRuns != 0 {
		t.Fatalf("stats = %+v, want the structural edit to force a rebuild", s)
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

func TestClockModeFlipForcesRebuild(t *testing.T) {
	d, _, _ := pipeline(t)
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
		if s := e.Stats(); s.FullBuilds != i+2 || s.IncrementalRuns != 0 {
			t.Fatalf("ideal=%v: stats = %+v, want the mode flip to force a rebuild", ideal, s)
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
