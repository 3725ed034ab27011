package compat

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

var testLib = lib.MustGenerateDefault()

func ffClass() lib.FuncClass {
	return lib.FuncClass{Kind: lib.FlipFlop, Reset: lib.AsyncReset}
}

// fixture builds a design with n registers of ffClass on one clock/reset,
// each fed from its own input port and feeding its own output port, placed
// close together so placement compatibility holds.
type fixture struct {
	d    *netlist.Design
	regs []*netlist.Inst
	clk  *netlist.Net
	rst  *netlist.Net
}

func newFixture(t testing.TB, n int) *fixture {
	t.Helper()
	d := netlist.NewDesign("c", geom.RectWH(0, 0, 400000, 400000), testLib)
	d.Timing = netlist.TimingSpec{
		ClockPeriod:     2000,
		WireCapPerDBU:   0.0002,
		WireDelayPerDBU: 0.004,
		InputDelay:      100,
		OutputDelay:     100,
	}
	f := &fixture{d: d}
	f.clk = d.AddNet("clk", true)
	f.rst = d.AddNet("rst", false)
	cell := testLib.CellsOfWidth(ffClass(), 1)[0]
	for i := 0; i < n; i++ {
		r, err := d.AddRegister(fmt.Sprintf("r%d", i), cell,
			geom.Point{X: 100000 + int64(i)*2000, Y: 100800})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), f.clk)
		d.Connect(d.FindPin(r, netlist.PinReset, 0), f.rst)
		ip, _ := d.AddPort(fmt.Sprintf("in%d", i), true, geom.Point{X: 95000, Y: 100800 + int64(i)*100})
		op, _ := d.AddPort(fmt.Sprintf("out%d", i), false, geom.Point{X: 110000, Y: 100800 + int64(i)*100})
		dn := d.AddNet(fmt.Sprintf("d%d", i), false)
		qn := d.AddNet(fmt.Sprintf("q%d", i), false)
		d.Connect(d.OutPin(ip), dn)
		d.Connect(d.DPin(r, 0), dn)
		d.Connect(d.QPin(r, 0), qn)
		d.Connect(d.FindPin(op, netlist.PinData, 0), qn)
		f.regs = append(f.regs, r)
	}
	return f
}

func (f *fixture) build(t testing.TB, plan *scan.Plan) *Graph {
	t.Helper()
	res, err := sta.New(f.d).Run()
	if err != nil {
		t.Fatal(err)
	}
	return Build(f.d, res, plan, DefaultOptions())
}

func TestAllCompatibleClique(t *testing.T) {
	f := newFixture(t, 4)
	g := f.build(t, nil)
	if len(g.Regs) != 4 {
		t.Fatalf("nodes = %d want 4", len(g.Regs))
	}
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d want 6 (K4)", g.NumEdges())
	}
}

func TestFixedExcluded(t *testing.T) {
	f := newFixture(t, 3)
	f.regs[0].Fixed = true
	f.regs[1].SizeOnly = true
	g := f.build(t, nil)
	if len(g.Regs) != 1 {
		t.Fatalf("nodes = %d want 1", len(g.Regs))
	}
	if g.Excluded[f.regs[0].ID] != ReasonFixed || g.Excluded[f.regs[1].ID] != ReasonFixed {
		t.Fatalf("exclusion reasons: %v", g.Excluded)
	}
	st := g.Stats()
	if st.TotalRegs != 3 || st.ComposableRegs != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLargestWidthExcluded(t *testing.T) {
	f := newFixture(t, 1)
	// Add an 8-bit register (max width in the library).
	cell8 := testLib.CellsOfWidth(ffClass(), 8)[0]
	r8, err := f.d.AddRegister("big", cell8, geom.Point{X: 100000, Y: 102000})
	if err != nil {
		t.Fatal(err)
	}
	f.d.Connect(f.d.ClockPin(r8), f.clk)
	f.d.Connect(f.d.FindPin(r8, netlist.PinReset, 0), f.rst)
	g := f.build(t, nil)
	if g.Excluded[r8.ID] != ReasonLargestWidth {
		t.Fatalf("8-bit register exclusion: %v", g.Excluded[r8.ID])
	}
}

func TestDifferentClassNoEdge(t *testing.T) {
	f := newFixture(t, 2)
	// Register of a different functional class (no reset).
	cellNR := testLib.CellsOfWidth(lib.FuncClass{Kind: lib.FlipFlop}, 1)[0]
	r, err := f.d.AddRegister("noreset", cellNR, geom.Point{X: 100000, Y: 103200})
	if err != nil {
		t.Fatal(err)
	}
	f.d.Connect(f.d.ClockPin(r), f.clk)
	g := f.build(t, nil)
	n := g.NodeOf(r.ID)
	if n == -1 {
		t.Fatal("no-reset register should still be a node")
	}
	if len(g.Adj[n]) != 0 {
		t.Fatal("different class must have no edges")
	}
}

func TestDifferentControlNetNoEdge(t *testing.T) {
	f := newFixture(t, 2)
	rst2 := f.d.AddNet("rst2", false)
	f.d.Connect(f.d.FindPin(f.regs[1], netlist.PinReset, 0), rst2)
	g := f.build(t, nil)
	if g.NumEdges() != 0 {
		t.Fatal("different reset nets must break the edge")
	}
}

func TestDifferentClockNoEdge(t *testing.T) {
	f := newFixture(t, 2)
	clk2 := f.d.AddNet("clk2", true)
	f.d.Connect(f.d.ClockPin(f.regs[1]), clk2)
	g := f.build(t, nil)
	if g.NumEdges() != 0 {
		t.Fatal("different clocks must break the edge")
	}
}

func TestGateGroupNoEdge(t *testing.T) {
	f := newFixture(t, 2)
	f.regs[0].GateGroup = 1
	f.regs[1].GateGroup = 2
	g := f.build(t, nil)
	if g.NumEdges() != 0 {
		t.Fatal("different gating groups must break the edge")
	}
}

func TestPlacementIncompatibleWhenFar(t *testing.T) {
	f := newFixture(t, 2)
	// Move the second register and its ports to a distant spot and shrink
	// the period so the slack-derived move radius is far smaller than the
	// separation: the feasible regions then cannot overlap.
	f.d.MoveInst(f.regs[1], geom.Point{X: 300000, Y: 300000})
	f.d.MoveInst(f.d.InstByName("in1"), geom.Point{X: 295000, Y: 300000})
	f.d.MoveInst(f.d.InstByName("out1"), geom.Point{X: 310000, Y: 300000})
	f.d.Timing.ClockPeriod = 400
	g := f.build(t, nil)
	if len(g.Regs) != 2 {
		t.Fatalf("nodes = %d want 2", len(g.Regs))
	}
	if g.NumEdges() != 0 {
		r0, r1 := g.Regs[0], g.Regs[1]
		t.Fatalf("distant registers must be placement incompatible (regions %v, %v)",
			r0.Region, r1.Region)
	}
}

func TestScanCompatibilityRespected(t *testing.T) {
	f := newFixture(t, 3)
	plan := scan.NewPlan()
	plan.AddChain(0, false, []netlist.InstID{f.regs[0].ID, f.regs[1].ID})
	plan.AddChain(1, false, []netlist.InstID{f.regs[2].ID})
	g := f.build(t, plan)
	n0, n1, n2 := g.NodeOf(f.regs[0].ID), g.NodeOf(f.regs[1].ID), g.NodeOf(f.regs[2].ID)
	if !hasEdge(g, n0, n1) {
		t.Fatal("same partition must keep edge")
	}
	if hasEdge(g, n0, n2) || hasEdge(g, n1, n2) {
		t.Fatal("different partition must drop edge")
	}
}

func hasEdge(g *Graph, a, b int) bool {
	for _, v := range g.Adj[a] {
		if v == b {
			return true
		}
	}
	return false
}

func TestTimingSlackDifferenceBreaksEdge(t *testing.T) {
	f := newFixture(t, 2)
	g := f.build(t, nil)
	if g.NumEdges() != 1 {
		t.Fatalf("baseline edge missing")
	}
	// Recompute with an artificially tiny slack-difference tolerance after
	// skewing one register's input arrival: lengthen its input wire by
	// moving its input port far away.
	ip := f.d.InstByName("in1")
	f.d.MoveInst(ip, geom.Point{X: 0, Y: 0})
	res, err := sta.New(f.d).Run()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxSlackDiff = 50
	g2 := Build(f.d, res, nil, opts)
	if g2.NumEdges() != 0 {
		t.Fatal("large D-slack difference must break the edge")
	}
}

func TestOpposedSlackSigns(t *testing.T) {
	cases := []struct {
		ad, aq, bd, bq float64
		want           bool
	}{
		{100, -50, -100, 50, true},
		{-100, 50, 100, -50, true},
		{100, 50, 100, 50, false},
		{-100, -50, -100, -50, false},
		{100, -50, 100, -50, false}, // same orientation
		{0, -50, -100, 50, false},   // zero D is not "positive"
	}
	for i, c := range cases {
		if got := opposed(c.ad, c.aq, c.bd, c.bq); got != c.want {
			t.Errorf("case %d: opposed = %v want %v", i, got, c.want)
		}
	}
}

func TestGroupRegionAndStats(t *testing.T) {
	f := newFixture(t, 3)
	g := f.build(t, nil)
	nodes := []int{0, 1, 2}
	if _, ok := g.GroupRegion(nodes); !ok {
		t.Fatal("near registers should share a region")
	}
	st := g.Stats()
	if st.ComposableRegs != 3 || st.TotalRegs != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGroupScanCompatible(t *testing.T) {
	f := newFixture(t, 4)
	plan := scan.NewPlan()
	plan.AddChain(0, true, []netlist.InstID{f.regs[0].ID, f.regs[1].ID, f.regs[2].ID, f.regs[3].ID})
	g := f.build(t, plan)
	n := func(i int) int { return g.NodeOf(f.regs[i].ID) }
	if !g.GroupScanCompatible([]int{n(0), n(1), n(2)}) {
		t.Fatal("contiguous ordered run must pass")
	}
	if g.GroupScanCompatible([]int{n(0), n(2)}) {
		t.Fatal("gapped ordered run must fail")
	}
}

func TestSlackClampEqualizesUnconstrained(t *testing.T) {
	// Two registers with unconstrained Q slacks (no fanout): after
	// clamping, both Q slacks equal the clock period → timing compatible.
	f := newFixture(t, 2)
	for i := 0; i < 2; i++ {
		q := f.d.QPin(f.regs[i], 0)
		f.d.Disconnect(q)
	}
	g := f.build(t, nil)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d want 1", g.NumEdges())
	}
	for _, ri := range g.Regs {
		if ri.QSlack != f.d.Timing.ClockPeriod {
			t.Fatalf("QSlack = %g want clamp %g", ri.QSlack, f.d.Timing.ClockPeriod)
		}
	}
}

func TestStatsCountsEdgesOnce(t *testing.T) {
	f := newFixture(t, 3)
	g := f.build(t, nil)
	st := g.Stats()
	if st.Edges != 3 {
		t.Fatalf("K3 edges = %d want 3", st.Edges)
	}
}

func TestNodeOf(t *testing.T) {
	f := newFixture(t, 2)
	g := f.build(t, nil)
	if g.NodeOf(f.regs[0].ID) == -1 || g.NodeOf(f.regs[1].ID) == -1 {
		t.Fatal("NodeOf must find composable registers")
	}
	if g.NodeOf(99999) != -1 {
		t.Fatal("NodeOf must return -1 for unknown")
	}
}
