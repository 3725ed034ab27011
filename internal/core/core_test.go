package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/scan"
)

func TestWeightOf(t *testing.T) {
	cases := []struct {
		bits, blockers int
		singleton      bool
		want           float64
		keep           bool
	}{
		{1, 0, true, 1, true},
		{4, 0, true, 1, true}, // originals always cost 1
		{8, 0, false, 0.125, true},
		{4, 0, false, 0.25, true},
		{3, 1, false, 6, true},
		{8, 1, false, 16, true},
		{4, 3, false, 32, true},
		{4, 4, false, 0, false}, // n ≥ b → ∞ → dropped
		{2, 5, false, 0, false},
	}
	for i, c := range cases {
		got, keep := weightOf(c.bits, c.blockers, c.singleton)
		if keep != c.keep || (keep && math.Abs(got-c.want) > 1e-12) {
			t.Errorf("case %d: weightOf(%d,%d,%v) = (%g,%v) want (%g,%v)",
				i, c.bits, c.blockers, c.singleton, got, keep, c.want, c.keep)
		}
	}
}

func TestWeightPrefersCleanLargeOverSplit(t *testing.T) {
	// §3.2's worked comparison: a clean 8-bit (1/8) beats two clean 4-bit
	// (1/4 + 1/4); an 8-bit with one blocker (16) loses to a clean 4-bit +
	// a blocked 4-bit (1/4 + 8 = 8.25).
	w8clean, _ := weightOf(8, 0, false)
	w4clean, _ := weightOf(4, 0, false)
	if !(w8clean < 2*w4clean) {
		t.Fatal("clean 8-bit must beat two clean 4-bit")
	}
	w8blocked, _ := weightOf(8, 1, false)
	w4blocked, _ := weightOf(4, 1, false)
	if !(w4clean+w4blocked < w8blocked) {
		t.Fatalf("split (%g) must beat blocked 8-bit (%g)", w4clean+w4blocked, w8blocked)
	}
}

func TestWidthFor(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	cases := []struct {
		total, want int
		ok          bool
	}{{1, 1, true}, {2, 2, true}, {3, 4, true}, {5, 8, true}, {8, 8, true}, {9, 0, false}}
	for _, c := range cases {
		got, ok := widthFor(widths, c.total)
		if got != c.want || ok != c.ok {
			t.Errorf("widthFor(%d) = %d,%v want %d,%v", c.total, got, ok, c.want, c.ok)
		}
	}
}

func TestBlockerCount(t *testing.T) {
	d, regs := exampleDesign(t, false)
	g := exampleGraph(d, regs)
	ri := newRegIndex(d)
	idx := map[string]int{"A": 0, "B": 1, "C": 2, "D": 3, "E": 4, "F": 5}
	if n := blockerCount(g, ri, []int{idx["B"], idx["C"]}); n != 1 {
		t.Fatalf("BC blockers = %d want 1 (D)", n)
	}
	if n := blockerCount(g, ri, []int{idx["A"], idx["B"], idx["C"], idx["D"]}); n != 0 {
		t.Fatalf("ABCD blockers = %d want 0", n)
	}
	if n := blockerCount(g, ri, []int{idx["A"], idx["E"]}); n != 0 {
		t.Fatalf("AE blockers = %d want 0", n)
	}
}

// randomFixture builds a design with n registers of one class in a rough
// grid, all mutually compatible (shared clock, generous regions), plus a
// manual complete compatibility graph.
func randomFixture(t testing.TB, n int, seed int64) (*netlist.Design, *compat.Graph) {
	t.Helper()
	l := lib.MustGenerateDefault()
	d := netlist.NewDesign("rand", geom.RectWH(0, 0, 400000, 400000), l)
	d.SiteW = 100
	d.RowH = 1200
	d.Timing.ClockPeriod = 2000
	clk := d.AddNet("clk", true)
	class := lib.FuncClass{Kind: lib.FlipFlop}
	rng := rand.New(rand.NewSource(seed))
	g := &compat.Graph{Excluded: map[netlist.InstID]compat.NotComposableReason{}}
	for i := 0; i < n; i++ {
		bits := []int{1, 1, 1, 2, 4}[rng.Intn(5)]
		cell := l.CellsOfWidth(class, bits)[0]
		r, err := d.AddRegister(fmt.Sprintf("r%d", i), cell,
			geom.Point{X: int64(rng.Intn(300)) * 1200, Y: int64(rng.Intn(300)) * 1200})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), clk)
		g.Regs = append(g.Regs, &compat.RegInfo{Inst: r, Region: d.Core, ClockPos: r.Center()})
	}
	g.Adj = make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Compatible when close (mimics placement compatibility).
			if g.Regs[i].Inst.Center().ManhattanDist(g.Regs[j].Inst.Center()) < 80000 {
				g.Adj[i] = append(g.Adj[i], j)
				g.Adj[j] = append(g.Adj[j], i)
			}
		}
	}
	return d, g
}

func TestComposeReducesRegistersAndStaysValid(t *testing.T) {
	d, g := randomFixture(t, 60, 42)
	place.Legalize(d)
	// Rebuild regions/centers after legalization.
	for _, ri := range g.Regs {
		ri.ClockPos = ri.Inst.Center()
	}
	opts := DefaultOptions()
	res, err := Compose(d, g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RegsAfter >= res.RegsBefore {
		t.Fatalf("no reduction: %d → %d", res.RegsBefore, res.RegsAfter)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.LegalizationFailed != 0 {
		t.Fatalf("%d MBRs failed legalization", res.LegalizationFailed)
	}
	if v := place.CheckLegal(d); len(v) != 0 {
		t.Fatalf("placement violations after composition: %v", v[0])
	}
	// Bookkeeping consistency.
	merged := 0
	for _, m := range res.MBRs {
		merged += len(m.Members)
	}
	if res.RegsBefore-res.RegsAfter != merged-len(res.MBRs) {
		t.Fatalf("count bookkeeping: before=%d after=%d merged=%d mbrs=%d",
			res.RegsBefore, res.RegsAfter, merged, len(res.MBRs))
	}
}

// With unit weights the ILP minimizes the register count exactly, so the
// greedy heuristic can never beat it — per subgraph and hence in total.
func TestComposeGreedyNeverBeatsILP(t *testing.T) {
	f := func(seed int64) bool {
		run := func(m Method) (int, bool) {
			d, g := randomFixture(t, 24, seed)
			opts := DefaultOptions()
			opts.Method = m
			opts.UseWeights = false
			res, err := Compose(d, g, nil, opts)
			if err != nil {
				return 0, false
			}
			return res.RegsAfter, true
		}
		ilpAfter, ok1 := run(MethodILP)
		greedyAfter, ok2 := run(MethodGreedy)
		return ok1 && ok2 && ilpAfter <= greedyAfter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestComposeWithScanPlan(t *testing.T) {
	l := lib.MustGenerateDefault()
	d := netlist.NewDesign("scan", geom.RectWH(0, 0, 400000, 400000), l)
	d.SiteW = 100
	d.RowH = 1200
	d.Timing.ClockPeriod = 2000
	clk := d.AddNet("clk", true)
	class := lib.FuncClass{Kind: lib.FlipFlop, Scan: lib.InternalScan}
	cell := l.CellsOfWidth(class, 1)[0]
	g := &compat.Graph{Excluded: map[netlist.InstID]compat.NotComposableReason{}}
	plan := scan.NewPlan()
	var ids []netlist.InstID
	for i := 0; i < 8; i++ {
		r, err := d.AddRegister(fmt.Sprintf("s%d", i), cell,
			geom.Point{X: int64(i) * 2400, Y: 1200})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), clk)
		g.Regs = append(g.Regs, &compat.RegInfo{Inst: r, Region: d.Core, ClockPos: r.Center()})
		ids = append(ids, r.ID)
	}
	// One ordered chain: only contiguous runs may merge.
	if _, err := plan.AddChain(0, true, ids); err != nil {
		t.Fatal(err)
	}
	g.Plan = plan
	g.Adj = make([][]int, len(g.Regs))
	for i := range g.Regs {
		for j := i + 1; j < len(g.Regs); j++ {
			if plan.PairCompatible(ids[i], ids[j]) {
				g.Adj[i] = append(g.Adj[i], j)
				g.Adj[j] = append(g.Adj[j], i)
			}
		}
	}
	res, err := Compose(d, g, plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.RegsAfter >= res.RegsBefore {
		t.Fatal("expected composition on the ordered chain")
	}
	if err := plan.Validate(d); err != nil {
		t.Fatal(err)
	}
	// The chain must still cover all bits in order and reference only live
	// instances; stitching must succeed.
	if err := plan.Stitch(d, "ts"); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestComposeUnweightedUsesUnitCosts(t *testing.T) {
	d, regs := exampleDesign(t, false)
	g := exampleGraph(d, regs)
	opts := DefaultOptions()
	opts.UseWeights = false
	opts.AllowIncomplete = false
	res, err := Compose(d, g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Unit costs: minimize the number of chosen candidates = number of
	// final registers: 3 (e.g. ABCD + E + F).
	if math.Abs(res.ObjectiveSum-3) > 1e-9 {
		t.Fatalf("objective = %g want 3", res.ObjectiveSum)
	}
	if res.RegsAfter != 3 {
		t.Fatalf("regs after = %d want 3", res.RegsAfter)
	}
}

func TestBitWidthHistogram(t *testing.T) {
	d, _ := exampleDesign(t, false)
	h := BitWidthHistogram(d)
	if h[1] != 4 || h[2] != 1 || h[4] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestComposeEmptyGraph(t *testing.T) {
	l := lib.MustGenerateDefault()
	d := netlist.NewDesign("empty", geom.RectWH(0, 0, 10000, 10000), l)
	g := &compat.Graph{Excluded: map[netlist.InstID]compat.NotComposableReason{}}
	res, err := Compose(d, g, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MBRs) != 0 || res.RegsAfter != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSubgraphBoundRespected(t *testing.T) {
	d, g := randomFixture(t, 50, 7)
	opts := DefaultOptions()
	opts.MaxSubgraphNodes = 10
	res, err := Compose(d, g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// With 50 nodes and bound 10 there must be ≥ 5 subgraphs.
	if res.Subgraphs < 5 {
		t.Fatalf("subgraphs = %d want ≥ 5", res.Subgraphs)
	}
}

func TestMappingUsesMinDriveResistance(t *testing.T) {
	// Two registers, one strong (X4) and one weak (X1): the MBR must be at
	// least as strong as the X4.
	l := lib.MustGenerateDefault()
	d := netlist.NewDesign("map", geom.RectWH(0, 0, 100000, 100000), l)
	d.SiteW = 100
	d.RowH = 1200
	clk := d.AddNet("clk", true)
	class := lib.FuncClass{Kind: lib.FlipFlop}
	ones := l.CellsOfWidth(class, 1)
	weak, strong := ones[0], ones[len(ones)-1]
	r1, _ := d.AddRegister("w", weak, geom.Point{X: 1200, Y: 1200})
	r2, _ := d.AddRegister("s", strong, geom.Point{X: 3600, Y: 1200})
	d.Connect(d.ClockPin(r1), clk)
	d.Connect(d.ClockPin(r2), clk)
	g := &compat.Graph{
		Regs: []*compat.RegInfo{
			{Inst: r1, Region: d.Core, ClockPos: r1.Center()},
			{Inst: r2, Region: d.Core, ClockPos: r2.Center()},
		},
		Adj:      [][]int{{1}, {0}},
		Excluded: map[netlist.InstID]compat.NotComposableReason{},
	}
	res, err := Compose(d, g, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MBRs) != 1 {
		t.Fatalf("MBRs = %d want 1", len(res.MBRs))
	}
	got := res.MBRs[0].Cell
	if got.DriveRes > strong.DriveRes+1e-12 {
		t.Fatalf("mapped cell drive res %g weaker than strongest member %g",
			got.DriveRes, strong.DriveRes)
	}
}

func TestInspectCandidates(t *testing.T) {
	d, regs := exampleDesign(t, false)
	g := exampleGraph(d, regs)
	opts := DefaultOptions()
	opts.AllowIncomplete = false
	infos, err := InspectCandidates(d, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 6 singletons + 14 multi candidates (see TestFig3WeightsComplete).
	if len(infos) != 20 {
		t.Fatalf("candidates = %d want 20", len(infos))
	}
	singles, multis := 0, 0
	for _, ci := range infos {
		if len(ci.Members) == 1 {
			singles++
			if ci.Weight != 1 {
				t.Fatalf("singleton weight %g", ci.Weight)
			}
		} else {
			multis++
		}
		if ci.Incomplete {
			t.Fatal("no incomplete candidates expected")
		}
	}
	if singles != 6 || multis != 14 {
		t.Fatalf("singles=%d multis=%d", singles, multis)
	}
	// The design must be untouched.
	if len(d.Registers()) != 6 {
		t.Fatal("InspectCandidates must not modify the design")
	}
}

func TestComposeDeterministic(t *testing.T) {
	run := func() []string {
		d, g := randomFixture(t, 40, 77)
		res, err := Compose(d, g, nil, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range res.MBRs {
			out = append(out, fmt.Sprintf("%s:%d@%v", m.Cell.Name, m.Bits, m.Inst.Pos))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic MBR count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic MBR %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestSubgraphBoundAboveCliqueLimit pins that a subgraph bound the clique
// enumeration cannot hold is an error from every entry point, reported
// before the design is touched, instead of a panic inside a shard worker.
func TestSubgraphBoundAboveCliqueLimit(t *testing.T) {
	d, g, plan := genComposeInput(t, randomSpec(3))
	regs := len(d.Registers())
	opts := DefaultOptions()
	opts.MaxSubgraphNodes = 65
	check := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "MaxSubgraphNodes") {
			t.Fatalf("%s: err = %v, want an error naming MaxSubgraphNodes", name, err)
		}
	}
	_, err := Compose(d, g, plan, opts)
	check("Compose", err)
	_, err = NewEngine(d).Compose(g, plan, opts)
	check("Engine.Compose", err)
	_, err = InspectCandidates(d, g, opts)
	check("InspectCandidates", err)
	if got := len(d.Registers()); got != regs {
		t.Fatalf("rejected compose changed the register count %d -> %d", regs, got)
	}
}

// TestInspectCandidatesMatchesCompose pins that InspectCandidates applies
// the same option defaults as Compose: in both weight modes it reports
// exactly the candidates Compose enumerates. The candidate count is fixed
// before selection, so the greedy selector stands in for the ILP, whose
// unweighted solve would dominate the test's -race time.
func TestInspectCandidatesMatchesCompose(t *testing.T) {
	spec, _ := bench.ProfileByName("D1", bench.ProfileOpts{Scale: 40})
	for _, weights := range []bool{true, false} {
		d, g, plan := genComposeInput(t, spec)
		opts := DefaultOptions()
		opts.Method = MethodGreedy
		opts.UseWeights = weights
		infos, err := InspectCandidates(d, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compose(d, g, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != res.Candidates {
			t.Fatalf("UseWeights=%v: InspectCandidates returned %d candidates, Compose enumerated %d",
				weights, len(infos), res.Candidates)
		}
	}
}
