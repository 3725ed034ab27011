package core

// This file reproduces the paper's running example (Fig. 1 compatibility
// graph, Fig. 2 placement, Fig. 3 candidate weights and ILP selections):
//
//   - six registers A..D (1-bit), E (4-bit), F (2-bit);
//   - library widths {1, 2, 3, 4, 8};
//   - without incomplete MBRs the ILP reaches cost 11/6 and three final
//     registers (e.g. {A,C,D} + {B,F} + E);
//   - with incomplete MBRs admitted (and an 8-bit cell cheap enough to pass
//     the area rule) the ILP reaches cost 1.2, still three registers, using
//     a 5-bit group mapped to an incomplete 8-bit MBR;
//   - with the default (realistically large) 8-bit cell, the area rule
//     rejects the incomplete candidates — the paper's closing remark on AE.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// exampleLib builds the {1,2,3,4,8}-bit library of the example. When
// small8 is true the 8-bit cell is made small enough for incomplete MBRs
// to pass the §3 area-per-bit rule.
func exampleLib(small8 bool) *lib.Library {
	class := lib.FuncClass{Kind: lib.FlipFlop}
	l := lib.NewLibrary("paper-example")
	for _, bits := range []int{1, 2, 3, 4, 8} {
		w := int64(bits) * 1000
		if small8 && bits == 8 {
			w = 4500
		}
		dp := make([]lib.PinOffset, bits)
		qp := make([]lib.PinOffset, bits)
		for b := 0; b < bits; b++ {
			x := w * int64(2*b+1) / int64(2*bits)
			dp[b] = lib.PinOffset{DX: x, DY: 250}
			qp[b] = lib.PinOffset{DX: x, DY: 750}
		}
		l.MustAdd(&lib.Cell{
			Name:  fmt.Sprintf("R%d", bits),
			Class: class, Bits: bits, Drive: 1,
			Area: w * 1000, Width: w, Height: 1000,
			ClkCap: 1, DPinCap: 0.5, DriveRes: 6, Intrinsic: 50, Setup: 30,
			DPins: dp, QPins: qp, ClkPin: lib.PinOffset{DX: w / 2, DY: 500},
		})
	}
	return l
}

// exampleDesign places A..F per Fig. 2 (coordinates chosen so that exactly
// the blockage relations of Fig. 3 hold: D blocks BC, ABC and BCF; all
// other candidate polygons are clean).
func exampleDesign(t testing.TB, small8 bool) (*netlist.Design, map[string]*netlist.Inst) {
	t.Helper()
	l := exampleLib(small8)
	d := netlist.NewDesign("paper", geom.RectWH(0, 0, 40000, 20000), l)
	d.SiteW = 100
	d.RowH = 1000
	d.Timing.ClockPeriod = 1000
	clk := d.AddNet("clk", true)
	class := lib.FuncClass{Kind: lib.FlipFlop}
	cellOf := func(bits int) *lib.Cell { return l.CellsOfWidth(class, bits)[0] }
	regs := map[string]*netlist.Inst{}
	add := func(name string, bits int, x, y int64) {
		r, err := d.AddRegister(name, cellOf(bits), geom.Point{X: x, Y: y})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), clk)
		regs[name] = r
	}
	add("A", 1, 10000, 3000)
	add("B", 1, 13000, 3000)
	add("C", 1, 13000, 0)
	add("D", 1, 13200, 1500)
	add("E", 4, 5000, 1000)
	add("F", 2, 15000, 2000)
	return d, regs
}

// exampleGraph wires the Fig. 1 compatibility graph by hand (the regions
// are set to the whole core: the example exercises weighting and selection,
// not region derivation).
func exampleGraph(d *netlist.Design, regs map[string]*netlist.Inst) *compat.Graph {
	names := []string{"A", "B", "C", "D", "E", "F"}
	g := &compat.Graph{Excluded: map[netlist.InstID]compat.NotComposableReason{}}
	idx := map[string]int{}
	for i, n := range names {
		in := regs[n]
		g.Regs = append(g.Regs, &compat.RegInfo{
			Inst:     in,
			Region:   d.Core,
			ClockPos: in.Center(),
		})
		idx[n] = i
	}
	g.Adj = make([][]int, len(names))
	edges := [][2]string{
		{"A", "B"}, {"A", "C"}, {"A", "D"}, {"A", "E"},
		{"B", "C"}, {"B", "D"}, {"B", "F"},
		{"C", "D"}, {"C", "E"}, {"C", "F"},
	}
	for _, e := range edges {
		u, v := idx[e[0]], idx[e[1]]
		g.Adj[u] = append(g.Adj[u], v)
		g.Adj[v] = append(g.Adj[v], u)
	}
	return g
}

// nameOfCand renders a candidate as a sorted member-name string ("ABD").
func nameOfCand(g *compat.Graph, c candidate) string {
	var ns []string
	for _, n := range c.nodes {
		ns = append(ns, g.Regs[n].Inst.Name)
	}
	sort.Strings(ns)
	return strings.Join(ns, "")
}

func enumerateExample(t testing.TB, allowIncomplete, small8 bool) (*netlist.Design, *compat.Graph, map[string]candidate) {
	t.Helper()
	d, regs := exampleDesign(t, small8)
	g := exampleGraph(d, regs)
	opts := DefaultOptions()
	opts.AllowIncomplete = allowIncomplete
	ri := newRegIndex(d)
	cands, truncated, err := enumerateCandidates(d, g, ri, []int{0, 1, 2, 3, 4, 5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("example enumeration must not truncate")
	}
	m := map[string]candidate{}
	for _, c := range cands {
		m[nameOfCand(g, c)] = c
	}
	return d, g, m
}

func TestFig3WeightsComplete(t *testing.T) {
	_, _, cands := enumerateExample(t, false, false)
	want := map[string]float64{
		// Originals (keep-as-is) all cost 1.
		"A": 1, "B": 1, "C": 1, "D": 1, "E": 1, "F": 1,
		// 2-bit candidates.
		"AB": 0.5, "AC": 0.5, "AD": 0.5, "BD": 0.5, "CD": 0.5,
		"BC": 4.0, // D's center blocks the B–C polygon
		// 3-bit candidates. Note: Fig. 3 prints BF and CF as 0.50, which
		// contradicts the paper's own formula (§3.2 defines bᵢ as the BIT
		// count, and the figure's AE = 0.20 = 1/5 and BCF = 8 = 4·2¹ only
		// work with bits). We follow the formula: BF = CF = 1/3.
		"BF": 1.0 / 3, "CF": 1.0 / 3,
		"ABD": 1.0 / 3, "BCD": 1.0 / 3, "ACD": 1.0 / 3,
		"ABC": 6.0, // blocked by D: 3·2¹
		// 4-bit candidates.
		"ABCD": 0.25,
		"BCF":  8.0, // 4 bits (B1+C1+F2), blocked by D: 4·2¹
	}
	if len(cands) != len(want) {
		var names []string
		for n := range cands {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Fatalf("candidate count %d want %d: %v", len(cands), len(want), names)
	}
	for name, w := range want {
		c, ok := cands[name]
		if !ok {
			t.Errorf("candidate %s missing", name)
			continue
		}
		if math.Abs(c.weight-w) > 1e-9 {
			t.Errorf("weight(%s) = %g want %g (blockers=%d bits=%d)",
				name, c.weight, w, c.blockers, c.totalBits)
		}
	}
	// 5- and 6-bit groups need an incomplete 8-bit MBR, so they are absent.
	for _, name := range []string{"AE", "CE", "ACE"} {
		if _, ok := cands[name]; ok {
			t.Errorf("%s must be absent without incomplete MBRs", name)
		}
	}
}

func TestFig3WeightsIncomplete(t *testing.T) {
	_, _, cands := enumerateExample(t, true, true)
	want := map[string]float64{
		"AE": 0.2, "CE": 0.2, "ACE": 1.0 / 6,
	}
	for name, w := range want {
		c, ok := cands[name]
		if !ok {
			t.Errorf("incomplete candidate %s missing", name)
			continue
		}
		if math.Abs(c.weight-w) > 1e-9 {
			t.Errorf("weight(%s) = %g want %g", name, c.weight, w)
		}
		if c.width != 8 {
			t.Errorf("%s must map to the 8-bit cell, got %d", name, c.width)
		}
	}
}

func TestIncompleteAreaRuleRejectsAE(t *testing.T) {
	// With the realistic (full-size) 8-bit cell, the incomplete candidates
	// fail the area-per-bit rule — the paper's closing remark about AE.
	_, _, cands := enumerateExample(t, true, false)
	for _, name := range []string{"AE", "CE", "ACE"} {
		if _, ok := cands[name]; ok {
			t.Errorf("%s must be rejected by the area rule", name)
		}
	}
}

func TestILPSelectionComplete(t *testing.T) {
	d, regs := exampleDesign(t, false)
	g := exampleGraph(d, regs)
	opts := DefaultOptions()
	opts.AllowIncomplete = false
	res, err := Compose(d, g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RegsBefore != 6 || res.RegsAfter != 3 {
		t.Fatalf("registers %d → %d, want 6 → 3", res.RegsBefore, res.RegsAfter)
	}
	// The paper's stated selection ({A,C,D} + {B,F} + E) costs
	// 1/3 + 1/3 + 1 = 5/3 under the §3.2 formula.
	if math.Abs(res.ObjectiveSum-5.0/3) > 1e-9 {
		t.Fatalf("objective = %g want 5/3", res.ObjectiveSum)
	}
	if len(res.MBRs) != 2 {
		t.Fatalf("composed MBRs = %d want 2", len(res.MBRs))
	}
	if res.IncompleteMBRs != 0 {
		t.Fatal("no incomplete MBRs expected")
	}
	// E stays: a 4-bit register must still exist.
	hist := BitWidthHistogram(d)
	if hist[4] != 1 {
		t.Fatalf("histogram = %v, want one remaining 4-bit register (E)", hist)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestILPSelectionIncomplete(t *testing.T) {
	d, regs := exampleDesign(t, true)
	g := exampleGraph(d, regs)
	opts := DefaultOptions()
	res, err := Compose(d, g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RegsAfter != 3 {
		t.Fatalf("registers after = %d want 3", res.RegsAfter)
	}
	// Best cover with incomplete MBRs: a 5-bit pair (0.2) + a 2-bit pair
	// (0.5) + a 3-bit pair (1/3) = 31/30 ≈ 1.0333.
	if math.Abs(res.ObjectiveSum-31.0/30) > 1e-9 {
		t.Fatalf("objective = %g want 31/30", res.ObjectiveSum)
	}
	if res.IncompleteMBRs != 1 {
		t.Fatalf("incomplete MBRs = %d want 1", res.IncompleteMBRs)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyWorseOrEqualOnExample(t *testing.T) {
	run := func(m Method) int {
		d, regs := exampleDesign(t, false)
		g := exampleGraph(d, regs)
		opts := DefaultOptions()
		opts.AllowIncomplete = false
		opts.Method = m
		res, err := Compose(d, g, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.RegsAfter
	}
	ilpCount := run(MethodILP)
	greedyCount := run(MethodGreedy)
	if ilpCount > greedyCount {
		t.Fatalf("ILP (%d regs) must not lose to greedy (%d regs)", ilpCount, greedyCount)
	}
	// On this tiny example the agglomerative heuristic happens to also end
	// at three registers (BD → BCD → ABCD), but through the blocked ABCD
	// polygon the ILP's weights deliberately avoid — same count, worse
	// placement quality. The count gap of Fig. 6 appears on the full
	// benchmarks (see `paperrepro -fig6` / EXPERIMENTS.md).
	if ilpCount != 3 || greedyCount != 3 {
		t.Fatalf("ILP=%d greedy=%d want 3/3", ilpCount, greedyCount)
	}
}
