package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// linkedPairsFixture builds pairs of 1-bit registers that can only merge
// pairwise. Pair "a<k>" is created first, so it commits first; each of its
// Q pins drives a D pin of pair "b<k>", whose placement LP therefore reads
// a net the earlier merge rewires. Input ports feed the a pairs and output
// ports load the b pairs, all at random positions.
func linkedPairsFixture(t testing.TB, pairs int, seed int64) (*netlist.Design, *compat.Graph) {
	t.Helper()
	l := lib.MustGenerateDefault()
	d := netlist.NewDesign("linked", geom.RectWH(0, 0, 400000, 400000), l)
	d.SiteW = 100
	d.RowH = 1200
	d.Timing.ClockPeriod = 2000
	clk := d.AddNet("clk", true)
	cell := l.CellsOfWidth(lib.FuncClass{Kind: lib.FlipFlop}, 1)[0]
	rng := rand.New(rand.NewSource(seed))
	at := func() geom.Point {
		return geom.Point{X: int64(rng.Intn(300)) * 1200, Y: int64(rng.Intn(300)) * 1200}
	}
	port := func(name string, input bool) *netlist.Pin {
		p, err := d.AddPort(name, input, at())
		if err != nil {
			t.Fatal(err)
		}
		return d.FindPin(p, netlist.PinData, 0)
	}
	g := &compat.Graph{Excluded: map[netlist.InstID]compat.NotComposableReason{}}
	addPair := func(prefix string, k int) [2]*netlist.Inst {
		base := at()
		var pair [2]*netlist.Inst
		for i := range pair {
			r, err := d.AddRegister(fmt.Sprintf("%s%d_%d", prefix, k, i), cell,
				geom.Point{X: base.X + int64(i)*cell.Width, Y: base.Y})
			if err != nil {
				t.Fatal(err)
			}
			d.Connect(d.ClockPin(r), clk)
			g.Regs = append(g.Regs, &compat.RegInfo{Inst: r, Region: d.Core, ClockPos: r.Center()})
			pair[i] = r
		}
		return pair
	}
	as := make([][2]*netlist.Inst, pairs)
	for k := range as {
		as[k] = addPair("a", k)
	}
	for k := range as {
		bs := addPair("b", k)
		for i := range bs {
			in := d.AddNet(fmt.Sprintf("in%d_%d", k, i), false)
			d.Connect(port(fmt.Sprintf("pi%d_%d", k, i), true), in)
			d.Connect(d.DPin(as[k][i], 0), in)
			link := d.AddNet(fmt.Sprintf("link%d_%d", k, i), false)
			d.Connect(d.QPin(as[k][i], 0), link)
			d.Connect(d.DPin(bs[i], 0), link)
			out := d.AddNet(fmt.Sprintf("out%d_%d", k, i), false)
			d.Connect(d.QPin(bs[i], 0), out)
			d.Connect(port(fmt.Sprintf("po%d_%d", k, i), false), out)
		}
	}
	// Nodes 2k, 2k+1 are pair a<k>; 2(pairs+k), 2(pairs+k)+1 pair b<k>.
	g.Adj = make([][]int, len(g.Regs))
	for n := 0; n < len(g.Regs); n += 2 {
		g.Adj[n] = []int{n + 1}
		g.Adj[n+1] = []int{n}
	}
	return d, g
}

// TestCommitReusesOnlyMatchingPlacements forces the commit's re-solve
// path: every b pair's D nets are driven by the a pair merged before it,
// so the inputs its shard solved from no longer hold at commit time. Each
// MBR position must equal a sequential replay on a JSON copy of the
// pre-compose design that solves every LP at its turn in the commit order
// and merges, at any worker count, and the simplex's answer to that LP.
func TestCommitReusesOnlyMatchingPlacements(t *testing.T) {
	const pairs = 6
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d, g := linkedPairsFixture(t, pairs, 7)
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			replay, err := netlist.ReadJSON(&buf, d.Lib)
			if err != nil {
				t.Fatal(err)
			}
			names := map[netlist.InstID]string{}
			nodeOf := map[netlist.InstID]int{}
			for n, ri := range g.Regs {
				names[ri.Inst.ID] = ri.Inst.Name
				nodeOf[ri.Inst.ID] = n
			}

			opts := DefaultOptions()
			opts.Workers = workers
			res, err := Compose(d, g, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.MBRs) != 2*pairs {
				t.Fatalf("composed %d MBRs, want %d", len(res.MBRs), 2*pairs)
			}
			if res.PlacementResolves == 0 {
				t.Fatal("no placement was re-solved: the fixture no longer reaches the re-solve path")
			}
			t.Logf("%d of %d placements re-solved at commit", res.PlacementResolves, len(res.MBRs))

			for _, m := range res.MBRs {
				ordered := make([]*netlist.Inst, len(m.Members))
				nodes := make([]int, len(m.Members))
				for i, id := range m.Members {
					ordered[i] = replay.InstByName(names[id])
					nodes[i] = nodeOf[id]
				}
				in := placementInputs(replay, g, nodes, ordered, m.Cell)
				pos, _, err := solvePlacement(replay, &in)
				if err != nil {
					t.Fatal(err)
				}
				if pos != m.Pos {
					t.Fatalf("%s placed at %v, sequential replay at %v", m.Inst.Name, m.Pos, pos)
				}
				// Whichever path solvePlacement took, the position must be
				// the simplex's answer to the same LP (which needs a job;
				// without one the MBR goes to the centroid).
				if len(in.jobs) > 0 {
					sp, err := simplexPlacement(replay, &in)
					if err != nil {
						t.Fatal(err)
					}
					if sp != m.Pos {
						t.Fatalf("%s placed at %v, simplex replay at %v", m.Inst.Name, m.Pos, sp)
					}
				}
				if _, err := replay.MergeRegisters(ordered, m.Cell, m.Inst.Name, pos); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
