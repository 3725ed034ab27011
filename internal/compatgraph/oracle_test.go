package compatgraph_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/compatgraph"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

// oracleScale keeps the five profiles small enough for many edit rounds.
const oracleScale = 300

// rebuildScale is small enough for per-bucket grids of several cells on
// most profiles (at Scale 20 only D4 has them) and large enough to keep the
// rebuild oracle's -race time modest.
const rebuildScale = 10

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

// requireGraphsEqual asserts exact equality with the compat.Build oracle:
// node set and order, every RegInfo field, adjacency, and exclusions.
func requireGraphsEqual(t *testing.T, ctx string, got, want *compat.Graph) {
	t.Helper()
	if len(got.Regs) != len(want.Regs) {
		t.Fatalf("%s: node count %d != oracle %d", ctx, len(got.Regs), len(want.Regs))
	}
	for i := range want.Regs {
		g, w := got.Regs[i], want.Regs[i]
		if g.Inst.ID != w.Inst.ID {
			t.Fatalf("%s: node %d is inst %d, oracle has %d", ctx, i, g.Inst.ID, w.Inst.ID)
		}
		if g.DSlack != w.DSlack || g.QSlack != w.QSlack ||
			g.Region != w.Region || g.ClockPos != w.ClockPos {
			t.Fatalf("%s: node %d (inst %d) RegInfo diverged:\n got %+v\nwant %+v",
				ctx, i, g.Inst.ID, *g, *w)
		}
	}
	for i := range want.Adj {
		g, w := got.Adj[i], want.Adj[i]
		if len(g) != len(w) {
			t.Fatalf("%s: node %d degree %d != oracle %d (got %v want %v)",
				ctx, i, len(g), len(w), g, w)
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("%s: node %d adjacency diverged: got %v want %v", ctx, i, g, w)
			}
		}
	}
	if len(got.Excluded) != len(want.Excluded) {
		t.Fatalf("%s: excluded count %d != oracle %d", ctx, len(got.Excluded), len(want.Excluded))
	}
	for id, why := range want.Excluded {
		if got.Excluded[id] != why {
			t.Fatalf("%s: excluded[%d] = %q, oracle %q", ctx, id, got.Excluded[id], why)
		}
	}
}

// mutate applies one randomized edit round: moves, resizes, skews, and a
// composition pass (which merges registers and rewrites the scan plan).
func mutate(t *testing.T, b *bench.Result, eng *sta.Engine, rng *rand.Rand, round int) {
	t.Helper()
	d := b.Design
	regs := d.Registers()
	if len(regs) == 0 {
		return
	}
	// Parametric edits: a few moves and resizes.
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
	// Skew edits change slacks without touching the netlist at all.
	for k := 0; k < rng.Intn(4); k++ {
		r := regs[rng.Intn(len(regs))]
		eng.SetSkew(r.ID, float64(rng.Intn(201)-100))
	}
	// Every third round, run a real composition pass: merges remove
	// members, create MBR nodes, and update the scan plan.
	if round%3 == 2 {
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("sta for compose: %v", err)
		}
		g := compat.Build(d, res, b.Plan, compat.DefaultOptions())
		opts := core.DefaultOptions()
		opts.NamePrefix = fmt.Sprintf("orc%d", round)
		if _, err := core.Compose(d, g, b.Plan, opts); err != nil {
			t.Fatalf("compose: %v", err)
		}
	}
}

// TestUpdateEqualsBuildOracle is the equivalence oracle of the sweep: after
// randomized rounds of merge/move/resize/skew edits on all five profiles,
// every Update must equal a fresh compat.Build exactly, at several worker
// counts.
func TestUpdateEqualsBuildOracle(t *testing.T) {
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/w%d", profile, workers), func(t *testing.T) {
				b := genProfile(t, profile)
				d := b.Design
				eng := sta.New(d)
				eng.SetIdealClocks(true)
				cg := compatgraph.New(d, b.Plan, compatgraph.Options{Compat: compat.DefaultOptions(), Workers: workers})
				rng := rand.New(rand.NewSource(int64(len(profile)*1000 + workers)))

				for round := 0; round < 8; round++ {
					res, err := eng.Run()
					if err != nil {
						t.Fatalf("round %d: sta: %v", round, err)
					}
					got := cg.Update(res)
					want := compat.Build(d, res, b.Plan, compat.DefaultOptions())
					requireGraphsEqual(t, fmt.Sprintf("%s w%d round %d", profile, workers, round), got, want)
					mutate(t, b, eng, rng, round)
				}
			})
		}
	}
}

// TestEngineDeterministicAcrossWorkers materializes the same edit sequence
// at several worker counts and requires identical graphs.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	type snap struct {
		g  *compat.Graph
		st compatgraph.Stats
	}
	run := func(workers int) []snap {
		b := genProfile(t, "D2")
		d := b.Design
		eng := sta.New(d)
		eng.SetIdealClocks(true)
		cg := compatgraph.New(d, b.Plan, compatgraph.Options{Compat: compat.DefaultOptions(), Workers: workers})
		rng := rand.New(rand.NewSource(99))
		var out []snap
		for round := 0; round < 6; round++ {
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("sta: %v", err)
			}
			out = append(out, snap{cg.Update(res), cg.Stats()})
			mutate(t, b, eng, rng, round)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		other := run(w)
		for i := range base {
			requireGraphsEqual(t, fmt.Sprintf("w%d round %d", w, i), other[i].g, base[i].g)
			// Decision stats must also be scheduling-independent.
			bs, os := base[i].st, other[i].st
			// Wall time is not reproducible across runs.
			bs.NodePhaseNS, os.NodePhaseNS = 0, 0
			bs.EdgePhaseNS, os.EdgePhaseNS = 0, 0
			bs.LastNodePhaseNS, os.LastNodePhaseNS = 0, 0
			bs.LastEdgePhaseNS, os.LastEdgePhaseNS = 0, 0
			if bs != os {
				t.Fatalf("w%d round %d stats diverged:\n base %+v\nother %+v", w, i, bs, os)
			}
		}
	}
}

// TestRebuildEqualsBuildAtScale checks the sweep against the dense
// compat.Build reference at a scale where the per-bucket grids have several
// cells, so their spatial filter actually prunes pairs (at oracleScale every
// bucket's grid is a single cell): the first Update, and an Update after
// one edit round, on all five profiles. Testing fewer pairs than the
// buckets hold proves some grid was multi-cell.
func TestRebuildEqualsBuildAtScale(t *testing.T) {
	filtered := false
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		spec, _ := bench.ProfileByName(profile, bench.ProfileOpts{Scale: rebuildScale})
		b, err := bench.Generate(spec)
		if err != nil {
			t.Fatalf("generate %s: %v", profile, err)
		}
		d := b.Design
		eng := sta.New(d)
		eng.SetIdealClocks(true)
		cg := compatgraph.New(d, b.Plan, compatgraph.Options{Compat: compat.DefaultOptions(), Workers: 2})
		rng := rand.New(rand.NewSource(int64(len(profile))))
		for round := 0; round < 2; round++ {
			if round > 0 {
				mutate(t, b, eng, rng, 0) // moves, resizes and skews
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("%s round %d: sta: %v", profile, round, err)
			}
			got := cg.Update(res)
			st := cg.Stats()
			ctx := fmt.Sprintf("%s round %d", profile, round)
			requireGraphsEqual(t, ctx, got, compat.Build(d, res, b.Plan, compat.DefaultOptions()))
			if st.LastPairsTested < sameKeyPairs(d, b.Plan, got) {
				filtered = true
			}
		}
	}
	if !filtered {
		t.Fatal("no rebuild tested fewer pairs than its buckets hold: every grid was a single cell")
	}
}

// sameKeyPairs counts the node pairs sharing a functional key — the pairs a
// rebuild tests when every bucket's grid is a single cell.
func sameKeyPairs(d *netlist.Design, plan *scan.Plan, g *compat.Graph) int {
	size := map[compat.FuncKey]int{}
	for _, r := range g.Regs {
		size[compat.SigOf(d, plan, r.Inst).FuncKey]++
	}
	pairs := 0
	for _, m := range size {
		pairs += m * (m - 1) / 2
	}
	return pairs
}
