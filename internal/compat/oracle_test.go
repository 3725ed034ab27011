package compat_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// oracleScale keeps the five profiles small enough for many edit rounds.
const oracleScale = 300

// gridScale is small enough for per-bucket grids of several cells on most
// profiles (at Scale 20 only D4 has them) and large enough to keep the
// at-scale oracle's -race time modest.
const gridScale = 10

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

// requireGraphsEqual asserts exact equality with the pair-scan oracle: node
// set and order, every RegInfo field, adjacency, and exclusions.
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

// freshSnapshot is the oracle's timing: the Run snapshot of a new engine
// given eng's useful skews, under ideal clocks as compat graphs are built.
// A build that reads eng must see exactly these slacks.
func freshSnapshot(t *testing.T, d *netlist.Design, eng *sta.Engine) *sta.Results {
	t.Helper()
	fresh := sta.New(d)
	fresh.SetIdealClocks(true)
	d.Insts(func(in *netlist.Inst) {
		if s := eng.Skew(in.ID); s != 0 {
			fresh.SetSkew(in.ID, s)
		}
	})
	res, err := fresh.Run()
	if err != nil {
		t.Fatalf("fresh sta: %v", err)
	}
	return res
}

// runEngine brings the retained engine up to date, as a compose site does
// before it builds the graph from the engine's slacks.
func runEngine(t *testing.T, eng *sta.Engine) {
	t.Helper()
	if _, err := eng.RunEndpoints(); err != nil {
		t.Fatalf("sta: %v", err)
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
		runEngine(t, eng)
		g := compat.Build(d, eng, b.Plan, compat.DefaultOptions())
		opts := core.DefaultOptions()
		opts.NamePrefix = fmt.Sprintf("orc%d", round)
		if _, err := core.Compose(d, g, b.Plan, opts); err != nil {
			t.Fatalf("compose: %v", err)
		}
	}
}

// TestBuildEqualsPairScanOracle is the equivalence oracle of the sweep and
// of its timing read: after randomized rounds of merge/move/resize/skew
// edits on all five profiles, every build reading the retained STA engine
// must equal the all-pairs scan over a fresh engine's snapshot exactly, at
// several worker counts.
func TestBuildEqualsPairScanOracle(t *testing.T) {
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/w%d", profile, workers), func(t *testing.T) {
				b := genProfile(t, profile)
				d := b.Design
				eng := sta.New(d)
				eng.SetIdealClocks(true)
				rng := rand.New(rand.NewSource(int64(len(profile)*1000 + workers)))

				for round := 0; round < 8; round++ {
					runEngine(t, eng)
					got := compat.BuildN(d, eng, b.Plan, compat.DefaultOptions(), workers)
					want := compat.BuildByPairScan(d, freshSnapshot(t, d, eng), b.Plan, compat.DefaultOptions())
					requireGraphsEqual(t, fmt.Sprintf("%s w%d round %d", profile, workers, round), got, want)
					mutate(t, b, eng, rng, round)
				}
			})
		}
	}
}

// TestBuildDeterministicAcrossWorkers materializes the same edit sequence
// at several worker counts and requires identical graphs and counters.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []*compat.Graph {
		b := genProfile(t, "D2")
		d := b.Design
		eng := sta.New(d)
		eng.SetIdealClocks(true)
		rng := rand.New(rand.NewSource(99))
		var out []*compat.Graph
		for round := 0; round < 6; round++ {
			runEngine(t, eng)
			out = append(out, compat.BuildN(d, eng, b.Plan, compat.DefaultOptions(), workers))
			mutate(t, b, eng, rng, round)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		other := run(w)
		for i := range base {
			ctx := fmt.Sprintf("w%d round %d", w, i)
			requireGraphsEqual(t, ctx, other[i], base[i])
			// The edge-phase counters must also be scheduling-independent.
			if bs, os := base[i].Stats(), other[i].Stats(); !reflect.DeepEqual(bs, os) {
				t.Fatalf("%s stats diverged:\n base %+v\nother %+v", ctx, bs, os)
			}
		}
	}
}

// TestBuildEqualsPairScanAtScale checks the sweep, reading the retained
// engine, against the all-pairs scan over a fresh engine's snapshot at a
// scale where the per-bucket grids have several cells, so their spatial
// filter actually prunes pairs (at oracleScale every bucket's grid is a
// single cell): the first build, and a build after one edit round, on all
// five profiles. Testing fewer pairs than the buckets hold proves some grid
// was multi-cell.
func TestBuildEqualsPairScanAtScale(t *testing.T) {
	filtered := false
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		spec, _ := bench.ProfileByName(profile, bench.ProfileOpts{Scale: gridScale})
		b, err := bench.Generate(spec)
		if err != nil {
			t.Fatalf("generate %s: %v", profile, err)
		}
		d := b.Design
		eng := sta.New(d)
		eng.SetIdealClocks(true)
		rng := rand.New(rand.NewSource(int64(len(profile))))
		for round := 0; round < 2; round++ {
			if round > 0 {
				mutate(t, b, eng, rng, 0) // moves, resizes and skews
			}
			runEngine(t, eng)
			got := compat.BuildN(d, eng, b.Plan, compat.DefaultOptions(), 2)
			ctx := fmt.Sprintf("%s round %d", profile, round)
			requireGraphsEqual(t, ctx, got, compat.BuildByPairScan(d, freshSnapshot(t, d, eng), b.Plan, compat.DefaultOptions()))
			if got.Stats().PairsTested < compat.SameKeyPairs(d, got) {
				filtered = true
			}
		}
	}
	if !filtered {
		t.Fatal("no build tested fewer pairs than its buckets hold: every grid was a single cell")
	}
}
