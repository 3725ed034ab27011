package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/netlist"
	"repro/internal/paperex"
	"repro/internal/scan"
	"repro/internal/sta"
)

// rebuildGraph runs fresh ideal-clock timing on the design's current state
// and builds the compatibility graph from it — what the flow does between
// composition passes.
func rebuildGraph(t testing.TB, d *netlist.Design, plan *scan.Plan) *compat.Graph {
	t.Helper()
	eng := sta.New(d)
	eng.SetIdealClocks(true)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return compat.Build(d, res, plan, compat.DefaultOptions())
}

// engineOracleRounds drives twin designs through `rounds` composition
// passes with identical ≤1% register wiggles in between: one twin through
// the retained engine, the other through the memo-free Compose. Every
// round, the results — branch & bound node counts included — and final
// design states must match. invalidateAt, when ≥ 0, forces a full
// retained-state drop before that round.
func engineOracleRounds(t *testing.T, spec bench.Spec, workers, rounds int, invalidateAt int) *Engine {
	t.Helper()
	genE, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	genF, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dE, dF := genE.Design, genF.Design
	eng := NewEngine(dE)
	eng.SetWorkers(workers)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < rounds; round++ {
		if round > 0 {
			regsE, regsF := dE.Registers(), dF.Registers()
			if len(regsE) != len(regsF) {
				t.Fatalf("twin designs diverged before round %d: %d vs %d regs",
					round, len(regsE), len(regsF))
			}
			n := len(regsE)/100 + 1
			for k := 0; k < n; k++ {
				j := rng.Intn(len(regsE))
				if regsE[j].Fixed {
					continue
				}
				p := regsE[j].Pos
				p.X += int64(rng.Intn(4001)) - 2000
				p.Y += int64(rng.Intn(4001)) - 2000
				dE.MoveInst(regsE[j], p)
				dF.MoveInst(regsF[j], p)
			}
		}
		if round == invalidateAt {
			eng.Invalidate()
		}
		opts := DefaultOptions()
		opts.Workers = workers
		// Per-round MBR name prefix, as the flow does between passes. The
		// prefix is commit-only and must not perturb the memo.
		opts.NamePrefix = fmt.Sprintf("p%d", round)
		gE := rebuildGraph(t, dE, genE.Plan)
		gF := rebuildGraph(t, dF, genF.Plan)
		resE, err := eng.Compose(gE, genE.Plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		resF, err := Compose(dF, gF, genF.Plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sumE, sumF := composeSummary(resE, dE), composeSummary(resF, dF); sumE != sumF {
			t.Fatalf("round %d: engine diverged from memo-free compose:\nengine:\n%s\nfresh:\n%s",
				round, sumE, sumF)
		}
	}
	return eng
}

// TestEngineMatchesComposeWithProfiles is the oracle: on all five design
// profiles and multiple worker counts, multi-round retained composition is
// byte-identical (selections, counts, branch & bound nodes, objective,
// final design state) to composing from scratch every round.
func TestEngineMatchesComposeWithProfiles(t *testing.T) {
	o := bench.ProfileOpts{Scale: 150}
	profiles := []struct {
		name string
		spec bench.Spec
	}{
		{"D1", bench.D1(o)},
		{"D2", bench.D2(o)},
		{"D3", bench.D3(o)},
		{"D4", bench.D4(o)},
		{"D5", bench.D5(o)},
	}
	workerCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	if testing.Short() {
		profiles = profiles[:2]
		workerCounts = []int{4}
	}
	for _, p := range profiles {
		for _, w := range workerCounts {
			p, w := p, w
			t.Run(fmt.Sprintf("%s/workers=%d", p.name, w), func(t *testing.T) {
				eng := engineOracleRounds(t, p.spec, w, 3, -1)
				st := eng.Stats()
				if st.Rounds != 3 {
					t.Fatalf("engine served %d rounds, want 3: %+v", st.Rounds, st)
				}
				if st.SubgraphsSeen != st.SubgraphsReused+st.SubgraphsSolved {
					t.Fatalf("subgraph accounting inconsistent: %+v", st)
				}
			})
		}
	}
}

// TestEngineNoWarmFullyIdentical pins D1 and D3 at four workers, whatever
// the test mode: with no warm starts anywhere, even the branch & bound node
// counts must match the memo-free path exactly.
func TestEngineNoWarmFullyIdentical(t *testing.T) {
	o := bench.ProfileOpts{Scale: 150}
	for _, p := range []struct {
		name string
		spec bench.Spec
	}{
		{"D1", bench.D1(o)},
		{"D3", bench.D3(o)},
	} {
		p := p
		t.Run(p.name, func(t *testing.T) {
			engineOracleRounds(t, p.spec, 4, 3, -1)
		})
	}
}

// TestEngineInvalidateMidSequence forces a retained-state drop before the
// last round: the next Compose must re-solve everything and still match.
func TestEngineInvalidateMidSequence(t *testing.T) {
	eng := engineOracleRounds(t, bench.D2(bench.ProfileOpts{Scale: 150}), 4, 3, 2)
	st := eng.Stats()
	if st.Invalidations == 0 {
		t.Fatalf("Invalidate not recorded: %+v", st)
	}
}

// TestEngineMemoFullReuseOnIdenticalRound runs composition passes to
// convergence (a pass that forms no MBRs leaves the design untouched), then
// one more: that round must replay every subgraph from the memo with zero
// fresh solves — the "no unchanged subgraph is ever re-solved" guarantee.
func TestEngineMemoFullReuseOnIdenticalRound(t *testing.T) {
	gen, err := bench.Generate(bench.D2(bench.ProfileOpts{Scale: 150}))
	if err != nil {
		t.Fatal(err)
	}
	d := gen.Design
	eng := NewEngine(d)
	eng.SetWorkers(4)
	opts := DefaultOptions()
	opts.Workers = 4
	converged := false
	for i := 0; i < 10; i++ {
		opts.NamePrefix = fmt.Sprintf("p%d", i)
		g := rebuildGraph(t, d, gen.Plan)
		res, err := eng.Compose(g, gen.Plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.MBRs) == 0 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("composition did not converge in 10 passes")
	}

	before := eng.Stats()
	g := rebuildGraph(t, d, gen.Plan)
	res, err := eng.Compose(g, gen.Plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SubgraphsSolved != before.SubgraphsSolved {
		t.Fatalf("identical round re-solved %d subgraphs",
			st.SubgraphsSolved-before.SubgraphsSolved)
	}
	if got := st.SubgraphsReused - before.SubgraphsReused; got != res.Subgraphs {
		t.Fatalf("reused %d of %d subgraphs", got, res.Subgraphs)
	}
	// Converged subgraphs solve entirely in presolve (every multi-member
	// candidate is over-weighted, so the singleton columns are all forced):
	// their stored node counts are zero, and replaying them saves
	// enumeration and presolve work but no branch & bound nodes.
	if st.ILPNodesSaved != before.ILPNodesSaved {
		t.Fatalf("converged replays reported saved nodes: %+v", st)
	}
	if kind := eng.Summary().LastKind; kind != "memo-delta" {
		t.Fatalf("LastKind = %q, want memo-delta", kind)
	}
	if st.MemoEntries != res.Subgraphs {
		t.Fatalf("memo holds %d entries for %d subgraphs", st.MemoEntries, res.Subgraphs)
	}
}

// TestEngineFallbackPaths covers the memo-free fallback: a round with more
// subgraphs than the memo bound must run without the memo, drop the
// retained state, and still produce the memo-free result.
func TestEngineFallbackPaths(t *testing.T) {
	spec := bench.D1(bench.ProfileOpts{Scale: 150})
	genE, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	genF, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dE, dF := genE.Design, genF.Design
	eng := NewEngine(dE)
	eng.SetWorkers(4)

	defer func(limit int) { memoLimit = limit }(memoLimit)
	memoLimit = 1 // any real decomposition exceeds this

	opts := DefaultOptions()
	opts.Workers = 4
	gE := rebuildGraph(t, dE, genE.Plan)
	gF := rebuildGraph(t, dF, genF.Plan)
	resE, err := eng.Compose(gE, genE.Plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	resF, err := Compose(dF, gF, genF.Plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sumE, sumF := composeSummary(resE, dE), composeSummary(resF, dF); sumE != sumF {
		t.Fatalf("overflow round diverged:\nengine:\n%s\nfresh:\n%s", sumE, sumF)
	}
	if kind := eng.Summary().LastKind; kind != "overflow" {
		t.Fatalf("LastKind = %q, want overflow", kind)
	}
	if st := eng.Stats(); st.MemoEntries != 0 || st.Fallbacks != 1 {
		t.Fatalf("overflow round: want 0 memo entries and 1 fallback, got %+v", st)
	}
}

// TestEngineOptionChangeDropsMemo pins the options-signature gate: changing
// a solve-relevant option between rounds must invalidate the memo (nothing
// can be replayed under different solve semantics).
func TestEngineOptionChangeDropsMemo(t *testing.T) {
	gen, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: 150}))
	if err != nil {
		t.Fatal(err)
	}
	d := gen.Design
	eng := NewEngine(d)
	opts := DefaultOptions()
	g := rebuildGraph(t, d, gen.Plan)
	if _, err := eng.Compose(g, gen.Plan, opts); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	opts.NamePrefix = "p1"
	opts.UseWeights = false // solve-relevant: different weights, different optimum
	g = rebuildGraph(t, d, gen.Plan)
	if _, err := eng.Compose(g, gen.Plan, opts); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Invalidations != before.Invalidations+1 {
		t.Fatalf("option change did not invalidate: %+v", st)
	}
	if st.SubgraphsReused != before.SubgraphsReused {
		t.Fatalf("replayed %d subgraphs across an option change",
			st.SubgraphsReused-before.SubgraphsReused)
	}
}

// TestEngineGreedyMethod runs the retained engine under the greedy selector
// (no ILP): memoization must still be exact.
func TestEngineGreedyMethod(t *testing.T) {
	spec := bench.D2(bench.ProfileOpts{Scale: 200})
	genE, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	genF, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dE, dF := genE.Design, genF.Design
	eng := NewEngine(dE)
	opts := DefaultOptions()
	opts.Method = MethodGreedy
	for round := 0; round < 2; round++ {
		opts.NamePrefix = fmt.Sprintf("p%d", round)
		gE := rebuildGraph(t, dE, genE.Plan)
		gF := rebuildGraph(t, dF, genF.Plan)
		resE, err := eng.Compose(gE, genE.Plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		resF, err := Compose(dF, gF, genF.Plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sumE, sumF := composeSummary(resE, dE), composeSummary(resF, dF); sumE != sumF {
			t.Fatalf("greedy round %d diverged:\nengine:\n%s\nfresh:\n%s", round, sumE, sumF)
		}
	}
}

// TestWeightPruneBoundaryConsistent is the epsilon-unification regression
// test: a multi-member candidate priced within weightPruneTol of its member
// count must be cut by BOTH selection paths, and one priced clearly below
// must be kept by both. Before the shared overWeighted predicate the ILP
// path cut at members−1e-12 while the greedy path cut at members exactly,
// so a boundary candidate composed under one method but not the other.
func TestWeightPruneBoundaryConsistent(t *testing.T) {
	d, regs, err := paperex.Design(false)
	if err != nil {
		t.Fatal(err)
	}
	g := paperex.Graph(d, regs)
	nodes := []int{0, 1} // registers A and B of the worked example

	run := func(pairWeight float64) (ilpPicked, greedyPicked bool) {
		t.Helper()
		cands := []candidate{
			{nodes: []int{0}, totalBits: 1, width: 1, weight: 1},
			{nodes: []int{1}, totalBits: 1, width: 1, weight: 1},
			{nodes: []int{0, 1}, totalBits: 2, width: 2, weight: pairWeight},
		}
		picked, _, err := selectILP(nodes, cands, NormalizeOptions(DefaultOptions()))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range picked {
			if len(c.nodes) > 1 {
				ilpPicked = true
			}
		}
		gPicked, _ := selectGreedy(g, nodes, cands)
		for _, c := range gPicked {
			if len(c.nodes) > 1 {
				greedyPicked = true
			}
		}
		return ilpPicked, greedyPicked
	}

	// Within tolerance of the boundary (2 − tol/2): over-weighted for both.
	if ilpP, grP := run(2 - weightPruneTol/2); ilpP || grP {
		t.Fatalf("boundary candidate survived pruning: ilp=%v greedy=%v", ilpP, grP)
	}
	// Exactly at the member count: over-weighted for both.
	if ilpP, grP := run(2); ilpP || grP {
		t.Fatalf("at-cost candidate survived pruning: ilp=%v greedy=%v", ilpP, grP)
	}
	// Clearly below: kept and selected by both.
	if ilpP, grP := run(2 - 1e-6); !ilpP || !grP {
		t.Fatalf("beneficial candidate not selected: ilp=%v greedy=%v", ilpP, grP)
	}
}

// TestMemoEntryReplayRoundtrip is the white-box accounting check: a fresh
// solve converted to a memo entry and replayed over a shifted node list
// must reproduce the result exactly, with the member ordinals remapped and
// the stored branch & bound node count intact (what ILPNodesSaved sums).
func TestMemoEntryReplayRoundtrip(t *testing.T) {
	sr := subgraphResult{
		picked: []candidate{
			{nodes: []int{10, 30}, totalBits: 2, width: 2, weight: 1.25, blockers: 1},
			{nodes: []int{20, 40, 50}, totalBits: 3, width: 4, weight: 2.5, blockers: 0},
		},
		objective:  4.75,
		ilpNodes:   7,
		candidates: 9,
		truncated:  true,
	}
	nodes := []int{10, 20, 30, 40, 50}
	ent := entryOf(sr, nodes)

	// Same members at different graph indexes (node ids shift as the
	// evolving graph is rebuilt, the signature pins only the content).
	shifted := []int{3, 8, 1, 4, 9}
	got := ent.replay(shifted)
	if got.objective != sr.objective || got.ilpNodes != 7 ||
		got.candidates != 9 || !got.truncated {
		t.Fatalf("replay mangled scalars: %+v", got)
	}
	want := [][]int{{3, 1}, {8, 4, 9}}
	if len(got.picked) != len(want) {
		t.Fatalf("replay returned %d picks, want %d", len(got.picked), len(want))
	}
	for i, c := range got.picked {
		if fmt.Sprint(c.nodes) != fmt.Sprint(want[i]) {
			t.Fatalf("pick %d nodes = %v, want %v", i, c.nodes, want[i])
		}
		orig := sr.picked[i]
		if c.totalBits != orig.totalBits || c.width != orig.width ||
			c.weight != orig.weight || c.blockers != orig.blockers {
			t.Fatalf("pick %d fields diverged: %+v vs %+v", i, c, orig)
		}
	}
}
