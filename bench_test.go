package repro

// One benchmark per table and figure of the paper's evaluation (§5), plus
// the ablations DESIGN.md calls out. Each benchmark runs the relevant
// experiment end to end and reports the reproduced quantities through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the paper's
// numbers in one sweep:
//
//	Table 1  → BenchmarkTable1_D1 .. _D5      (register/cap/buffer savings)
//	Fig. 3   → BenchmarkFig3_WorkedExample    (worked-example ILP objective)
//	Fig. 5   → BenchmarkFig5_BitWidths        (8-bit share before/after)
//	Fig. 6   → BenchmarkFig6_ILPvsHeuristic   (ILP gain over the heuristic)
//	§3 bound → BenchmarkAblationPartitionBound
//	§3.2     → BenchmarkAblationWeights
//	§3 inc.  → BenchmarkAblationIncompleteMBR
//	runtime  → BenchmarkComposeOnly_D1        (the new steps' cost)
//
// benchScale divides the paper's design sizes; at the default the full
// suite runs in well under a minute.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/compatgraph"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/paperex"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sta"
)

const benchScale = 40

func profileByName(name string) bench.Spec {
	o := bench.ProfileOpts{Scale: benchScale}
	switch name {
	case "D1":
		return bench.D1(o)
	case "D2":
		return bench.D2(o)
	case "D3":
		return bench.D3(o)
	case "D4":
		return bench.D4(o)
	case "D5":
		return bench.D5(o)
	}
	panic("unknown profile " + name)
}

func runFlowOnce(b *testing.B, spec bench.Spec, mutate func(*flow.Config)) *flow.Report {
	b.Helper()
	gen, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := flow.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	rep, err := flow.Run(gen.Design, gen.Plan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

func pctDrop(base, ours int) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-ours) / float64(base)
}

// benchTable1 runs the full Fig. 4 flow on one design profile and reports
// the Table 1 savings.
func benchTable1(b *testing.B, name string) {
	spec := profileByName(name)
	var rep *flow.Report
	for i := 0; i < b.N; i++ {
		rep = runFlowOnce(b, spec, nil)
	}
	b.ReportMetric(pctDrop(rep.Base.TotalRegs, rep.Ours.TotalRegs), "regsave_%")
	b.ReportMetric(pctDrop(rep.Base.CompRegs, rep.Ours.CompRegs), "compsave_%")
	b.ReportMetric(100*(rep.Base.ClkCapPF-rep.Ours.ClkCapPF)/rep.Base.ClkCapPF, "clkcapsave_%")
	b.ReportMetric(pctDrop(rep.Base.ClkBufs, rep.Ours.ClkBufs), "bufsave_%")
	b.ReportMetric(float64(rep.Ours.FailingEndpoints-rep.Base.FailingEndpoints), "failEP_delta")
	b.ReportMetric(float64(rep.Ours.OverflowEdges-rep.Base.OverflowEdges), "ovfl_delta")
	b.ReportMetric(100*(rep.Base.WLClkMM+rep.Base.WLSigMM-rep.Ours.WLClkMM-rep.Ours.WLSigMM)/
		(rep.Base.WLClkMM+rep.Base.WLSigMM), "wlsave_%")
}

func BenchmarkTable1_D1(b *testing.B) { benchTable1(b, "D1") }
func BenchmarkTable1_D2(b *testing.B) { benchTable1(b, "D2") }
func BenchmarkTable1_D3(b *testing.B) { benchTable1(b, "D3") }
func BenchmarkTable1_D4(b *testing.B) { benchTable1(b, "D4") }
func BenchmarkTable1_D5(b *testing.B) { benchTable1(b, "D5") }

// BenchmarkFig3_WorkedExample reruns the Fig. 1-3 example and reports the
// ILP objective with and without incomplete MBRs (5/3 and 31/30 under the
// §3.2 weight formula).
func BenchmarkFig3_WorkedExample(b *testing.B) {
	var objComplete, objIncomplete float64
	for i := 0; i < b.N; i++ {
		for _, incomplete := range []bool{false, true} {
			d, regs, err := paperex.Design(incomplete)
			if err != nil {
				b.Fatal(err)
			}
			g := paperex.Graph(d, regs)
			opts := core.DefaultOptions()
			opts.AllowIncomplete = incomplete
			res, err := core.Compose(d, g, nil, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.RegsAfter != 3 {
				b.Fatalf("worked example must end at 3 registers, got %d", res.RegsAfter)
			}
			if incomplete {
				objIncomplete = res.ObjectiveSum
			} else {
				objComplete = res.ObjectiveSum
			}
		}
	}
	b.ReportMetric(objComplete, "obj_complete")
	b.ReportMetric(objIncomplete, "obj_incomplete")
}

// BenchmarkFig5_BitWidths reports the 8-bit MBR share before and after
// composition (the paper's "more 8-bit MBRs are used" observation) on D1.
func BenchmarkFig5_BitWidths(b *testing.B) {
	spec := profileByName("D1")
	var before8, after8 float64
	for i := 0; i < b.N; i++ {
		gen, err := bench.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		hb := core.BitWidthHistogram(gen.Design)
		if _, err := flow.Run(gen.Design, gen.Plan, flow.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
		ha := core.BitWidthHistogram(gen.Design)
		before8 = share(hb, 8)
		after8 = share(ha, 8)
	}
	b.ReportMetric(before8, "8bit_before_%")
	b.ReportMetric(after8, "8bit_after_%")
}

func share(h map[int]int, bits int) float64 {
	total := 0
	for _, n := range h {
		total += n
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(h[bits]) / float64(total)
}

// BenchmarkFig6_ILPvsHeuristic reports the ILP's average register-count
// gain over the greedy mapping heuristic across all five designs.
func BenchmarkFig6_ILPvsHeuristic(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = 0
		for _, name := range []string{"D1", "D2", "D3", "D4", "D5"} {
			spec := profileByName(name)
			ilp := runFlowOnce(b, spec, nil)
			greedy := runFlowOnce(b, spec, func(cfg *flow.Config) {
				cfg.Compose.Method = core.MethodGreedy
			})
			gain += 100 * float64(greedy.Ours.TotalRegs-ilp.Ours.TotalRegs) /
				float64(greedy.Ours.TotalRegs)
		}
		gain /= 5
	}
	b.ReportMetric(gain, "ilp_gain_%")
}

// BenchmarkAblationPartitionBound sweeps the §3 subgraph bound and reports
// the QoR (registers after) at each setting as sub-benchmarks.
func BenchmarkAblationPartitionBound(b *testing.B) {
	spec := profileByName("D1")
	for _, bound := range []int{10, 20, 30, 50} {
		b.Run(benchName("bound", bound), func(b *testing.B) {
			var rep *flow.Report
			for i := 0; i < b.N; i++ {
				rep = runFlowOnce(b, spec, func(cfg *flow.Config) {
					cfg.Compose.MaxSubgraphNodes = bound
				})
			}
			b.ReportMetric(float64(rep.Ours.TotalRegs), "regs_after")
			b.ReportMetric(float64(rep.Compose.Candidates), "candidates")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationWeights compares the §3.2 weights against unit weights:
// the register counts are close, but the unweighted ILP pays in overflow
// edges and legalization disturbance.
func BenchmarkAblationWeights(b *testing.B) {
	spec := profileByName("D2")
	for _, weights := range []bool{true, false} {
		name := "weighted"
		if !weights {
			name = "unit"
		}
		b.Run(name, func(b *testing.B) {
			var rep *flow.Report
			for i := 0; i < b.N; i++ {
				rep = runFlowOnce(b, spec, func(cfg *flow.Config) {
					cfg.Compose.UseWeights = weights
				})
			}
			b.ReportMetric(float64(rep.Ours.TotalRegs), "regs_after")
			b.ReportMetric(float64(rep.Ours.OverflowEdges-rep.Base.OverflowEdges), "ovfl_delta")
			b.ReportMetric(float64(rep.Compose.LegalizationMoved), "legal_moved")
		})
	}
}

// BenchmarkAblationIncompleteMBR sweeps the incomplete-MBR admission rule.
func BenchmarkAblationIncompleteMBR(b *testing.B) {
	spec := profileByName("D2")
	type mode struct {
		name     string
		allow    bool
		overhead float64
	}
	for _, m := range []mode{
		{"off", false, 0},
		{"cap5pct", true, 0.05},
		{"cap30pct", true, 0.30},
	} {
		b.Run(m.name, func(b *testing.B) {
			var rep *flow.Report
			for i := 0; i < b.N; i++ {
				rep = runFlowOnce(b, spec, func(cfg *flow.Config) {
					cfg.Compose.AllowIncomplete = m.allow
					cfg.Compose.IncompleteAreaOverhead = m.overhead
				})
			}
			b.ReportMetric(float64(rep.Ours.TotalRegs), "regs_after")
			b.ReportMetric(float64(rep.Compose.IncompleteMBRs), "incomplete_mbrs")
			b.ReportMetric(rep.Ours.AreaUM2, "area_um2")
		})
	}
}

// BenchmarkAblationDecompose evaluates the paper's future-work idea (§5):
// decomposing the initial 8-bit MBRs before recomposition, on the 8-bit-
// rich D4 profile where the paper predicts it helps most.
func BenchmarkAblationDecompose(b *testing.B) {
	spec := profileByName("D4")
	for _, decompose := range []bool{false, true} {
		name := "skip8bit"
		if decompose {
			name = "decompose"
		}
		b.Run(name, func(b *testing.B) {
			var rep *flow.Report
			for i := 0; i < b.N; i++ {
				rep = runFlowOnce(b, spec, func(cfg *flow.Config) {
					cfg.Decompose = flow.DecomposeConfig{All: decompose}
				})
			}
			b.ReportMetric(float64(rep.Ours.TotalRegs), "regs_after")
			b.ReportMetric(rep.Ours.ClkCapPF, "clkcap_pF")
			b.ReportMetric(float64(rep.DecomposedMBRs), "decomposed")
		})
	}
}

// wiggleRegs applies small random moves to n movable registers — the ≤1%
// parametric edit pattern of the flow's skew/sizing hot loop.
func wiggleRegs(d *netlist.Design, regs []*netlist.Inst, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		r := regs[rng.Intn(len(regs))]
		if r.Fixed {
			continue
		}
		d.MoveInst(r, geom.Point{
			X: r.Pos.X + int64(rng.Intn(2001)) - 1000,
			Y: r.Pos.Y + int64(rng.Intn(2001)) - 1000,
		})
	}
}

// BenchmarkSTA_FullVsIncremental measures the tentpole win of the retained
// STA engine: after a ≤1% register wiggle (the flow's per-iteration edit
// volume), "full" forces a from-scratch graph rebuild and sweep while
// "incremental" re-propagates only the edit cone. The ratio of the two
// times is the headline incremental speedup; cone_pins reports how few
// pins the incremental path actually re-evaluated.
func BenchmarkSTA_FullVsIncremental(b *testing.B) {
	gen, err := bench.Generate(profileByName("D1"))
	if err != nil {
		b.Fatal(err)
	}
	d := gen.Design
	regs := d.Registers()
	nEdit := len(regs) / 100
	if nEdit < 1 {
		nEdit = 1
	}
	for _, mode := range []string{"full", "incremental"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			eng := sta.New(d)
			eng.SetIdealClocks(true)
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wiggleRegs(d, regs, rng, nEdit)
				if mode == "full" {
					eng.Invalidate()
				}
				b.StartTimer()
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if mode == "incremental" {
				s := eng.Stats()
				if s.IncrementalRuns == 0 {
					b.Fatal("incremental path never engaged")
				}
				b.ReportMetric(float64(s.LastConePins), "cone_pins")
			}
			b.ReportMetric(float64(d.PinSpace()), "pins")
		})
	}
}

// BenchmarkCompatGraph_FullVsDelta measures the retained compatibility-graph
// engine against a from-scratch compat.Build after a ≤1% register wiggle —
// the edit volume of one skew/sizing iteration. "full" rebuilds the whole
// pairwise edge phase each round; "delta" re-tests only pairs owned by
// changed nodes (both produce identical graphs; the oracle tests in
// internal/compatgraph pin the equality). pairs_tested / edges_retested
// report how little work the delta path actually did.
func BenchmarkCompatGraph_FullVsDelta(b *testing.B) {
	gen, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: 10}))
	if err != nil {
		b.Fatal(err)
	}
	d := gen.Design
	regs := d.Registers()
	nEdit := len(regs) / 100
	if nEdit < 1 {
		nEdit = 1
	}
	eng := sta.New(d)
	eng.SetIdealClocks(true)
	for _, mode := range []string{"full", "delta"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			cg := compatgraph.New(d, gen.Plan, compatgraph.Options{Compat: compat.DefaultOptions()})
			res, err := eng.Run()
			if err != nil {
				b.Fatal(err)
			}
			var g *compat.Graph = cg.Update(res) // prime the retained state
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wiggleRegs(d, regs, rng, nEdit)
				if res, err = eng.Run(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if mode == "full" {
					g = compat.Build(d, res, gen.Plan, compat.DefaultOptions())
				} else {
					g = cg.Update(res)
				}
			}
			b.StopTimer()
			st := g.Stats()
			b.ReportMetric(float64(st.Edges), "edges")
			if mode == "delta" {
				cs := cg.Stats()
				if cs.Deltas == 0 {
					b.Fatal("delta path never engaged")
				}
				b.ReportMetric(float64(cs.LastPairsTested), "pairs_tested")
				b.ReportMetric(float64(cs.LastEdgesRetested), "edges_retested")
			}
		})
	}
}

// BenchmarkSTA_FullRun_D1 sweeps the worker count of the levelized
// arrival/required sweeps on a full from-scratch run. Results are
// byte-identical at every setting, so only time differs; on a multi-core
// host the workers=N line is the parallel-sweep speedup.
func BenchmarkSTA_FullRun_D1(b *testing.B) {
	gen, err := bench.Generate(profileByName("D1"))
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if n > 2 {
			counts = append(counts, 2)
		}
		counts = append(counts, n)
	}
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := sta.New(gen.Design)
			eng.SetIdealClocks(true)
			eng.SetWorkers(workers)
			for i := 0; i < b.N; i++ {
				eng.Invalidate()
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComposeOnly_D1 isolates the cost of the new steps (candidate
// enumeration + weighting + ILP + mapping + placement LP), the quantity
// behind the paper's "Exec. Time" column. Sub-benchmarks sweep the worker
// count of the parallel per-subgraph pipeline: workers=1 is a single
// worker, workers=N is full fan-out; on a multi-core host the speedup
// between them is the headline of the parallel execution layer (results are
// byte-identical either way, so only time differs).
func BenchmarkComposeOnly_D1(b *testing.B) {
	spec := profileByName("D1")
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		if n > 2 {
			counts = append(counts, 2)
		}
		counts = append(counts, n)
	}
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gen, err := bench.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				eng := sta.New(gen.Design)
				eng.SetIdealClocks(true)
				res, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				g := compat.Build(gen.Design, res, gen.Plan, compat.DefaultOptions())
				opts := core.DefaultOptions()
				opts.Workers = workers
				b.StartTimer()
				if _, err := core.Compose(gen.Design, g, gen.Plan, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCTS_FullVsDelta compares the two ways of bringing the clock
// trees back in sync after a small placement ECO (~1% of the registers
// move): a batch rebuild (per-root cts.Build + global legalization, the
// pre-retained flow) against the retained engine's delta Update. Twin
// designs receive identical edits; the oracle tests in internal/cts prove
// the two paths produce identical trees, so this measures cost only.
func BenchmarkCTS_FullVsDelta(b *testing.B) {
	spec := bench.D2(bench.ProfileOpts{Scale: 6 * benchScale})
	genA, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	genB, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	dA, dB := genA.Design, genB.Design

	eng := cts.NewEngine(dA, cts.DefaultOptions())
	if err := eng.Attach(); err != nil {
		b.Fatal(err)
	}

	buildFull := func(d *netlist.Design) []*cts.Tree {
		var roots []*netlist.Net
		d.Nets(func(n *netlist.Net) {
			if n.IsClock && len(n.Sinks) > 0 {
				roots = append(roots, n)
			}
		})
		var trees []*cts.Tree
		var bufs []*netlist.Inst
		for _, n := range roots {
			t, err := cts.Build(d, n, cts.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			trees = append(trees, t)
			bufs = append(bufs, t.Buffers...)
		}
		place.LegalizeIncremental(d, bufs)
		return trees
	}

	rng := rand.New(rand.NewSource(7))
	var tDelta, tFull time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regsA, regsB := dA.Registers(), dB.Registers()
		edits := len(regsA)/100 + 1 // ≤1% of the registers move
		for k := 0; k < edits; k++ {
			j := rng.Intn(len(regsA))
			dx := int64(rng.Intn(40001) - 20000)
			dy := int64(rng.Intn(40001) - 20000)
			p := regsA[j].Pos
			p.X += dx
			p.Y += dy
			dA.MoveInst(regsA[j], p)
			dB.MoveInst(regsB[j], p)
		}

		t0 := time.Now()
		if err := eng.Update(); err != nil {
			b.Fatal(err)
		}
		tDelta += time.Since(t0)

		t0 = time.Now()
		trees := buildFull(dB)
		tFull += time.Since(t0)
		for j := len(trees) - 1; j >= 0; j-- {
			trees[j].Remove()
		}
	}
	b.StopTimer()
	st := eng.Stats()
	if st.Deltas != b.N {
		b.Fatalf("delta path not exercised: %+v", st)
	}
	n := float64(b.N)
	b.ReportMetric(float64(tDelta.Nanoseconds())/n, "delta_ns/update")
	b.ReportMetric(float64(tFull.Nanoseconds())/n, "full_ns/update")
	b.ReportMetric(float64(tFull)/float64(tDelta), "speedup_x")
}

// BenchmarkCompatNodePhase_FullVsDelta isolates the compat engine's node
// phase: "full" recomputes every register's eligibility/info/signature by
// the linear sweep (no timing feed attached), "delta" consumes the STA
// engine's changed-slack feed and visits only the dirty candidates. Edits
// move ≤1% of the registers per update; everything else (edge phase, edit
// volume, designs) is identical, so node_ns/update is the tentpole's
// speedup.
func BenchmarkCompatNodePhase_FullVsDelta(b *testing.B) {
	gen, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: 10}))
	if err != nil {
		b.Fatal(err)
	}
	d := gen.Design
	regs := d.Registers()
	nEdit := len(regs)/100 + 1
	eng := sta.New(d)
	eng.SetIdealClocks(true)
	for _, mode := range []string{"full", "delta"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			cg := compatgraph.New(d, gen.Plan, compatgraph.Options{Compat: compat.DefaultOptions()})
			if mode == "delta" {
				cg.SetTimingFeed(eng)
			}
			res, err := eng.Run()
			if err != nil {
				b.Fatal(err)
			}
			cg.Update(res) // prime the retained state (linear by definition)
			base := cg.Stats()
			rng := rand.New(rand.NewSource(11))
			var visited int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wiggleRegs(d, regs, rng, nEdit)
				if res, err = eng.Run(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				cg.Update(res)
				visited += cg.Stats().LastNodesVisited
			}
			b.StopTimer()
			cs := cg.Stats()
			deltas := cs.NodeDeltas - base.NodeDeltas
			// An occasional update may legitimately fall back to the linear
			// sweep (a large re-propagated cone overflows the changed-slack
			// feed); the amortized numbers below include those, but the
			// delta path must carry the bulk of the updates.
			if mode == "delta" && deltas < (b.N+1)/2 {
				b.Fatalf("delta node phase took only %d of %d updates: %+v", deltas, b.N, cs)
			}
			n := float64(b.N)
			if mode == "delta" {
				b.ReportMetric(float64(deltas)/n, "node_deltas/update")
			}
			b.ReportMetric(float64(cs.NodePhaseNS-base.NodePhaseNS)/n, "node_ns/update")
			b.ReportMetric(float64(visited)/n, "nodes_visited/update")
		})
	}
}

// BenchmarkCTSMeasure_FullVsCached compares the batch clock-network walk
// (cts.Measure) with the engine's retained per-tree metrics after delta
// updates folding ≤1% register moves. Both values are asserted equal
// bit-for-bit every iteration; speedup_x is the measurement-point speedup
// the retained metrics layer buys.
func BenchmarkCTSMeasure_FullVsCached(b *testing.B) {
	gen, err := bench.Generate(bench.D2(bench.ProfileOpts{Scale: 10}))
	if err != nil {
		b.Fatal(err)
	}
	d := gen.Design
	eng := cts.NewEngine(d, cts.DefaultOptions())
	if err := eng.Attach(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var tFull, tCached time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		regs := d.Registers()
		wiggleRegs(d, regs, rng, len(regs)/100+1)
		if err := eng.Update(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		cached := eng.Metrics()
		tCached += time.Since(t0)
		t0 = time.Now()
		full := cts.Measure(d)
		tFull += time.Since(t0)
		if cached != full {
			b.Fatalf("cached metrics %+v != Measure %+v", cached, full)
		}
	}
	b.StopTimer()
	if st := eng.Stats(); st.MetricsFallbacks != 0 {
		b.Fatalf("cached path fell back %d times", st.MetricsFallbacks)
	}
	n := float64(b.N)
	b.ReportMetric(float64(tCached.Nanoseconds())/n, "cached_ns/measure")
	b.ReportMetric(float64(tFull.Nanoseconds())/n, "full_ns/measure")
	b.ReportMetric(float64(tFull)/float64(tCached), "speedup_x")
}

// BenchmarkRoute_FullVsDelta compares the two ways of refreshing the
// congestion map after the flow's per-iteration edit volume (≤1% of the
// registers move): a from-scratch route.Estimate over every net against
// the retained engine's delta update, which re-contributes only the moved
// registers' nets. The oracle suite in internal/route proves both paths
// produce bit-identical maps; the overflow counts are still cross-checked
// here every iteration, so speedup_x measures cost alone.
func BenchmarkRoute_FullVsDelta(b *testing.B) {
	for _, profile := range []string{"D1", "D2"} {
		b.Run(profile, func(b *testing.B) {
			gen, err := bench.Generate(profileByName(profile))
			if err != nil {
				b.Fatal(err)
			}
			d := gen.Design
			opts := route.DefaultOptions()
			rt := route.NewEngine(d, opts)
			rt.Update() // baseline map, so iterations measure only the edits

			rng := rand.New(rand.NewSource(11))
			var tDelta, tFull time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				regs := d.Registers()
				wiggleRegs(d, regs, rng, len(regs)/100+1)
				b.StartTimer()

				t0 := time.Now()
				delta := rt.OverflowEdges()
				tDelta += time.Since(t0)

				t0 = time.Now()
				full := route.Estimate(d, opts).OverflowEdges()
				tFull += time.Since(t0)

				if delta != full {
					b.Fatalf("delta overflow %d != batch %d", delta, full)
				}
			}
			b.StopTimer()
			if st := rt.Stats(); st.Deltas == 0 {
				b.Fatalf("delta path not exercised: %+v", st)
			}
			n := float64(b.N)
			b.ReportMetric(float64(tDelta.Nanoseconds())/n, "delta_ns/update")
			b.ReportMetric(float64(tFull.Nanoseconds())/n, "full_ns/update")
			b.ReportMetric(float64(tFull)/float64(tDelta), "speedup_x")
		})
	}
}

// BenchmarkCompose_MemoVsFresh compares the retained compose engine (memo =
// signature-keyed subgraph solve reuse) against the memo-free core.Compose
// on twin designs composed to convergence first. Two regimes:
//
//   - settled: no edits between rounds — the multi-pass flow's tail (pass ≥
//     3 recomposes an unchanged design to confirm convergence). The engine
//     replays every subgraph; the memo-free path re-enumerates and re-solves
//     all of them, so speedup_x here is the pure memo win.
//   - wiggle1pct: each round moves ≤1% of the registers identically on both
//     twins — the skew/sizing hot loop. Both paths must re-solve the dirty
//     subgraphs and commit the resulting merges, so the memo saves only the
//     clean share of the round.
//
// The oracle tests in internal/core prove the two paths select identically;
// the observable result is still cross-checked every iteration, so
// speedup_x measures cost alone. reused/update and solved/update report how
// much of each round the memo replayed versus re-solved.
func BenchmarkCompose_MemoVsFresh(b *testing.B) {
	for _, mode := range []string{"settled", "wiggle1pct"} {
		b.Run(mode, func(b *testing.B) {
			benchComposeMemoVsFresh(b, mode == "wiggle1pct")
		})
	}
}

func benchComposeMemoVsFresh(b *testing.B, wiggle bool) {
	spec := profileByName("D1")
	genA, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	genB, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	dA, dB := genA.Design, genB.Design
	ce := core.NewEngine(dA)

	// The surrounding pipeline is the flow's retained one on BOTH twins —
	// incremental STA plus the compatgraph engine's subgraph feed — and it
	// runs outside the timers: the timed region is the compose phase alone,
	// memoized versus memo-free over the same graph (core.Compose
	// decomposes it itself; the engine takes the compat engine's cached
	// decomposition, as the flow does).
	stA, stB := sta.New(dA), sta.New(dB)
	stA.SetIdealClocks(true)
	stB.SetIdealClocks(true)
	cgOpts := compatgraph.Options{Compat: compat.DefaultOptions()}
	cgA := compatgraph.New(dA, genA.Plan, cgOpts)
	cgB := compatgraph.New(dB, genB.Plan, cgOpts)
	maxNodes := core.DefaultOptions().MaxSubgraphNodes

	graphOf := func(st *sta.Engine, cg *compatgraph.Engine) (*compat.Graph, [][]int, []bool) {
		res, err := st.Run()
		if err != nil {
			b.Fatal(err)
		}
		g := cg.Update(res)
		subs, clean := cg.SubgraphsHinted(maxNodes)
		return g, subs, clean
	}

	// compose runs one round on both twins and cross-checks the results.
	// Commit-phase MBR names must be unique per round (as the flow's
	// per-pass prefixes guarantee), and identical across the twins so the
	// designs stay in lockstep.
	pass := 0
	compose := func() (*core.Result, time.Duration, time.Duration) {
		pass++
		opts := core.DefaultOptions()
		opts.NamePrefix = fmt.Sprintf("mvf%d", pass)
		gA, subsA, hintsA := graphOf(stA, cgA)
		gB, _, _ := graphOf(stB, cgB)
		t0 := time.Now()
		resA, err := ce.Compose(gA, genA.Plan, subsA, hintsA, opts)
		dMemo := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		resB, err := core.Compose(dB, gB, genB.Plan, opts)
		dFresh := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		if resA.RegsAfter != resB.RegsAfter || len(resA.MBRs) != len(resB.MBRs) ||
			math.Abs(resA.ObjectiveSum-resB.ObjectiveSum) > 1e-9 {
			b.Fatalf("engine diverged from fresh compose: regs %d/%d, MBRs %d/%d, obj %g/%g",
				resA.RegsAfter, resB.RegsAfter, len(resA.MBRs), len(resB.MBRs),
				resA.ObjectiveSum, resB.ObjectiveSum)
		}
		return resA, dMemo, dFresh
	}

	// Converge the twins so the timed iterations measure the steady state
	// (composition already applied, small parametric edits trickling in).
	for {
		res, _, _ := compose()
		if len(res.MBRs) == 0 {
			break
		}
		if pass > 24 {
			b.Fatal("twins did not converge")
		}
	}

	rng := rand.New(rand.NewSource(17))
	var tMemo, tFresh time.Duration
	before := ce.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wiggle {
			regsA, regsB := dA.Registers(), dB.Registers()
			nEdit := len(regsA)/100 + 1 // ≤1% of the registers move
			for k := 0; k < nEdit; k++ {
				j := rng.Intn(len(regsA))
				if regsA[j].Fixed {
					continue
				}
				p := regsA[j].Pos
				p.X += int64(rng.Intn(4001)) - 2000
				p.Y += int64(rng.Intn(4001)) - 2000
				dA.MoveInst(regsA[j], p)
				dB.MoveInst(regsB[j], p)
			}
		}
		_, dMemo, dFresh := compose()
		tMemo += dMemo
		tFresh += dFresh
	}
	b.StopTimer()
	st := ce.Stats()
	if st.SubgraphsReused == before.SubgraphsReused {
		b.Fatalf("memo never replayed a subgraph: %+v", st)
	}
	n := float64(b.N)
	b.ReportMetric(float64(st.SubgraphsReused-before.SubgraphsReused)/n, "reused/update")
	b.ReportMetric(float64(st.SubgraphsSolved-before.SubgraphsSolved)/n, "solved/update")
	b.ReportMetric(float64(tMemo.Nanoseconds())/n, "memo_ns/update")
	b.ReportMetric(float64(tFresh.Nanoseconds())/n, "full_ns/update")
	b.ReportMetric(float64(tFresh)/float64(tMemo), "speedup_x")
}

// BenchmarkBankDebankLoop closes the bank/debank ECO loop on the
// 8-bit-rich D4 profile: a compose-only baseline versus rounds of
// slack-driven decompose (violating MBRs debanked under a budget, the
// slack relief measured in the debanked state), restore (stranded bits
// re-banked to their original widths) and recomposition. Each round's
// debanked measurement records how much WNS the violating cones recover
// when their MBRs are split; the restore+recompose closes the round so
// the loop converges instead of fragmenting 8-bit groups permanently.
// The loop must end with WNS no worse and the register count no higher
// than the compose-only baseline. The WNS/register trajectory of the
// last run is written to BENCH_eco.json.
func BenchmarkBankDebankLoop(b *testing.B) {
	spec := profileByName("D4")
	const rounds = 3
	dcfg := flow.DecomposeConfig{Budget: 8, SlackThresholdPS: 0}

	type point struct {
		Step  string  `json:"step"`
		WNSPS float64 `json:"wnsPS"`
		Regs  int     `json:"regs"`
	}
	type trajectory struct {
		Profile    string  `json:"profile"`
		Scale      int     `json:"scale"`
		Rounds     int     `json:"rounds"`
		Budget     int     `json:"budget"`
		BaseWNSPS  float64 `json:"baselineWNSPS"`
		BaseRegs   int     `json:"baselineRegs"`
		FinalWNSPS float64 `json:"finalWNSPS"`
		FinalRegs  int     `json:"finalRegs"`
		Restored   int     `json:"restored"`
		Steps      []point `json:"steps"`
	}

	newSession := func() *flow.Session {
		gen, err := bench.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		s, err := flow.NewSession(gen.Design, gen.Plan, flow.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	measure := func(s *flow.Session) flow.Metrics {
		m, err := s.Measure()
		if err != nil {
			b.Fatal(err)
		}
		return m
	}

	var last trajectory
	for i := 0; i < b.N; i++ {
		// Compose-only baseline.
		base := newSession()
		if _, err := base.ComposePass(); err != nil {
			b.Fatal(err)
		}
		bm := measure(base)
		base.Close()

		// The ECO loop: decompose → measure debanked → restore → recompose.
		tr := trajectory{Profile: spec.Name, Scale: benchScale, Rounds: rounds,
			Budget: dcfg.Budget, BaseWNSPS: bm.WNSPS, BaseRegs: bm.TotalRegs}
		eco := newSession()
		if _, err := eco.ComposePass(); err != nil {
			b.Fatal(err)
		}
		m := measure(eco)
		tr.Steps = append(tr.Steps, point{"compose", m.WNSPS, m.TotalRegs})
		restored := 0
		for r := 0; r < rounds; r++ {
			dres, err := eco.DecomposePassWith(dcfg)
			if err != nil {
				b.Fatal(err)
			}
			m = measure(eco)
			tr.Steps = append(tr.Steps, point{
				fmt.Sprintf("decompose[%d victims]", len(dres.Victims)), m.WNSPS, m.TotalRegs})
			n, err := eco.RestorePass()
			if err != nil {
				b.Fatal(err)
			}
			restored += n
			if _, err := eco.ComposePass(); err != nil {
				b.Fatal(err)
			}
			m = measure(eco)
			tr.Steps = append(tr.Steps, point{"restore+recompose", m.WNSPS, m.TotalRegs})
		}
		tr.Restored = restored
		tr.FinalWNSPS, tr.FinalRegs = m.WNSPS, m.TotalRegs
		eco.Close()

		if tr.FinalWNSPS < tr.BaseWNSPS {
			b.Fatalf("bank/debank loop worsened WNS: %.3f ps, baseline %.3f ps",
				tr.FinalWNSPS, tr.BaseWNSPS)
		}
		if tr.FinalRegs > tr.BaseRegs {
			b.Fatalf("bank/debank loop grew registers: %d, baseline %d",
				tr.FinalRegs, tr.BaseRegs)
		}
		last = tr
	}

	b.ReportMetric(last.BaseWNSPS, "base_wns_ps")
	b.ReportMetric(last.FinalWNSPS, "final_wns_ps")
	b.ReportMetric(float64(last.BaseRegs), "base_regs")
	b.ReportMetric(float64(last.FinalRegs), "final_regs")
	b.ReportMetric(float64(last.Restored), "restored")

	enc, err := json.MarshalIndent(last, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_eco.json", append(enc, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
