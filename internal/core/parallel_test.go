package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compat"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

// randomSpec derives a randomized small benchmark spec from a seed, so the
// property tests sweep design shapes (size, width mix, scan structure,
// gating) instead of one hand-picked instance.
func randomSpec(seed int64) bench.Spec {
	rng := rand.New(rand.NewSource(seed))
	mixes := []map[int]float64{
		{1: 0.6, 2: 0.2, 4: 0.15, 8: 0.05},
		{1: 0.3, 2: 0.3, 4: 0.25, 8: 0.15},
		{1: 0.15, 2: 0.15, 4: 0.25, 8: 0.45},
	}
	return bench.Spec{
		Name:              fmt.Sprintf("rand%d", seed),
		Seed:              seed,
		NumRegs:           120 + rng.Intn(130),
		CombPerReg:        3 + rng.Float64()*2,
		WidthMix:          mixes[rng.Intn(len(mixes))],
		NonComposableFrac: 0.2 + rng.Float64()*0.3,
		ClusterSize:       6 + rng.Intn(8),
		GateGroups:        rng.Intn(5),
		ScanChains:        1 + rng.Intn(5),
		OrderedChainFrac:  rng.Float64() * 0.5,
		TargetUtil:        0.45 + rng.Float64()*0.2,
		ClockPeriodPS:     1200 + rng.Float64()*500,
	}
}

// genComposeInput generates the design and a fresh compatibility graph.
func genComposeInput(t testing.TB, spec bench.Spec) (*netlist.Design, *compat.Graph, *scan.Plan) {
	t.Helper()
	b, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sta.New(b.Design)
	eng.SetIdealClocks(true)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	g := compat.Build(b.Design, res, b.Plan, compat.DefaultOptions())
	return b.Design, g, b.Plan
}

// composeSummary renders everything observable about a composition run and
// the resulting design state, excluding wall-clock time and worker count.
func composeSummary(res *Result, d *netlist.Design) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "regs %d->%d composable %d subgraphs %d cands %d trunc %d nodes %d obj %.12g incomplete %d moved %d failed %d closed-form %d\n",
		res.RegsBefore, res.RegsAfter, res.ComposableRegs, res.Subgraphs,
		res.Candidates, res.TruncatedSubgraphs, res.ILPNodes, res.ObjectiveSum,
		res.IncompleteMBRs, res.LegalizationMoved, res.LegalizationFailed, res.ClosedFormPlacements)
	for _, m := range res.MBRs {
		fmt.Fprintf(&sb, "mbr %s cell %s bits %d members %v pos %v w %.12g\n",
			m.Inst.Name, m.Cell.Name, m.Bits, m.Members, m.Pos, m.Weight)
	}
	var regs []string
	for _, r := range d.Registers() {
		regs = append(regs, fmt.Sprintf("%s %s %d,%d", r.Name, r.RegCell.Name, r.Pos.X, r.Pos.Y))
	}
	sort.Strings(regs)
	sb.WriteString(strings.Join(regs, "\n"))
	return sb.String()
}

// connectedDPins counts connected D pins across all live registers — the
// quantity a correct composition conserves exactly (members' bits map one
// to one onto the MBR's connected bits; incomplete MBRs leave the extra
// D/Q pairs unconnected).
func connectedDPins(d *netlist.Design) int {
	n := 0
	for _, r := range d.Registers() {
		for b := 0; b < r.Bits(); b++ {
			if p := d.DPin(r, b); p != nil && p.Net != netlist.NoID {
				n++
			}
		}
	}
	return n
}

// TestParallelComposeMatchesSequential is the core determinism property:
// for randomized designs, Compose with a worker pool produces exactly the
// same result and design state as the sequential legacy path.
func TestParallelComposeMatchesSequential(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := randomSpec(seed)
			run := func(workers int) (string, *sta.Results) {
				d, g, plan := genComposeInput(t, spec)
				opts := DefaultOptions()
				opts.Workers = workers
				res, err := Compose(d, g, plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				eng := sta.New(d)
				eng.SetIdealClocks(true)
				tres, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return composeSummary(res, d), tres
			}
			seqSum, seqTiming := run(1)
			for _, workers := range []int{2, 8} {
				parSum, parTiming := run(workers)
				if parSum != seqSum {
					t.Fatalf("workers=%d diverged from sequential:\nseq:\n%s\npar:\n%s",
						workers, seqSum, parSum)
				}
				// No negative-slack regression vs the sequential path: the
				// design states are identical, so timing must be too.
				if parTiming.TNS != seqTiming.TNS || parTiming.WNS != seqTiming.WNS {
					t.Fatalf("workers=%d timing diverged: TNS %v vs %v, WNS %v vs %v",
						workers, parTiming.TNS, seqTiming.TNS, parTiming.WNS, seqTiming.WNS)
				}
			}
		})
	}
}

// TestComposeConservesRegisters checks the structural safety properties on
// randomized designs composed with the parallel pipeline: no register is
// lost or duplicated, connected bits are conserved, every MBR member
// existed before and is consumed exactly once, and the scan plan stays
// valid with ordered-section order preserved.
func TestComposeConservesRegisters(t *testing.T) {
	seeds := []int64{11, 12, 13, 14}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := randomSpec(seed)
			d, g, plan := genComposeInput(t, spec)

			before := map[netlist.InstID]string{}
			for _, r := range d.Registers() {
				before[r.ID] = r.Name
			}
			bitsBefore := connectedDPins(d)
			var orderedBefore [][]netlist.InstID
			for _, c := range plan.Chains() {
				if c.Ordered {
					orderedBefore = append(orderedBefore, append([]netlist.InstID(nil), c.Regs...))
				}
			}

			opts := DefaultOptions()
			opts.Workers = 8
			res, err := Compose(d, g, plan, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Register accounting.
			consumed := map[netlist.InstID]bool{}
			merged := 0
			for _, m := range res.MBRs {
				for _, id := range m.Members {
					if _, existed := before[id]; !existed {
						t.Fatalf("MBR %s consumed unknown register %d", m.Inst.Name, id)
					}
					if consumed[id] {
						t.Fatalf("register %d consumed by two MBRs", id)
					}
					consumed[id] = true
					if d.Inst(id) != nil {
						t.Fatalf("merged register %d still live", id)
					}
				}
				merged += len(m.Members)
			}
			wantAfter := len(before) - merged + len(res.MBRs)
			if got := len(d.Registers()); got != wantAfter || got != res.RegsAfter {
				t.Fatalf("register count: live %d, RegsAfter %d, want %d", got, res.RegsAfter, wantAfter)
			}
			seen := map[string]bool{}
			for _, r := range d.Registers() {
				if seen[r.Name] {
					t.Fatalf("duplicate register name %q", r.Name)
				}
				seen[r.Name] = true
				if name, ok := before[r.ID]; !consumed[r.ID] && ok && name != r.Name {
					t.Fatalf("surviving register %d renamed %q -> %q", r.ID, name, r.Name)
				}
			}
			if bitsAfter := connectedDPins(d); bitsAfter != bitsBefore {
				t.Fatalf("connected D pins not conserved: %d -> %d", bitsBefore, bitsAfter)
			}

			// Design and scan plan integrity.
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := plan.Validate(d); err != nil {
				t.Fatal(err)
			}
			// Ordered sections: surviving original registers must keep their
			// relative order.
			oi := 0
			for _, c := range plan.Chains() {
				if !c.Ordered {
					continue
				}
				orig := orderedBefore[oi]
				oi++
				var beforeSurvivors, afterSurvivors []netlist.InstID
				for _, id := range orig {
					if !consumed[id] {
						beforeSurvivors = append(beforeSurvivors, id)
					}
				}
				for _, id := range c.Regs {
					if _, ok := before[id]; ok {
						afterSurvivors = append(afterSurvivors, id)
					}
				}
				if len(beforeSurvivors) != len(afterSurvivors) {
					t.Fatalf("ordered chain %d survivor count changed: %d -> %d",
						c.ID, len(beforeSurvivors), len(afterSurvivors))
				}
				for i := range beforeSurvivors {
					if beforeSurvivors[i] != afterSurvivors[i] {
						t.Fatalf("ordered chain %d scan order broken at %d: %v vs %v",
							c.ID, i, beforeSurvivors, afterSurvivors)
					}
				}
			}
		})
	}
}

// TestComposeGreedyParallelDeterminism covers the greedy baseline selector
// under the worker pool too (the Fig. 6 comparison must stay reproducible).
func TestComposeGreedyParallelDeterminism(t *testing.T) {
	spec := randomSpec(21)
	run := func(workers int) string {
		d, g, plan := genComposeInput(t, spec)
		opts := DefaultOptions()
		opts.Method = MethodGreedy
		opts.Workers = workers
		res, err := Compose(d, g, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		return composeSummary(res, d)
	}
	seq := run(1)
	if par := run(8); par != seq {
		t.Fatalf("greedy parallel run diverged:\nseq:\n%s\npar:\n%s", seq, par)
	}
}
