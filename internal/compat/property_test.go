package compat

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// Property tests over randomized bench designs: the compatibility graph
// must be a simple undirected graph whose edges all satisfy the §2 rules,
// with the composable/excluded split partitioning the register set.

func buildGraphFor(t testing.TB, spec bench.Spec) (*Graph, *netlist.Design) {
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
	return Build(b.Design, res, b.Plan, DefaultOptions()), b.Design
}

func propertySpec(seed int64) bench.Spec {
	return bench.Spec{
		Name: "prop", Seed: seed,
		NumRegs:           150 + int(seed%4)*40,
		CombPerReg:        3,
		WidthMix:          map[int]float64{1: 0.5, 2: 0.2, 4: 0.2, 8: 0.1},
		NonComposableFrac: 0.25,
		ClusterSize:       8,
		GateGroups:        int(seed % 5),
		ScanChains:        2 + int(seed%3),
		OrderedChainFrac:  float64(seed%4) * 0.2,
		TargetUtil:        0.5,
		ClockPeriodPS:     1400,
	}
}

func TestGraphIsSimpleAndSymmetric(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, _ := buildGraphFor(t, propertySpec(seed))
			for i, adj := range g.Adj {
				seen := map[int]bool{}
				for _, j := range adj {
					if j == i {
						t.Fatalf("self-loop on node %d", i)
					}
					if j < 0 || j >= len(g.Regs) {
						t.Fatalf("node %d has out-of-range neighbour %d", i, j)
					}
					if seen[j] {
						t.Fatalf("duplicate edge %d-%d", i, j)
					}
					seen[j] = true
					back := false
					for _, k := range g.Adj[j] {
						if k == i {
							back = true
							break
						}
					}
					if !back {
						t.Fatalf("asymmetric edge: %d->%d present, %d->%d missing", i, j, j, i)
					}
				}
			}
		})
	}
}

func TestEdgesSatisfyCompatibilityRules(t *testing.T) {
	for _, seed := range []int64{6, 7, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, d := buildGraphFor(t, propertySpec(seed))
			opts := DefaultOptions()
			for i, adj := range g.Adj {
				a := g.Regs[i]
				for _, j := range adj {
					if j <= i {
						continue
					}
					b := g.Regs[j]
					// The predicate itself must agree with the edge and be
					// symmetric in its arguments.
					if !compatible(d, g.Plan, opts, a, b) || !compatible(d, g.Plan, opts, b, a) {
						t.Fatalf("edge %d-%d fails the compatibility predicate", i, j)
					}
					if a.Inst.RegCell.Class != b.Inst.RegCell.Class {
						t.Fatalf("edge %d-%d crosses functional classes", i, j)
					}
					if !a.Region.Overlaps(b.Region) {
						t.Fatalf("edge %d-%d has disjoint feasible regions", i, j)
					}
					if math.Abs(a.DSlack-b.DSlack) > opts.MaxSlackDiff ||
						math.Abs(a.QSlack-b.QSlack) > opts.MaxSlackDiff {
						t.Fatalf("edge %d-%d exceeds slack-difference bound", i, j)
					}
					if g.Plan != nil && !g.Plan.PairCompatible(a.Inst.ID, b.Inst.ID) {
						t.Fatalf("edge %d-%d is scan incompatible", i, j)
					}
				}
			}
		})
	}
}

func TestComposableExcludedPartition(t *testing.T) {
	for _, seed := range []int64{9, 10} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, d := buildGraphFor(t, propertySpec(seed))
			total := len(d.Registers())
			if len(g.Regs)+len(g.Excluded) != total {
				t.Fatalf("nodes (%d) + excluded (%d) != registers (%d)",
					len(g.Regs), len(g.Excluded), total)
			}
			for _, r := range g.Regs {
				if why, bad := g.Excluded[r.Inst.ID]; bad {
					t.Fatalf("register %d both composable and excluded (%s)", r.Inst.ID, why)
				}
			}
		})
	}
}
