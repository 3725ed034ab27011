package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/clique"
	"repro/internal/compat"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

// TestGroupScanCheckTrustsCliques pins that the candidate scan check loses
// nothing by skipping the pairwise rule. On every profile, before and
// after a composition pass, for every multi-member clique the layered
// enumeration yields on each §3 subgraph (the groups evalMulti checks),
// GroupScanCompatible must agree with the full scan.Plan.GroupCompatible,
// and both with contiguousRun. A clique can only fail the group rule on
// ordered-chain contiguity; some must, and some ordered cliques must list
// their members out of chain order (MBRs take a merged member's chain
// position under a new, higher ID), or the comparison never exercises
// that check.
func TestGroupScanCheckTrustsCliques(t *testing.T) {
	var total cliqueCheck
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		spec, _ := bench.ProfileByName(profile, bench.ProfileOpts{Scale: 20})
		b, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, plan := b.Design, b.Plan
		eng := sta.New(d)
		eng.SetIdealClocks(true)
		for pass := 0; pass < 2; pass++ {
			if _, err := eng.RunEndpoints(); err != nil {
				t.Fatal(err)
			}
			g := compat.Build(d, eng, plan, compat.DefaultOptions())
			ctx := fmt.Sprintf("%s pass %d", profile, pass)
			c := checkCliques(t, ctx, d, g, plan)
			t.Logf("%s: %d groups, %d rejected on ordered chains, %d ordered out of chain order",
				ctx, c.groups, c.rejected, c.unsorted)
			total.rejected += c.rejected
			total.unsorted += c.unsorted
			if pass == 0 {
				if _, err := Compose(d, g, plan, DefaultOptions()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if total.rejected == 0 || total.unsorted == 0 {
		t.Fatalf("%d cliques rejected on an ordered chain, %d out of chain order: the contiguity check went unexercised",
			total.rejected, total.unsorted)
	}
}

// cliqueCheck counts the multi-member cliques checkCliques compared, those
// the group rule rejected, and the ordered ones whose members are not in
// chain order.
type cliqueCheck struct{ groups, rejected, unsorted int }

func checkCliques(t *testing.T, ctx string, d *netlist.Design, g *compat.Graph, plan *scan.Plan) cliqueCheck {
	t.Helper()
	var c cliqueCheck
	opts, subgraphs, err := decompose(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range subgraphs {
		bits := make([]int, len(nodes))
		for i, n := range nodes {
			bits[i] = regOf(g, n).Bits()
		}
		res, err := clique.EnumerateSubCliques(localCliqueGraph(g, nodes), clique.SubCliqueSpec{
			Bits:            bits,
			Widths:          d.Lib.Widths(regOf(g, nodes[0]).RegCell.Class),
			AllowIncomplete: opts.AllowIncomplete,
			MaxCandidates:   opts.MaxCandidatesPerSubgraph,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, mask := range res.Cliques {
			members := clique.Members(mask)
			if len(members) < 2 {
				continue
			}
			global := make([]int, len(members))
			ids := make([]netlist.InstID, len(members))
			for i, m := range members {
				global[i] = nodes[m]
				ids[i] = regOf(g, nodes[m]).ID
			}
			got, want := g.GroupScanCompatible(global), plan.GroupCompatible(ids)
			if run := contiguousRun(plan, ids); got != want || want != run {
				t.Fatalf("%s: group %v: GroupScanCompatible %v, GroupCompatible %v, contiguousRun %v",
					ctx, ids, got, want, run)
			}
			c.groups++
			if !want {
				c.rejected++
			}
			if ch, _, ok := plan.ChainOf(ids[0]); ok && ch.Ordered && !slices.IsSortedFunc(ids, func(a, b netlist.InstID) int {
				_, pa, _ := plan.ChainOf(a)
				_, pb, _ := plan.ChainOf(b)
				return pa - pb
			}) {
				c.unsorted++
			}
		}
	}
	return c
}

// contiguousRun restates the group rule for a clique without sorting: an
// ordered group's chain positions must be distinct and span exactly one
// slot per member.
func contiguousRun(plan *scan.Plan, ids []netlist.InstID) bool {
	c, _, ok := plan.ChainOf(ids[0])
	if !ok || !c.Ordered {
		return true
	}
	seen := map[int]bool{}
	lo, hi := math.MaxInt, math.MinInt
	for _, id := range ids {
		_, pos, _ := plan.ChainOf(id)
		seen[pos] = true
		lo, hi = min(lo, pos), max(hi, pos)
	}
	return len(seen) == len(ids) && hi-lo == len(ids)-1
}
