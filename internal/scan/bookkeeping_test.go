package scan

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// wholePlanMerge is the reference ApplyMerge: it rewrites every chain and
// rebuilds the whole register→position index. The production path touches
// only the chains holding group members; the two must agree exactly.
func wholePlanMerge(p *Plan, group []netlist.InstID, mbr netlist.InstID) error {
	if len(group) == 0 {
		return fmt.Errorf("scan: empty merge group")
	}
	if !p.GroupCompatible(group) {
		return fmt.Errorf("scan: merge group is not scan compatible")
	}
	if _, _, scanned := p.ChainOf(group[0]); !scanned {
		return nil
	}
	anchor := Ref{Chain: 1 << 30, Pos: 1 << 30}
	inGroup := map[netlist.InstID]bool{}
	for _, id := range group {
		inGroup[id] = true
		r := p.ref[id]
		if r.Chain < anchor.Chain || (r.Chain == anchor.Chain && r.Pos < anchor.Pos) {
			anchor = r
		}
	}
	for ci, c := range p.chains {
		var kept []netlist.InstID
		for pos, id := range c.Regs {
			if ci == anchor.Chain && pos == anchor.Pos {
				kept = append(kept, mbr)
			}
			if !inGroup[id] {
				kept = append(kept, id)
			}
		}
		c.Regs = kept
	}
	p.ref = indexFromScratch(p)
	return nil
}

// wholePlanSplit is the reference ApplySplit with a whole-plan re-index.
func wholePlanSplit(p *Plan, orig netlist.InstID, parts []netlist.InstID) error {
	c, pos, ok := p.ChainOf(orig)
	if !ok {
		return nil
	}
	if len(parts) == 0 {
		return fmt.Errorf("scan: ApplySplit(%d): no parts", orig)
	}
	for _, id := range parts {
		if _, dup := p.ref[id]; dup {
			return fmt.Errorf("scan: ApplySplit: part %d already on a chain", id)
		}
	}
	repl := append([]netlist.InstID(nil), c.Regs[:pos]...)
	repl = append(repl, parts...)
	c.Regs = append(repl, c.Regs[pos+1:]...)
	p.ref = indexFromScratch(p)
	return nil
}

// indexFromScratch rebuilds the register→position index from the chains.
func indexFromScratch(p *Plan) map[netlist.InstID]Ref {
	ref := map[netlist.InstID]Ref{}
	for ci, c := range p.chains {
		for pos, id := range c.Regs {
			ref[id] = Ref{Chain: ci, Pos: pos}
		}
	}
	return ref
}

// TestChainBookkeepingMatchesWholePlan drives random merge/split sequences
// through the per-chain bookkeeping and through the whole-plan reference
// and checks, after every op, that ChainOf agrees with an index rebuilt
// from scratch for every register ever created, that both plans serialize
// to the same bytes, and that emptied chains hold nil Regs in both.
func TestChainBookkeepingMatchesWholePlan(t *testing.T) {
	const pool = 2000
	d, regs := scanDesign(t, pool)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		next := 0
		fresh := func() netlist.InstID {
			if next == pool {
				t.Fatalf("seed %d: register pool exhausted", seed)
			}
			next++
			return regs[next-1].ID
		}
		got, want := NewPlan(), NewPlan()
		cross := rng.Intn(2) == 0
		got.AllowCrossChain, want.AllowCrossChain = cross, cross
		partitions := 1 + rng.Intn(3)
		for c, nc := 0, 3+rng.Intn(6); c < nc; c++ {
			part, ordered := rng.Intn(partitions), rng.Intn(3) == 0
			var chain []netlist.InstID
			for k, n := 0, rng.Intn(14); k < n; k++ {
				chain = append(chain, fresh())
			}
			if _, err := got.AddChain(part, ordered, chain); err != nil {
				t.Fatal(err)
			}
			if _, err := want.AddChain(part, ordered, chain); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 4; k++ {
			fresh() // unscanned registers
		}

		for op := 0; op < 80; op++ {
			var desc string
			var errGot, errWant error
			if rng.Intn(3) == 0 {
				orig := regs[rng.Intn(next)].ID
				parts := make([]netlist.InstID, 1+rng.Intn(4))
				for i := range parts {
					parts[i] = fresh()
				}
				if rng.Intn(10) == 0 {
					parts[0] = regs[rng.Intn(next-len(parts))].ID // maybe already on a chain
				}
				desc = fmt.Sprintf("split %d -> %v", orig, parts)
				errGot = got.ApplySplit(orig, parts)
				errWant = wholePlanSplit(want, orig, parts)
			} else {
				group := randomGroup(rng, got, regs[:next])
				mbr := fresh()
				desc = fmt.Sprintf("merge %v -> %d", group, mbr)
				errGot = got.ApplyMerge(group, mbr)
				errWant = wholePlanMerge(want, group, mbr)
			}
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("seed %d op %d %s: err %v, reference %v", seed, op, desc, errGot, errWant)
			}
			where := fmt.Sprintf("seed %d op %d %s", seed, op, desc)
			checkIndex(t, where, got, regs[:next])
			checkSameAsReference(t, where, d, got, want)
		}
	}
}

// randomGroup draws a merge group: usually a contiguous run of one chain or
// a same-partition mix across chains, sometimes an arbitrary (possibly
// incompatible or unscanned) set so the rejection paths run too.
func randomGroup(rng *rand.Rand, p *Plan, created []*netlist.Inst) []netlist.InstID {
	k := 1 + rng.Intn(4)
	var group []netlist.InstID
	switch c := p.chains[rng.Intn(len(p.chains))]; {
	case rng.Intn(5) == 0 || len(c.Regs) == 0:
		for i := 0; i < k; i++ {
			group = append(group, created[rng.Intn(len(created))].ID)
		}
	case rng.Intn(2) == 0:
		start := rng.Intn(len(c.Regs))
		end := min(start+k, len(c.Regs))
		group = append(group, c.Regs[start:end]...)
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
	default:
		for _, o := range p.chains {
			if o.Partition == c.Partition {
				for _, id := range o.Regs {
					if rng.Intn(len(o.Regs)+1) == 0 && len(group) < k {
						group = append(group, id)
					}
				}
			}
		}
		if len(group) == 0 {
			group = append(group, c.Regs[0])
		}
	}
	return group
}

// checkIndex compares ChainOf for every register against an index rebuilt
// from the chains.
func checkIndex(t *testing.T, where string, p *Plan, created []*netlist.Inst) {
	t.Helper()
	want := indexFromScratch(p)
	if len(p.ref) != len(want) {
		t.Fatalf("%s: index holds %d registers, chains hold %d", where, len(p.ref), len(want))
	}
	for _, in := range created {
		c, pos, ok := p.ChainOf(in.ID)
		r, wok := want[in.ID]
		if ok != wok || (ok && (c.ID != r.Chain || pos != r.Pos)) {
			t.Fatalf("%s: ChainOf(%d) = (%v, %d, %v), from scratch (%d, %d, %v)",
				where, in.ID, c, pos, ok, r.Chain, r.Pos, wok)
		}
	}
}

// checkSameAsReference compares the plan against the whole-plan replay:
// serialized bytes, and nil-vs-empty Regs per chain.
func checkSameAsReference(t *testing.T, where string, d *netlist.Design, got, want *Plan) {
	t.Helper()
	var gb, wb bytes.Buffer
	if err := got.WriteJSON(&gb, d); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if err := want.WriteJSON(&wb, d); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: plan\n%s\nreference\n%s", where, gb.Bytes(), wb.Bytes())
	}
	for ci, c := range got.chains {
		if (c.Regs == nil) != (want.chains[ci].Regs == nil) {
			t.Fatalf("%s: chain %d Regs nil=%v, reference nil=%v",
				where, ci, c.Regs == nil, want.chains[ci].Regs == nil)
		}
	}
}
