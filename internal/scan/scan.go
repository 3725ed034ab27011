// Package scan models scan-chain organization and the scan-compatibility
// rules of §2: scan partitions, chains, ordered scan sections, the pairwise
// and group-level compatibility predicates used when building the
// compatibility graph, chain bookkeeping across register merges, and
// physical stitching of the chains into the netlist.
package scan

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/lib"
	"repro/internal/netlist"
)

// Chain is one scan chain: an ordered list of register instances.
type Chain struct {
	ID        int
	Partition int
	// Ordered marks an ordered scan section: composition must preserve the
	// relative scan order, so only contiguous runs may merge, into an MBR
	// whose internal chain keeps that order.
	Ordered bool
	Regs    []netlist.InstID
}

// Ref locates a register inside a plan.
type Ref struct {
	Chain int // index into Plan.chains
	Pos   int // position within the chain
}

// Plan is the design's scan organization.
type Plan struct {
	// AllowCrossChain permits moving registers between chains of the same
	// partition during composition (the paper's default assumption for
	// unordered chains).
	AllowCrossChain bool

	chains []*Chain
	ref    map[netlist.InstID]Ref
}

// NewPlan returns an empty plan with cross-chain movement allowed.
func NewPlan() *Plan {
	return &Plan{AllowCrossChain: true, ref: map[netlist.InstID]Ref{}}
}

// AddChain appends a chain. Registers must not already be on a chain.
func (p *Plan) AddChain(partition int, ordered bool, regs []netlist.InstID) (*Chain, error) {
	for _, r := range regs {
		if _, dup := p.ref[r]; dup {
			return nil, fmt.Errorf("scan: register %d already on a chain", r)
		}
	}
	c := &Chain{ID: len(p.chains), Partition: partition, Ordered: ordered,
		Regs: append([]netlist.InstID(nil), regs...)}
	p.chains = append(p.chains, c)
	for i, r := range c.Regs {
		p.ref[r] = Ref{Chain: c.ID, Pos: i}
	}
	return c, nil
}

// Chains returns all chains.
func (p *Plan) Chains() []*Chain { return p.chains }

// ChainOf returns the chain and position of a register, or ok=false for
// unscanned registers.
func (p *Plan) ChainOf(id netlist.InstID) (*Chain, int, bool) {
	r, ok := p.ref[id]
	if !ok {
		return nil, 0, false
	}
	return p.chains[r.Chain], r.Pos, true
}

// Slot is where a register sits in the scan organization: the inputs of
// the pairwise rule (PairRule). The zero Slot is an unscanned register.
type Slot struct {
	Scanned   bool
	Chain     int
	Partition int
	Ordered   bool
}

// SlotOf returns the register's slot (the zero Slot when unscanned).
func (p *Plan) SlotOf(id netlist.InstID) Slot {
	c, _, ok := p.ChainOf(id)
	if !ok {
		return Slot{}
	}
	return Slot{Scanned: true, Chain: c.ID, Partition: c.Partition, Ordered: c.Ordered}
}

// PairRule is the pairwise scan rule of §2: both registers unscanned, or
// both scanned in the same partition — additionally on the same chain when
// either sits in an ordered section or cross-chain movement is disallowed
// (allowCross is the plan's AllowCrossChain).
func PairRule(a, b Slot, allowCross bool) bool {
	if a.Scanned != b.Scanned {
		return false
	}
	if !a.Scanned {
		return true // both unscanned
	}
	if a.Partition != b.Partition {
		return false
	}
	if a.Ordered || b.Ordered || !allowCross {
		return a.Chain == b.Chain
	}
	return true
}

// PairCompatible applies PairRule to two registers of the plan.
func (p *Plan) PairCompatible(a, b netlist.InstID) bool {
	return PairRule(p.SlotOf(a), p.SlotOf(b), p.AllowCrossChain)
}

// GroupCompatible implements the group-level rule: every pair must be
// PairCompatible, and the group must be Contiguous.
func (p *Plan) GroupCompatible(ids []netlist.InstID) bool {
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if !p.PairCompatible(ids[i], ids[j]) {
				return false
			}
		}
	}
	return p.Contiguous(ids)
}

// Contiguous is the group-level half of the rule: a group inside an
// ordered section must form a contiguous run of the chain, so the MBR's
// internal chain can preserve the scan order. It assumes the group passes
// PairRule pairwise (a compatibility-graph clique does), so an ordered
// group lies on its first member's chain. An empty group is rejected.
func (p *Plan) Contiguous(ids []netlist.InstID) bool {
	if len(ids) == 0 {
		return false
	}
	c, _, ok := p.ChainOf(ids[0])
	if !ok || !c.Ordered {
		return true
	}
	pos := make([]int, 0, len(ids))
	for _, id := range ids {
		_, pp, _ := p.ChainOf(id)
		pos = append(pos, pp)
	}
	sort.Ints(pos)
	for i := 1; i < len(pos); i++ {
		if pos[i] != pos[i-1]+1 {
			return false
		}
	}
	return true
}

// MergeOrder returns the order in which the group's registers must be
// packed into the MBR so an internal scan chain preserves scan order:
// chain position order for scanned groups, the given order otherwise.
func (p *Plan) MergeOrder(ids []netlist.InstID) []netlist.InstID {
	out := append([]netlist.InstID(nil), ids...)
	if _, _, ok := p.ChainOf(out[0]); !ok {
		return out
	}
	sort.Slice(out, func(i, j int) bool {
		ci, pi, _ := p.ChainOf(out[i])
		cj, pj, _ := p.ChainOf(out[j])
		if ci.ID != cj.ID {
			return ci.ID < cj.ID
		}
		return pi < pj
	})
	return out
}

// ApplyMerge updates the plan after the registers in group were merged into
// mbr: the group members are removed from their chains and the MBR takes
// the position of the earliest member (of the first chain touched). The
// group must be GroupCompatible. Only the chains holding members are
// rewritten and re-indexed; a chain left empty holds a nil Regs.
func (p *Plan) ApplyMerge(group []netlist.InstID, mbr netlist.InstID) error {
	if len(group) == 0 {
		return fmt.Errorf("scan: empty merge group")
	}
	if !p.GroupCompatible(group) {
		return fmt.Errorf("scan: merge group is not scan compatible")
	}
	if _, _, scanned := p.ChainOf(group[0]); !scanned {
		return nil // unscanned group: nothing to track
	}
	// Find the anchor: lowest (chain, pos) among members.
	anchor := Ref{Chain: 1 << 30, Pos: 1 << 30}
	inGroup := make(map[netlist.InstID]bool, len(group))
	var touched []int
	for _, id := range group {
		inGroup[id] = true
		r := p.ref[id]
		if r.Chain < anchor.Chain || (r.Chain == anchor.Chain && r.Pos < anchor.Pos) {
			anchor = r
		}
		if !slices.Contains(touched, r.Chain) {
			touched = append(touched, r.Chain)
		}
	}
	for id := range inGroup {
		delete(p.ref, id)
	}
	for _, ci := range touched {
		c := p.chains[ci]
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
		p.reindexChain(ci)
	}
	return nil
}

// reindexChain refreshes the register→position index for one chain.
func (p *Plan) reindexChain(ci int) {
	for pos, id := range p.chains[ci].Regs {
		p.ref[id] = Ref{Chain: ci, Pos: pos}
	}
}

// Stitch wires every chain into the design: scan-in port/net → first
// register SI → ... → last register SO → scan-out. Existing scan-net
// connections on the chain registers are replaced. Registers with internal
// scan use their single SI/SO pins; external-scan MBRs are traversed
// bit by bit. Registers whose cells have no scan circuitry are an error.
//
// The created nets are named <prefix>_c<chain>_<k>.
func (p *Plan) Stitch(d *netlist.Design, prefix string) error {
	for _, c := range p.chains {
		var hops []*netlist.Pin // alternating SO/SI boundary pins in order
		for _, id := range c.Regs {
			in := d.Inst(id)
			if in == nil {
				return fmt.Errorf("scan: chain %d references missing instance %d", c.ID, id)
			}
			if in.RegCell == nil {
				return fmt.Errorf("scan: chain %d instance %q is not a register", c.ID, in.Name)
			}
			switch in.RegCell.Class.Scan {
			case lib.InternalScan:
				hops = append(hops, d.FindPin(in, netlist.PinScanIn, 0))
				so := findScanOut(d, in)
				hops = append(hops, so)
			case lib.ExternalScan:
				for b := 0; b < in.Bits(); b++ {
					hops = append(hops, d.FindPin(in, netlist.PinScanIn, b))
					hops = append(hops, d.FindPin(in, netlist.PinScanOut, b))
				}
			default:
				return fmt.Errorf("scan: register %q has no scan pins", in.Name)
			}
		}
		// Connect SO(k) → SI(k+1).
		for k := 1; k+1 < len(hops); k += 2 {
			so, si := hops[k], hops[k+1]
			if so == nil || si == nil {
				return fmt.Errorf("scan: chain %d missing scan pin", c.ID)
			}
			net := d.AddNet(fmt.Sprintf("%s_c%d_%d", prefix, c.ID, k/2), false)
			d.Connect(so, net)
			d.Connect(si, net)
		}
	}
	return nil
}

func findScanOut(d *netlist.Design, in *netlist.Inst) *netlist.Pin {
	for _, pid := range in.Pins {
		p := d.Pin(pid)
		if p.Kind == netlist.PinScanOut {
			return p
		}
	}
	return nil
}

// Validate checks internal consistency: no register on two chains, every
// reference resolvable in the design (when d is non-nil).
func (p *Plan) Validate(d *netlist.Design) error {
	seen := map[netlist.InstID]int{}
	for ci, c := range p.chains {
		for _, id := range c.Regs {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("scan: register %d on chains %d and %d", id, prev, ci)
			}
			seen[id] = ci
			if d != nil && d.Inst(id) == nil {
				return fmt.Errorf("scan: chain %d references dead instance %d", ci, id)
			}
		}
	}
	for id, r := range p.ref {
		if r.Chain >= len(p.chains) || r.Pos >= len(p.chains[r.Chain].Regs) ||
			p.chains[r.Chain].Regs[r.Pos] != id {
			return fmt.Errorf("scan: stale ref for register %d", id)
		}
	}
	return nil
}
