// Package compat builds the register compatibility graph of §2: nodes are
// the composable registers of the design, edges connect register pairs that
// are functionally, scan-, placement- and timing-compatible. Candidate MBRs
// are then cliques of this graph (package clique), selected by the ILP
// (package core).
package compat

import (
	"math"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

// Options tunes the compatibility rules.
type Options struct {
	// MaxSlackDiff is the largest allowed difference between the D-pin
	// slacks (and, separately, Q-pin slacks) of two compatible registers,
	// in ps (§2: similar magnitude, to avoid upsizing for one critical bit
	// and to keep one shared useful skew workable).
	MaxSlackDiff float64
	// SlackClamp bounds slacks before comparison; unconstrained (+Inf)
	// slacks are clamped here. Defaults to the clock period when zero.
	SlackClamp float64
}

// DefaultOptions returns the rules used by the benchmarks.
func DefaultOptions() Options {
	return Options{MaxSlackDiff: 150}
}

// TestMask identifies the four §2 pairwise compatibility tests. A set bit
// means the test passed.
type TestMask uint8

// The four tests, in evaluation order.
const (
	TestFunctional TestMask = 1 << iota
	TestScan
	TestPlacement
	TestTiming

	// TestAll is the mask of a compatible pair: all four tests pass.
	TestAll = TestFunctional | TestScan | TestPlacement | TestTiming
)

// NotComposableReason explains why a register was excluded from the graph.
type NotComposableReason string

// Exclusion reasons (Table 1 separates total registers from composable
// ones; these are the paper's cases (a)–(c) plus structural guards).
const (
	ReasonFixed        NotComposableReason = "fixed-or-size-only"
	ReasonNoMBRClass   NotComposableReason = "no-equivalent-mbr-in-library"
	ReasonLargestWidth NotComposableReason = "already-largest-mbr"
	ReasonNoClock      NotComposableReason = "no-clock"
)

// RegInfo is the per-register data the composition engine needs.
type RegInfo struct {
	Inst   *netlist.Inst
	DSlack float64
	QSlack float64
	// Region is the timing-feasible placement region of the cell corner.
	Region geom.Rect
	// ClockPos is the current clock pin position (drives partitioning).
	ClockPos geom.Point
}

// FuncKey is the input of the functional pairwise test: two registers are
// functionally compatible iff their keys are equal — same functional class,
// same root-resolved clock net, same clock-gating group, and identical
// control nets (reset, enable, scan enable) so the MBR's shared control pins
// can connect legally. The sweep in internal/compatgraph buckets registers
// by it, so it only tests pairs that can pass.
type FuncKey struct {
	Class     lib.FuncClass
	GateGroup int
	Clock     netlist.NetID
	Reset     netlist.NetID
	Enable    netlist.NetID
	ScanEn    netlist.NetID
}

// StaticSig captures the structural inputs of the functional and scan
// pairwise tests for one register: two registers pass both tests iff the
// relevant fields agree (see PairTest). Clock is the root-resolved clock
// net (Design.ClockRootNet): two sinks of the same distribution root stay
// clock-compatible even while a retained clock tree parents them under
// different leaf buffers.
type StaticSig struct {
	FuncKey
	Scanned   bool
	Chain     int
	Partition int
	Ordered   bool
}

// SigOf computes the static signature of a register under a scan plan (plan
// may be nil for unscanned designs).
func SigOf(d *netlist.Design, plan *scan.Plan, in *netlist.Inst) StaticSig {
	s := StaticSig{FuncKey: FuncKey{
		Class:     in.RegCell.Class,
		GateGroup: in.GateGroup,
		Clock:     d.ClockRootNet(d.ClockNet(in)),
		Reset:     d.ControlNet(in, netlist.PinReset),
		Enable:    d.ControlNet(in, netlist.PinEnable),
		ScanEn:    d.ControlNet(in, netlist.PinScanEnable),
	}}
	if plan != nil {
		if c, _, ok := plan.ChainOf(in.ID); ok {
			s.Scanned = true
			s.Chain = c.ID
			s.Partition = c.Partition
			s.Ordered = c.Ordered
		}
	}
	return s
}

// Graph is the compatibility graph over composable registers.
type Graph struct {
	// Regs are the nodes; index = node id.
	Regs []*RegInfo
	// Adj are adjacency lists over node ids.
	Adj [][]int
	// Excluded maps non-composable register instances to the reason.
	Excluded map[netlist.InstID]NotComposableReason
	// Plan is the scan plan used for group-level checks (may be nil).
	Plan *scan.Plan

	opts Options
	d    *netlist.Design
}

// NumEdges returns the edge count of the graph.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n / 2
}

// NodeOf returns the node id of a register instance, or -1.
func (g *Graph) NodeOf(id netlist.InstID) int {
	for i, r := range g.Regs {
		if r.Inst.ID == id {
			return i
		}
	}
	return -1
}

// Build constructs the compatibility graph for the design's current state.
// res must be a fresh timing analysis of d; plan may be nil for unscanned
// designs.
func Build(d *netlist.Design, res *sta.Results, plan *scan.Plan, opts Options) *Graph {
	if opts.SlackClamp == 0 {
		opts.SlackClamp = d.Timing.ClockPeriod
	}
	g := &Graph{
		Excluded: map[netlist.InstID]NotComposableReason{},
		Plan:     plan,
		opts:     opts,
		d:        d,
	}
	var sigs []StaticSig
	for _, in := range d.Registers() {
		if reason, bad := Exclusion(d, in); bad {
			g.Excluded[in.ID] = reason
			continue
		}
		g.Regs = append(g.Regs, NewRegInfo(d, res, in, opts))
		sigs = append(sigs, SigOf(d, plan, in))
	}
	allowCross := plan == nil || plan.AllowCrossChain
	g.Adj = make([][]int, len(g.Regs))
	for i := 0; i < len(g.Regs); i++ {
		for j := i + 1; j < len(g.Regs); j++ {
			if _, ok := PairTest(g.opts, g.Regs[i], g.Regs[j], sigs[i], sigs[j], allowCross); ok {
				g.Adj[i] = append(g.Adj[i], j)
				g.Adj[j] = append(g.Adj[j], i)
			}
		}
	}
	return g
}

// FromParts assembles a Graph from externally built pieces (the grid sweep
// in internal/compatgraph). regs must be in ascending instance-ID order
// with ascending-sorted adjacency rows — the same layout Build produces —
// so downstream consumers see byte-identical graphs.
func FromParts(d *netlist.Design, plan *scan.Plan, opts Options, regs []*RegInfo, adj [][]int, excludedIDs map[netlist.InstID]NotComposableReason) *Graph {
	if opts.SlackClamp == 0 {
		opts.SlackClamp = d.Timing.ClockPeriod
	}
	return &Graph{
		Regs:     regs,
		Adj:      adj,
		Excluded: excludedIDs,
		Plan:     plan,
		opts:     opts,
		d:        d,
	}
}

// NewRegInfo computes the per-register data for one eligible register.
// opts.SlackClamp must already be resolved (Build and internal/compatgraph
// default it to the clock period).
func NewRegInfo(d *netlist.Design, res *sta.Results, in *netlist.Inst, opts Options) *RegInfo {
	info := &RegInfo{
		Inst:   in,
		DSlack: clampSlack(sta.RegDSlack(d, res, in), opts.SlackClamp),
		QSlack: clampSlack(sta.RegQSlack(d, res, in), opts.SlackClamp),
		Region: sta.FeasibleRegion(d, res, in),
	}
	if cp := d.ClockPin(in); cp != nil {
		info.ClockPos = d.PinPos(cp)
	} else {
		info.ClockPos = in.Center()
	}
	return info
}

// Exclusion applies the node-eligibility rules (the paper's reasons a–c for
// registers that cannot be composed at all).
func Exclusion(d *netlist.Design, in *netlist.Inst) (NotComposableReason, bool) {
	if in.Fixed || in.SizeOnly {
		return ReasonFixed, true
	}
	if cp := d.ClockPin(in); cp == nil || cp.Net == netlist.NoID {
		return ReasonNoClock, true
	}
	class := in.RegCell.Class
	if !d.Lib.HasClass(class) {
		return ReasonNoMBRClass, true
	}
	if d.Lib.MaxWidth(class) <= in.RegCell.Bits {
		return ReasonLargestWidth, true
	}
	return "", false
}

func clampSlack(s, clamp float64) float64 {
	if math.IsInf(s, 1) || s > clamp {
		return clamp
	}
	if s < -clamp {
		return -clamp
	}
	return s
}

// compatible implements the pairwise edge rule: functional, scan, placement
// and timing compatibility.
func (g *Graph) compatible(a, b *RegInfo) bool {
	allowCross := g.Plan == nil || g.Plan.AllowCrossChain
	_, ok := PairTest(g.opts, a, b,
		SigOf(g.d, g.Plan, a.Inst), SigOf(g.d, g.Plan, b.Inst), allowCross)
	return ok
}

// PairTest runs the four §2 pairwise tests in evaluation order (functional,
// scan, placement, timing) and returns the mask of tests that passed; ok
// reports full compatibility (mask == TestAll). allowCross is the scan
// plan's AllowCrossChain flag (true for a nil plan).
func PairTest(opts Options, a, b *RegInfo, sa, sb StaticSig, allowCross bool) (TestMask, bool) {
	var m TestMask
	if sa.FuncKey != sb.FuncKey {
		return m, false
	}
	m |= TestFunctional
	if !scanCompatibleSig(sa, sb, allowCross) {
		return m, false
	}
	m |= TestScan
	if !placementCompatible(a, b) {
		return m, false
	}
	m |= TestPlacement
	if !timingCompatible(opts, a, b) {
		return m, false
	}
	return m | TestTiming, true
}

// scanCompatibleSig mirrors scan.Plan.PairCompatible over static signatures.
func scanCompatibleSig(a, b StaticSig, allowCross bool) bool {
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

// placementCompatible: the timing-feasible regions must overlap, providing
// a shared region where the MBR can be placed (§2). A violating register's
// degenerate region still counts — other registers can move to it.
func placementCompatible(a, b *RegInfo) bool {
	return a.Region.Overlaps(b.Region)
}

// timingCompatible: no opposite D/Q slack signs (they would pull the MBR's
// useful skew in opposite directions), and similar slack magnitudes on both
// the D side and the Q side.
func timingCompatible(opts Options, a, b *RegInfo) bool {
	if opposed(a.DSlack, a.QSlack, b.DSlack, b.QSlack) {
		return false
	}
	return math.Abs(a.DSlack-b.DSlack) <= opts.MaxSlackDiff &&
		math.Abs(a.QSlack-b.QSlack) <= opts.MaxSlackDiff
}

// opposed reports the forbidden combination: one register with positive D /
// negative Q slack and the other with negative D / positive Q slack.
func opposed(ad, aq, bd, bq float64) bool {
	aPosNeg := ad > 0 && aq < 0
	aNegPos := ad < 0 && aq > 0
	bPosNeg := bd > 0 && bq < 0
	bNegPos := bd < 0 && bq > 0
	return (aPosNeg && bNegPos) || (aNegPos && bPosNeg)
}

// GroupRegion returns the common timing-feasible region of a node group
// (the MBR's legal corner positions) and whether it is non-empty.
func (g *Graph) GroupRegion(nodes []int) (geom.Rect, bool) {
	rs := make([]geom.Rect, len(nodes))
	for i, n := range nodes {
		rs[i] = g.Regs[n].Region
	}
	return geom.IntersectAll(rs)
}

// GroupScanCompatible applies the group-level scan rule to a node set.
func (g *Graph) GroupScanCompatible(nodes []int) bool {
	if g.Plan == nil {
		return true
	}
	ids := make([]netlist.InstID, len(nodes))
	for i, n := range nodes {
		ids[i] = g.Regs[n].Inst.ID
	}
	return g.Plan.GroupCompatible(ids)
}

// Stats summarizes the graph for reporting.
type Stats struct {
	TotalRegs      int
	ComposableRegs int
	Edges          int
	ExcludedByWhy  map[NotComposableReason]int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{
		TotalRegs:      len(g.Regs) + len(g.Excluded),
		ComposableRegs: len(g.Regs),
		Edges:          g.NumEdges(),
		ExcludedByWhy:  map[NotComposableReason]int{},
	}
	for _, why := range g.Excluded {
		s.ExcludedByWhy[why]++
	}
	return s
}
