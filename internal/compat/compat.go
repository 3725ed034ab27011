// Package compat builds the register compatibility graph of §2: nodes are
// the composable registers of the design, edges connect register pairs that
// are functionally, scan-, placement- and timing-compatible. Candidate MBRs
// are then cliques of this graph (package clique), selected by the ILP
// (package core).
//
// Build is the one builder. Its node phase computes each register's
// eligibility, slacks, feasible region and static signature; its edge
// phase (sweep) never scans all pairs. Only registers with equal
// functional keys can pass the functional test, and only overlapping move
// regions the placement test, so the sweep buckets the nodes by key and
// finds each node's candidate partners through a geometric grid over its
// bucket's regions. The graph equals the all-pairs scan's (the tests'
// oracle) at any worker count. The flow builds it only at composition
// sites, under ideal clocks (the paper analyzes compatibility before CTS).
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
	// and to keep one shared useful skew workable). Slacks are compared
	// after clamping to ±the clock period, so unconstrained (+Inf) slacks
	// compare equal.
	MaxSlackDiff float64
}

// DefaultOptions returns the rules used by the benchmarks.
func DefaultOptions() Options {
	return Options{MaxSlackDiff: 150}
}

// testMask identifies the four §2 pairwise compatibility tests. A set bit
// means the test passed.
type testMask uint8

// The four tests, in evaluation order.
const (
	testFunctional testMask = 1 << iota
	testScan
	testPlacement
	testTiming
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

// funcKey is the input of the functional pairwise test: two registers are
// functionally compatible iff their keys are equal — same functional class,
// same root-resolved clock net, same clock-gating group, and identical
// control nets (reset, enable, scan enable) so the MBR's shared control pins
// can connect legally. The sweep buckets registers by it, so it only tests
// pairs that can pass.
type funcKey struct {
	Class     lib.FuncClass
	GateGroup int
	Clock     netlist.NetID
	Reset     netlist.NetID
	Enable    netlist.NetID
	ScanEn    netlist.NetID
}

// staticSig captures the structural inputs of the functional and scan
// pairwise tests for one register: equal funcKeys pass the functional
// test, and scan.PairRule decides the scan test on the Slots (see
// pairTest). Clock is the root-resolved clock net (Design.ClockRootNet):
// two sinks of the same distribution root stay clock-compatible even while
// a retained clock tree parents them under different leaf buffers.
type staticSig struct {
	funcKey
	scan.Slot
}

// sigOf computes the static signature of a register under a scan plan (plan
// may be nil for unscanned designs).
func sigOf(d *netlist.Design, plan *scan.Plan, in *netlist.Inst) staticSig {
	s := staticSig{funcKey: funcKey{
		Class:     in.RegCell.Class,
		GateGroup: in.GateGroup,
		Clock:     d.ClockRootNet(d.ClockNet(in)),
		Reset:     d.ControlNet(in, netlist.PinReset),
		Enable:    d.ControlNet(in, netlist.PinEnable),
		ScanEn:    d.ControlNet(in, netlist.PinScanEnable),
	}}
	if plan != nil {
		s.Slot = plan.SlotOf(in.ID)
	}
	return s
}

// Graph is the compatibility graph over composable registers.
type Graph struct {
	// Regs are the nodes, in ascending instance-ID order; index = node id.
	Regs []*RegInfo
	// Adj are adjacency lists over node ids, each sorted ascending.
	Adj [][]int
	// Excluded maps non-composable register instances to the reason.
	Excluded map[netlist.InstID]NotComposableReason
	// Plan is the scan plan used for group-level checks (may be nil).
	Plan *scan.Plan

	// pairsTested and rejects are the edge phase's counters (see Stats).
	pairsTested int
	rejects     [4]int
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

// Build constructs the compatibility graph for the design's current state,
// testing pairs on one worker per CPU (see BuildN).
func Build(d *netlist.Design, slacks sta.SlackSource, plan *scan.Plan, opts Options) *Graph {
	return BuildN(d, slacks, plan, opts, 0)
}

// BuildN constructs the compatibility graph for the design's current
// state. slacks must be up to date with d: a Results snapshot, or an
// sta.Engine after its Run or RunEndpoints, with no edit since; they are
// read on the calling goroutine. plan may be nil for unscanned designs.
// The edge phase (sweep) spreads its pair tests over workers goroutines
// (0 = runtime.GOMAXPROCS(0), 1 = sequential); the graph and its Stats are
// identical at any worker count.
func BuildN(d *netlist.Design, slacks sta.SlackSource, plan *scan.Plan, opts Options, workers int) *Graph {
	g, sigs := buildNodes(d, slacks, plan)
	g.sweep(d.Core, opts, sigs, workers)
	return g
}

// buildNodes is the node phase: every register's eligibility, and each
// eligible one's RegInfo and signature, in ascending instance-ID order.
func buildNodes(d *netlist.Design, slacks sta.SlackSource, plan *scan.Plan) (*Graph, []staticSig) {
	regs := d.Registers()
	g := &Graph{
		Regs:     make([]*RegInfo, 0, len(regs)),
		Excluded: map[netlist.InstID]NotComposableReason{},
		Plan:     plan,
	}
	sigs := make([]staticSig, 0, len(regs))
	for _, in := range regs {
		if reason, bad := Exclusion(d, in); bad {
			g.Excluded[in.ID] = reason
			continue
		}
		g.Regs = append(g.Regs, newRegInfo(d, slacks, in))
		sigs = append(sigs, sigOf(d, plan, in))
	}
	return g, sigs
}

// newRegInfo computes the per-register data for one eligible register. Its
// slacks are clamped to ±the clock period.
func newRegInfo(d *netlist.Design, slacks sta.SlackSource, in *netlist.Inst) *RegInfo {
	clamp := d.Timing.ClockPeriod
	info := &RegInfo{
		Inst:   in,
		DSlack: clampSlack(sta.RegDSlack(d, slacks, in), clamp),
		QSlack: clampSlack(sta.RegQSlack(d, slacks, in), clamp),
		Region: sta.FeasibleRegion(d, slacks, in),
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

// pairTest runs the four §2 pairwise tests in evaluation order (functional,
// scan, placement, timing) and returns the mask of tests that passed; ok
// reports full compatibility (all four passed). allowCross is the scan
// plan's AllowCrossChain flag (true for a nil plan).
func pairTest(opts Options, a, b *RegInfo, sa, sb staticSig, allowCross bool) (testMask, bool) {
	var m testMask
	if sa.funcKey != sb.funcKey {
		return m, false
	}
	m |= testFunctional
	if !scan.PairRule(sa.Slot, sb.Slot, allowCross) {
		return m, false
	}
	m |= testScan
	if !placementCompatible(a, b) {
		return m, false
	}
	m |= testPlacement
	if !timingCompatible(opts, a, b) {
		return m, false
	}
	return m | testTiming, true
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

// GroupScanCompatible applies the group-level scan rule to a clique of the
// graph. Its edges already passed the pairwise rule (scan.PairRule), so
// only ordered-chain contiguity (scan.Plan.Contiguous) is left to check;
// a node set that is not a clique needs scan.Plan.GroupCompatible instead.
func (g *Graph) GroupScanCompatible(nodes []int) bool {
	if g.Plan == nil {
		return true
	}
	ids := make([]netlist.InstID, len(nodes))
	for i, n := range nodes {
		ids[i] = g.Regs[n].Inst.ID
	}
	return g.Plan.Contiguous(ids)
}

// Stats summarizes the graph for reporting.
type Stats struct {
	TotalRegs      int
	ComposableRegs int
	Edges          int
	ExcludedByWhy  map[NotComposableReason]int
	// PairsTested counts the pair tests the edge phase evaluated: only
	// pairs with equal functional keys whose regions share a grid cell.
	PairsTested int
	// RejectsByTest counts the tested pairs rejected by each test
	// (functional, scan, placement, timing), by the first one they failed.
	// Only same-key pairs are tested, so the functional count is always 0.
	RejectsByTest [4]int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{
		TotalRegs:      len(g.Regs) + len(g.Excluded),
		ComposableRegs: len(g.Regs),
		Edges:          g.NumEdges(),
		ExcludedByWhy:  map[NotComposableReason]int{},
		PairsTested:    g.pairsTested,
		RejectsByTest:  g.rejects,
	}
	for _, why := range g.Excluded {
		s.ExcludedByWhy[why]++
	}
	return s
}
