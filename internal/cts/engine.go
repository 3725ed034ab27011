package cts

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/place"
)

// UpdateKind labels what an Engine.Update call did.
type UpdateKind string

const (
	// UpdateAttach: trees were built from scratch (first Attach, or the
	// re-attach inside a rebuild fallback).
	UpdateAttach UpdateKind = "attach"
	// UpdateClean: nothing changed since the last update; no work done.
	UpdateClean UpdateKind = "clean"
	// UpdateDelta: the retained trees were repaired in place.
	UpdateDelta UpdateKind = "delta"
	// UpdateRebuild: the delta path was abandoned and the trees were torn
	// down and rebuilt (see Stats.LastFallbackReason).
	UpdateRebuild UpdateKind = "rebuild"
)

// Stats counts Engine activity. Last* fields describe the most recent
// Update; the rest accumulate over the Engine's lifetime.
type Stats struct {
	// Attaches counts from-scratch tree constructions (initial Attach and
	// every rebuild fallback).
	Attaches int
	// Updates counts Update calls.
	Updates int
	// Cleans, Deltas, Rebuilds partition Updates by outcome.
	Cleans   int
	Deltas   int
	Rebuilds int
	// LastKind is the outcome of the most recent Attach/Update.
	LastKind UpdateKind
	// LastFallbackReason says why the most recent Update abandoned the
	// delta path ("" when it did not).
	LastFallbackReason string

	// ReclusteredLeaves / RepairedAncestors count clusters whose membership
	// was rewired (level 0 / higher levels). ReusedClusters counts clusters
	// kept wholly intact. BuffersAdded/Removed count delta-path buffer
	// churn (attach-built buffers are not counted).
	// HeldCentroids counts clusters whose buffer was deliberately kept at
	// its previous position under Options.RecenterThresholdDBU hysteresis.
	ReclusteredLeaves int
	RepairedAncestors int
	ReusedClusters    int
	HeldCentroids     int
	BuffersAdded      int
	BuffersRemoved    int

	LastReclusteredLeaves int
	LastRepairedAncestors int
	LastReusedClusters    int
	LastHeldCentroids     int
	LastBuffersAdded      int
	LastBuffersRemoved    int

	// DomainsReplanned / SinksReplanned count clustering plans computed
	// (and the sinks they clustered): every domain at attach, and on the
	// delta path only the domains whose sorted sink list (pin, position,
	// capacitance) differs from the one their retained plan was computed
	// from. RootSetNetsWalked counts the nets the root-set check visited:
	// the touched instances' clock nets outside every retained domain.
	// All three are deterministic work counters.
	DomainsReplanned      int
	SinksReplanned        int
	RootSetNetsWalked     int
	LastDomainsReplanned  int
	LastSinksReplanned    int
	LastRootSetNetsWalked int

	// LegalizerRebuilds counts from-scratch occupancy builds of the
	// retained legalizer (first attach, and for a cursor older than the
	// last netlist.ResetTouchedLog); cheap Syncs cover the rest.
	LegalizerRebuilds int

	// Per-phase wall time, cumulative and for the most recent
	// Attach/Update: clustering-plan computation, tree repair/realization
	// (rewiring, buffer churn, centroid moves), and buffer legalization.
	// Wall times are excluded from determinism comparisons.
	PlanNS, RepairNS, LegalizeNS             int64
	LastPlanNS, LastRepairNS, LastLegalizeNS int64

	// MetricsCalls counts Engine.Metrics calls; MetricsFallbacks counts the
	// ones that fell back to a batch Measure walk (engine detached, or
	// design edited since the last Update).
	MetricsCalls     int
	MetricsFallbacks int
}

// Engine is the retained clock-tree engine: Attach builds a tree per clock
// root exactly as Build would, Update repairs the live trees to match what
// a fresh Build of the current design would produce — byte-identical
// topology, member order and buffer positions — editing only the clusters
// whose membership changed. A domain whose sink list (pins, positions,
// capacitances) is unchanged reuses its retained clustering plan, so an
// update re-plans only the domains the edits reached.
//
// Every netlist edit the Engine makes is tagged netlist.EditClassCTS, so
// engine-internal buffer churn stays off the flow-class touched record;
// readers of the CTS-class record rely on it rewiring only clock pins and
// adding, moving or removing only clock buffers.
//
// The equality contract with Build rests on three invariants shared with
// plan.go: sinks are clustered in canonical (pin-ID-sorted) order, each
// realized net's sink list is kept in exact plan member order (so per-net
// floating-point capacitance sums agree), and after every update all
// buffers are moved to their plan centroids and re-legalized in canonical
// order (domains by root net ID, levels bottom-up, clusters left to
// right) — the same order a fresh build legalizes in.
type Engine struct {
	d       *netlist.Design
	opts    Options
	workers int

	attached bool
	// serial numbers delta-created buffers/nets; never reused, so names
	// stay unique across the engine's lifetime.
	serial  int
	domains []*domain
	rootOf  map[netlist.NetID]*domain
	ownNet  map[netlist.NetID]*domain
	ownBuf  map[netlist.InstID]bool
	cursor  uint64
	// leg retains the data-cell occupancy the buffers are legalized
	// against; legCursor is the epoch of its last sync with the design's
	// flow-class edit record.
	leg       *place.Legalizer
	legCursor uint64
	// flowT, ctsT and legT are the reused buffers of the touched reads.
	flowT, ctsT, legT []netlist.InstID
	// canonical reports that the realized buffers/nets still sit on the
	// freshly issued IDs an Attach gave them — no delta repair has reused
	// or churned them since. See Canonicalize.
	canonical bool
	// foreignBufs/foreignSinks snapshot, at Attach time, the clock
	// buffers and register clock sinks that live outside every retained
	// domain (pre-existing buffers, registers clocked off nets the engine
	// does not manage). They are constants of the attached period: the
	// engine never touches them, and any edit that could change them bumps
	// the epoch and sends Metrics to its batch fallback until the next
	// Update (which re-attaches when the root set changed).
	foreignBufs  int
	foreignSinks int
	stats        Stats
	// idBuf is updateDomain's sink-collection scratch; netBuf is Metrics'
	// fold buffer.
	idBuf  []netlist.PinID
	netBuf []netMetric
}

// domain is one clock root's retained tree. levels is nil while the root
// has no sinks.
type domain struct {
	root   *netlist.Net
	levels [][]*node
	// plan is the clustering the levels were realized from, and planIn the
	// sorted sink list it was computed from. planTree is a pure function
	// of that list, so an update whose freshly collected list equals
	// planIn element by element reuses plan instead of re-planning. Both
	// are nil while the domain has no sinks.
	plan   *treePlan
	planIn []planSink
}

// NewEngine creates a detached engine for the design. Call Attach (or the
// first Update) to build the trees.
func NewEngine(d *netlist.Design, opts Options) *Engine {
	return &Engine{
		d: d, opts: opts, workers: 1,
		rootOf: map[netlist.NetID]*domain{},
		ownNet: map[netlist.NetID]*domain{},
		ownBuf: map[netlist.InstID]bool{},
	}
}

// SetWorkers bounds the parallelism of the clustering plan, following the
// package engine convention (0 = one worker per available CPU). Results
// are identical for any worker count.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers = n
}

// Attached reports whether the engine currently holds live trees.
func (e *Engine) Attached() bool { return e.attached }

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Summary reports the unified engine counters (engine.Summary).
func (e *Engine) Summary() engine.Summary {
	return engine.Summary{
		Updates:  e.stats.Updates,
		Deltas:   e.stats.Deltas,
		Rebuilds: e.stats.Rebuilds,
		LastKind: string(e.stats.LastKind),
	}
}

// Buffers returns all live tree buffers in canonical order.
func (e *Engine) Buffers() []*netlist.Inst {
	var bufs []*netlist.Inst
	for _, dom := range e.domains {
		for _, lvl := range dom.levels {
			for _, nd := range lvl {
				bufs = append(bufs, nd.buf)
			}
		}
	}
	return bufs
}

// Attach builds a tree for every clock net that currently has sinks,
// exactly as per-root Build calls plus one global legalization pass would.
// Attaching an already-attached engine is a no-op.
func (e *Engine) Attach() error {
	if e.attached {
		return nil
	}
	if e.opts.MaxFanout <= 1 || e.opts.Buffer == nil {
		return fmt.Errorf("cts: invalid options")
	}
	var roots []*netlist.Net
	e.d.Nets(func(n *netlist.Net) {
		if n.IsClock && len(n.Sinks) > 0 && e.ownNet[n.ID] == nil {
			roots = append(roots, n)
		}
	})
	var err error
	e.d.WithEditClass(netlist.EditClassCTS, func() {
		for _, root := range roots {
			var dom *domain
			if dom, err = e.attachDomain(root); err != nil {
				return
			}
			e.domains = append(e.domains, dom)
			e.rootOf[root.ID] = dom
		}
		e.relegalize()
	})
	if err != nil {
		e.teardown()
		return err
	}
	e.attached = true
	e.canonical = true
	e.snapshotForeign()
	e.cursor = e.d.Epoch()
	e.stats.Attaches++
	e.stats.LastKind = UpdateAttach
	return nil
}

// snapshotForeign counts the clock buffers and register clock sinks outside
// every retained domain. Runs once per Attach (which already walks the
// design); Metrics adds these constants to its per-domain fold.
func (e *Engine) snapshotForeign() {
	e.foreignBufs, e.foreignSinks = 0, 0
	e.d.Insts(func(in *netlist.Inst) {
		switch in.Kind {
		case netlist.KindClockBuf:
			if !e.ownBuf[in.ID] {
				e.foreignBufs++
			}
		case netlist.KindReg:
			cp := e.d.ClockPin(in)
			if cp == nil || cp.Net == netlist.NoID {
				return
			}
			if e.ownNet[cp.Net] == nil {
				if _, isRoot := e.rootOf[cp.Net]; !isRoot {
					e.foreignSinks++
				}
			}
		}
	})
}

func (e *Engine) attachDomain(root *netlist.Net) (*domain, error) {
	dom := &domain{root: root}
	sinks := collectSinks(e.d, root)
	if len(sinks) == 0 {
		return dom, nil
	}
	p, err := e.plan(sinks)
	if err != nil {
		return nil, err
	}
	dom.plan, dom.planIn = p, sinks
	t0 := time.Now()
	defer e.noteRepair(t0)
	for _, s := range sinks {
		e.d.Disconnect(s.pin)
	}
	nodes, err := realizeFresh(e.d, root, p, e.opts, buildNamer(root))
	if err != nil {
		return nil, err
	}
	dom.levels = nodes
	for _, lvl := range nodes {
		for _, nd := range lvl {
			e.ownBuf[nd.buf.ID] = true
			e.ownNet[nd.net.ID] = dom
		}
	}
	top := nodes[len(nodes)-1][0]
	e.d.Connect(inPin(e.d, top.buf), root)
	return dom, nil
}

// Update brings the retained trees in sync with the design. It returns
// having left the design exactly as tearing every tree down and rebuilding
// it from scratch would have, but only touches what changed.
func (e *Engine) Update() error {
	if !e.attached {
		err := e.Attach()
		e.stats.Updates++
		return err
	}
	e.stats.Updates++
	if e.d.Epoch() == e.cursor {
		e.resetLast()
		e.stats.Cleans++
		e.stats.LastKind = UpdateClean
		return nil
	}
	e.resetLast()
	var complete bool
	if e.flowT, complete = e.d.TouchedSinceClass(e.cursor, netlist.EditClassFlow, e.flowT[:0]); !complete {
		return e.rebuild("reset")
	}
	// The CTS-class read at the same cursor is complete too.
	e.ctsT, _ = e.d.TouchedSinceClass(e.cursor, netlist.EditClassCTS, e.ctsT[:0])
	if e.rootSetChanged(e.flowT, e.ctsT) {
		return e.rebuild("clock-roots-changed")
	}
	var err error
	e.d.WithEditClass(netlist.EditClassCTS, func() {
		for _, dom := range e.domains {
			if err = e.updateDomain(dom); err != nil {
				return
			}
		}
		if err == nil {
			e.relegalize()
		}
	})
	if err != nil {
		return e.rebuild(fmt.Sprintf("update-error: %v", err))
	}
	e.cursor = e.d.Epoch()
	e.canonical = false
	e.stats.Deltas++
	e.stats.LastKind = UpdateDelta
	return nil
}

// Canonicalize brings the trees in sync like Update, but leaves the
// realized buffers and nets on freshly issued IDs in canonical creation
// order — the exact state a batch per-root Build of the current design
// would produce, IDs included. Delta repairs leave reused nets holding
// different clusters than their creation order suggests; consumers that
// fold floats over nets in ID order (clock capacitance totals, routing
// demand) would see a permuted — hence ulp-different — sum. Measurement
// points that must be byte-comparable against a batch build pay for a
// rebuild here; in-loop updates use the cheap Update.
//
// When the engine is freshly attached/rebuilt and nothing changed since,
// the state is already canonical and this is a no-op.
func (e *Engine) Canonicalize() error {
	if !e.attached {
		err := e.Attach()
		e.stats.Updates++
		return err
	}
	e.stats.Updates++
	e.resetLast()
	if e.canonical && e.d.Epoch() == e.cursor {
		e.stats.Cleans++
		e.stats.LastKind = UpdateClean
		return nil
	}
	return e.rebuild("canonicalize")
}

// resetLast clears the per-update counters before a new outcome is
// recorded.
func (e *Engine) resetLast() {
	e.stats.LastReclusteredLeaves = 0
	e.stats.LastRepairedAncestors = 0
	e.stats.LastReusedClusters = 0
	e.stats.LastHeldCentroids = 0
	e.stats.LastBuffersAdded = 0
	e.stats.LastBuffersRemoved = 0
	e.stats.LastFallbackReason = ""
	e.stats.LastPlanNS = 0
	e.stats.LastRepairNS = 0
	e.stats.LastLegalizeNS = 0
	e.stats.LastDomainsReplanned = 0
	e.stats.LastSinksReplanned = 0
	e.stats.LastRootSetNetsWalked = 0
}

// plan computes the clustering plan of one domain's sorted sink list,
// accounting its time and work.
func (e *Engine) plan(sinks []planSink) (*treePlan, error) {
	t0 := time.Now()
	p, err := planTree(sinks, e.opts, e.workers)
	e.notePlan(t0)
	e.stats.LastDomainsReplanned++
	e.stats.DomainsReplanned++
	e.stats.LastSinksReplanned += len(sinks)
	e.stats.SinksReplanned += len(sinks)
	return p, err
}

// notePlan/noteRepair/noteLegalize accumulate per-phase wall time into the
// last-update and lifetime counters.
func (e *Engine) notePlan(t0 time.Time) {
	ns := time.Since(t0).Nanoseconds()
	e.stats.LastPlanNS += ns
	e.stats.PlanNS += ns
}

func (e *Engine) noteRepair(t0 time.Time) {
	ns := time.Since(t0).Nanoseconds()
	e.stats.LastRepairNS += ns
	e.stats.RepairNS += ns
}

func (e *Engine) noteLegalize(t0 time.Time) {
	ns := time.Since(t0).Nanoseconds()
	e.stats.LastLegalizeNS += ns
	e.stats.LegalizeNS += ns
}

// ReleaseClocks moves the clock pins of the given registers from their
// current tree leaf nets up to the domain root. Callers that require a set
// of registers to agree on their literal clock net (register merging
// checks control-net equality) call this first; the next Update re-parents
// the survivors under leaf buffers again.
func (e *Engine) ReleaseClocks(regs []*netlist.Inst) {
	if !e.attached {
		return
	}
	e.d.WithEditClass(netlist.EditClassCTS, func() {
		for _, in := range regs {
			cp := e.d.ClockPin(in)
			if cp == nil || cp.Net == netlist.NoID {
				continue
			}
			dom := e.ownNet[cp.Net]
			if dom == nil {
				continue
			}
			e.d.Connect(cp, dom.root)
		}
	})
}

// rootSetChanged reports whether a clock net outside the retained domains
// has acquired real sinks — a new domain the delta path cannot grow.
// After every Attach and Update no such net has one, so a net can only
// acquire one through a connection made since, which the flow- and
// CTS-class touched records name: only the touched instances' nets are
// checked.
func (e *Engine) rootSetChanged(flowT, ctsT []netlist.InstID) bool {
	for _, ids := range [2][]netlist.InstID{flowT, ctsT} {
		for _, id := range ids {
			in := e.d.Inst(id)
			if in == nil {
				continue // a removed instance's pins left their nets
			}
			for _, pid := range in.Pins {
				n := e.d.Net(e.d.Pin(pid).Net)
				if n == nil || !n.IsClock || e.ownNet[n.ID] != nil || e.rootOf[n.ID] != nil {
					continue
				}
				e.stats.LastRootSetNetsWalked++
				e.stats.RootSetNetsWalked++
				if e.foreignClockWithSinks(n) {
					return true
				}
			}
		}
	}
	return false
}

// foreignClockWithSinks reports whether n is a clock net outside every
// retained domain with a sink that is not an engine buffer.
func (e *Engine) foreignClockWithSinks(n *netlist.Net) bool {
	if !n.IsClock || e.ownNet[n.ID] != nil || e.rootOf[n.ID] != nil {
		return false
	}
	for _, pid := range n.Sinks {
		if !e.ownBuf[e.d.Pin(pid).Inst] {
			return true
		}
	}
	return false
}

func (e *Engine) rebuild(reason string) error {
	e.teardown()
	err := e.Attach()
	e.stats.Rebuilds++
	e.stats.LastKind = UpdateRebuild
	e.stats.LastFallbackReason = reason
	return err
}

// teardown dismantles every retained tree (restoring sinks to their domain
// roots) and resets the engine to the detached state.
func (e *Engine) teardown() {
	e.d.WithEditClass(netlist.EditClassCTS, func() {
		for _, dom := range e.domains {
			for _, lvl := range dom.levels {
				for _, nd := range lvl {
					sinks := append([]netlist.PinID(nil), nd.net.Sinks...)
					for _, pid := range sinks {
						if p := e.d.Pin(pid); !e.ownBuf[p.Inst] {
							e.d.Connect(p, dom.root)
						}
					}
				}
			}
			var nodes []*node
			for _, lvl := range dom.levels {
				nodes = append(nodes, lvl...)
			}
			e.removeNodes(nodes)
		}
	})
	e.domains = nil
	e.rootOf = map[netlist.NetID]*domain{}
	e.ownNet = map[netlist.NetID]*domain{}
	e.ownBuf = map[netlist.InstID]bool{}
	e.attached = false
}

// removeNodes deletes the nodes' buffers and nets. Any sinks still on the
// nets (in-pins of other removed buffers, an orphaned top in-pin) are
// disconnected first.
func (e *Engine) removeNodes(nodes []*node) {
	for _, nd := range nodes {
		e.d.RemoveInst(nd.buf)
		delete(e.ownBuf, nd.buf.ID)
	}
	for _, nd := range nodes {
		for len(nd.net.Sinks) > 0 {
			e.d.Disconnect(e.d.Pin(nd.net.Sinks[len(nd.net.Sinks)-1]))
		}
		if nd.net.Driver != netlist.NoID {
			e.d.Disconnect(e.d.Pin(nd.net.Driver))
		}
		if err := e.d.RemoveNet(nd.net); err != nil {
			panic(err) // internal invariant: net drained above
		}
		delete(e.ownNet, nd.net.ID)
	}
}

// relegalize re-runs the incremental legalizer over all tree buffers in
// canonical order — the same single global pass a fresh build performs —
// against a retained occupancy. The occupancy is kept in sync from the
// flow-class edit record (the engine's own CTS-class edits never touch
// it; buffers are not obstacles), so each pass costs the edits plus the
// buffer count rather than a scan of the whole design. The occupancy is
// built from scratch only at first use and for a cursor older than the
// last netlist.ResetTouchedLog; either way the content — and hence every
// placement — is identical to what place.LegalizeIncremental computes
// fresh.
func (e *Engine) relegalize() {
	t0 := time.Now()
	defer e.noteLegalize(t0)
	bufs := e.Buffers()
	if len(bufs) == 0 {
		return
	}
	if e.leg != nil {
		var complete bool
		if e.legT, complete = e.d.TouchedSinceClass(e.legCursor, netlist.EditClassFlow, e.legT[:0]); complete {
			e.leg.Sync(e.legT)
		} else {
			e.leg = nil
		}
	}
	if e.leg == nil {
		e.leg = place.NewLegalizer(e.d)
		e.stats.LegalizerRebuilds++
	}
	e.legCursor = e.d.Epoch()
	e.leg.Legalize(bufs)
}

// sinksKey is a canonical (order-independent) fingerprint of a pin-ID set,
// used to match plan clusters against retained nodes. Empty sets get the
// empty key and are never matched.
func sinksKey(ids []netlist.PinID) string {
	if len(ids) == 0 {
		return ""
	}
	s := slices.Clone(ids)
	slices.Sort(s)
	b := make([]byte, 0, len(s)*6)
	for _, id := range s {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
	}
	return string(b)
}

// updateDomain repairs one domain's tree to equal a fresh Build of its
// current sink set.
func (e *Engine) updateDomain(dom *domain) error {
	d := e.d
	// 1. Collect the current real sinks: non-engine pins on the root or on
	// any tree net (new sinks land on the root via ReleaseClocks/merging,
	// or on a leaf net via register splitting), in canonical order.
	ids := e.idBuf[:0]
	collect := func(n *netlist.Net) {
		for _, pid := range n.Sinks {
			if !e.ownBuf[d.Pin(pid).Inst] {
				ids = append(ids, pid)
			}
		}
	}
	collect(dom.root)
	for _, lvl := range dom.levels {
		for _, nd := range lvl {
			collect(nd.net)
		}
	}
	slices.Sort(ids)
	e.idBuf = ids

	var retained []*node
	for _, lvl := range dom.levels {
		retained = append(retained, lvl...)
	}
	if len(ids) == 0 {
		// Domain went sink-less: a fresh build would build nothing.
		e.removeNodes(retained)
		e.stats.LastBuffersRemoved += len(retained)
		e.stats.BuffersRemoved += len(retained)
		dom.levels, dom.plan, dom.planIn = nil, nil, nil
		return nil
	}
	p, reused := dom.plan, e.samePlanInput(dom, ids)
	if !reused {
		sinks := make([]planSink, len(ids))
		for i, pid := range ids {
			p := d.Pin(pid)
			sinks[i] = planSink{pin: p, child: -1, pos: d.PinPos(p), cap: p.Cap, ord: int64(pid)}
		}
		var err error
		if p, err = e.plan(sinks); err != nil {
			return err
		}
		dom.plan, dom.planIn = p, sinks
	}
	t0 := time.Now()
	defer e.noteRepair(t0)

	// 2. Match plan clusters to retained nodes. With the plan reused and
	// every retained net still holding exactly its members, the match is
	// the retained levels themselves: member sets are disjoint, so each
	// cluster's key finds the node realized for it last time, and each
	// node's members are the cluster's desired pins.
	intact := reused && membersIntact(retained)
	assigned, used := dom.levels, map[*node]bool(nil)
	if !intact {
		var err error
		if assigned, used, err = e.matchNodes(dom, p, retained); err != nil {
			return err
		}
	}

	// 3. Rewire bottom-up: every buffer back to its plan centroid, every
	// net's sink list to exact plan member order. Clusters already in the
	// desired state are left untouched. Under RecenterThresholdDBU
	// hysteresis, a buffer whose fresh plan centroid has drifted no further
	// than the threshold from the centroid it was last planted at stays
	// put — even across a membership rewire, because moving the buffer
	// would change its parent net's geometry and ripple clock arrivals
	// through every sibling subtree. The retained centroid is kept while
	// holding, so drift accumulates across updates and a slow creep still
	// re-centers once the total crosses the threshold.
	for l := range p.levels {
		for ci := range p.levels[l] {
			cl := &p.levels[l][ci]
			nd := assigned[l][ci]
			want := nd.memberPins
			if !intact {
				want = desiredPins(d, p, assigned, l, ci)
			}
			same := slices.Equal(nd.net.Sinks, want)
			held := e.opts.RecenterThresholdDBU > 0 &&
				nd.centroid.ManhattanDist(cl.centroid) <= e.opts.RecenterThresholdDBU
			if !held {
				if nd.buf.Pos != cl.centroid {
					d.MoveInst(nd.buf, cl.centroid)
				}
				nd.centroid = cl.centroid
			}
			switch {
			case !same:
				for len(nd.net.Sinks) > 0 {
					d.Disconnect(d.Pin(nd.net.Sinks[len(nd.net.Sinks)-1]))
				}
				for _, pid := range want {
					d.Connect(d.Pin(pid), nd.net)
				}
				if l == 0 {
					e.stats.LastReclusteredLeaves++
					e.stats.ReclusteredLeaves++
				} else {
					e.stats.LastRepairedAncestors++
					e.stats.RepairedAncestors++
				}
			case held:
				e.stats.LastHeldCentroids++
				e.stats.HeldCentroids++
			default:
				e.stats.LastReusedClusters++
				e.stats.ReusedClusters++
			}
			nd.memberPins = want
		}
	}

	// 4. Remove retained nodes the plan no longer needs. Their real sinks
	// were all claimed above; only in-pins of fellow doomed buffers (and
	// possibly the new top's in-pin) remain on their nets.
	if used != nil {
		var doomed []*node
		for _, nd := range retained {
			if !used[nd] {
				doomed = append(doomed, nd)
			}
		}
		if len(doomed) > 0 {
			e.removeNodes(doomed)
			e.stats.LastBuffersRemoved += len(doomed)
			e.stats.BuffersRemoved += len(doomed)
		}
	}

	// 5. The root net's only sink is the top buffer's input.
	top := assigned[len(assigned)-1][0]
	if tp := inPin(d, top.buf); tp.Net != dom.root.ID {
		d.Connect(tp, dom.root)
	}
	dom.levels = assigned
	return nil
}

// samePlanInput reports whether the domain's retained plan was computed
// from exactly the sorted sink list ids describes now: the same pins, each
// at the same position with the same capacitance.
func (e *Engine) samePlanInput(dom *domain, ids []netlist.PinID) bool {
	if dom.plan == nil || len(ids) != len(dom.planIn) {
		return false
	}
	for i, pid := range ids {
		s := &dom.planIn[i]
		p := e.d.Pin(pid)
		if s.ord != int64(pid) || s.cap != p.Cap || s.pos != e.d.PinPos(p) {
			return false
		}
	}
	return true
}

// membersIntact reports whether every node's net still holds exactly the
// members the last update connected to it.
func membersIntact(nodes []*node) bool {
	for _, nd := range nodes {
		if !slices.Equal(nd.net.Sinks, nd.memberPins) {
			return false
		}
	}
	return true
}

// desiredPins returns cluster (l, ci)'s member pins in plan order: real
// sinks at level 0, the assigned child buffers' in-pins above.
func desiredPins(d *netlist.Design, p *treePlan, assigned [][]*node, l, ci int) []netlist.PinID {
	cl := &p.levels[l][ci]
	out := make([]netlist.PinID, len(cl.members))
	for i, m := range cl.members {
		if m.pin != nil {
			out[i] = m.pin.ID
		} else {
			out[i] = inPin(d, assigned[l-1][m.child].buf).ID
		}
	}
	return out
}

// matchNodes assigns a retained or new node to every plan cluster, by
// current net membership first. Levels are processed bottom-up so an
// internal cluster's member pin IDs (its children's in-pins) are concrete
// by the time it is keyed. Unmatched clusters take the next unclaimed
// retained node, else a freshly created one. used holds every assigned
// node; the retained ones it lacks are no longer needed.
func (e *Engine) matchNodes(dom *domain, p *treePlan, retained []*node) (assigned [][]*node, used map[*node]bool, err error) {
	d := e.d
	byKey := map[string]*node{}
	for _, nd := range retained {
		if k := sinksKey(nd.net.Sinks); k != "" {
			byKey[k] = nd
		}
	}
	used = map[*node]bool{}
	poolIdx := 0
	assigned = make([][]*node, len(p.levels))
	for l := range p.levels {
		assigned[l] = make([]*node, len(p.levels[l]))
		for ci := range p.levels[l] {
			if nd := byKey[sinksKey(desiredPins(d, p, assigned, l, ci))]; nd != nil && !used[nd] {
				assigned[l][ci] = nd
				used[nd] = true
			}
		}
		for ci := range p.levels[l] {
			if assigned[l][ci] != nil {
				continue
			}
			// Reuse the next unclaimed retained node, else create one.
			var nd *node
			for poolIdx < len(retained) {
				cand := retained[poolIdx]
				poolIdx++
				if !used[cand] {
					nd = cand
					break
				}
			}
			if nd == nil {
				name := fmt.Sprintf("%s_ctsbuf_r%d", dom.root.Name, e.serial)
				buf, err := d.AddClockBuf(name, e.opts.Buffer, p.levels[l][ci].centroid)
				if err != nil {
					return nil, nil, err
				}
				net := d.AddNet(fmt.Sprintf("%s_ctsnet_r%d", dom.root.Name, e.serial), true)
				e.serial++
				d.Connect(d.OutPin(buf), net)
				// Seed the retained centroid with the creation placement so
				// hysteresis measures drift from where the buffer actually
				// went down (behavior-neutral when hysteresis is off: the
				// rewire step below re-derives the same value).
				nd = &node{buf: buf, net: net, centroid: p.levels[l][ci].centroid}
				e.ownBuf[buf.ID] = true
				e.ownNet[net.ID] = dom
				e.stats.LastBuffersAdded++
				e.stats.BuffersAdded++
			}
			assigned[l][ci] = nd
			used[nd] = true
		}
	}
	return assigned, used, nil
}
