// Package compatgraph retains the register compatibility graph (§2) across
// composition passes and maintains it by delta instead of rebuild. The
// engine keeps the current node set (live composable registers with their
// cached RegInfo and static signatures) and the adjacency with a per-edge
// test mask. Each Update recomputes the node set from the design and the
// fresh STA results, then removes merged/deleted nodes, inserts new MBR
// nodes, and re-tests only pairs with at least one changed endpoint.
//
// One edge sweep serves every Update. Only registers with equal
// compat.FuncKey can pass the functional test, and only overlapping move
// regions the placement test, so the sweep buckets the nodes by key and
// finds a changed node's candidate partners through a geometric grid over
// its bucket's regions, never by an all-pairs scan. A rebuild (first
// Update, structural overflow, a timing change, or too many changed nodes)
// is the same sweep against an empty graph with every node dirty. The
// dense all-pairs compat.Build is the correctness oracle.
//
// Exactness strategy: the node phase is one linear sweep over every live
// register. It recomputes each register's eligibility, RegInfo (slacks,
// feasible region, clock position) and static signature exactly as Build
// does, and value-compares them against the cache. A node is dirty when
// any of them differs. In the edge phase pairs are re-tested only when an
// endpoint is dirty (every pair in a rebuild), so the maintained graph is
// exactly the graph Build would produce at every step. The flow calls
// Update only at composition sites, under ideal clocks (the paper analyzes
// compatibility before CTS).
package compatgraph

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/compat"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

// Options tunes the engine.
type Options struct {
	// Compat are the edge rules, shared with compat.Build. SlackClamp
	// defaults to the design's clock period, as in Build.
	Compat compat.Options
	// Workers bounds the fan-out of pairwise re-tests (0 = GOMAXPROCS,
	// 1 = sequential). The result is byte-identical at any worker count.
	Workers int
	// MaxDeltaFrac is the changed-node fraction above which an Update is
	// a rebuild (KindDirtyOverflow, default 0.25): it discards the
	// retained edge masks and re-tests every candidate pair instead of
	// only those with a changed endpoint. Both run the same grid sweep;
	// the threshold decides what counts as a rebuild in Stats.
	MaxDeltaFrac float64
}

// UpdateKind names the decision an Update took, for stats and the CLI.
type UpdateKind string

const (
	// KindInitial: first Update after New or Invalidate — rebuild.
	KindInitial UpdateKind = "initial"
	// KindOverflow: the bounded touched-log overflowed (bulk structural
	// churn, e.g. a CTS rebuild) — rebuild.
	KindOverflow UpdateKind = "touched-overflow"
	// KindTimingChanged: the design's TimingSpec changed, invalidating
	// every clamped slack and region — rebuild.
	KindTimingChanged UpdateKind = "timing-changed"
	// KindDirtyOverflow: more than MaxDeltaFrac of the nodes changed —
	// rebuild.
	KindDirtyOverflow UpdateKind = "dirty-overflow"
	// KindDelta: neighborhood-limited re-test of changed nodes only.
	KindDelta UpdateKind = "delta"
)

// Stats describes the engine's work; Last* fields cover the latest Update.
type Stats struct {
	Updates  int
	Rebuilds int // sweeps from an empty graph (any non-delta kind)
	Deltas   int
	// TouchedOverflows counts the rebuilds forced by an overflowed
	// touched ring (KindOverflow) — the failure mode edit-class scoping
	// exists to prevent; bulk edits in other classes (clock-tree
	// maintenance) must never show up here.
	TouchedOverflows int

	LastKind          UpdateKind
	LastNodes         int
	LastEdges         int
	LastNodesAdded    int
	LastNodesRemoved  int
	LastNodesDirty    int // changed nodes re-tested by the last delta
	LastPairsTested   int // pair tests evaluated by the last Update
	LastEdgesRetested int // previously existing edges among them
	// LastRejectsByTest counts pairs rejected by each test (functional,
	// scan, placement, timing) in the last Update's evaluations. Only
	// same-key pairs whose regions share a grid cell are evaluated, so the
	// functional count is always 0.
	LastRejectsByTest [4]int

	// Per-phase wall time, accumulated and for the last Update. Excluded
	// from determinism comparisons (wall time is not reproducible).
	NodePhaseNS, EdgePhaseNS         int64
	LastNodePhaseNS, LastEdgePhaseNS int64
}

// node is the retained per-register state.
type node struct {
	inst *netlist.Inst
	info *compat.RegInfo
	sig  compat.StaticSig
	// nbr maps neighbor instance → the mask of tests evaluated when the
	// edge was last confirmed (TestAll when fully tested; the static bits
	// are carried from cache when only dynamics were re-run).
	nbr map[netlist.InstID]compat.TestMask
}

// Engine is the retained incremental compatibility graph. Not safe for
// concurrent use; an Update must not run while the design is being edited.
type Engine struct {
	d    *netlist.Design
	plan *scan.Plan
	opts Options

	valid      bool
	cursor     uint64
	timingSnap netlist.TimingSpec
	allowCross bool

	nodes    map[netlist.InstID]*node
	excluded map[netlist.InstID]compat.NotComposableReason

	graph *compat.Graph // last materialized graph
	// order is the node set in ascending instance-ID order (the Build
	// order); infos is aligned with it and ordOf is its inverse.
	order []netlist.InstID
	infos []*compat.RegInfo
	ordOf map[netlist.InstID]int
	stats Stats
}

// New creates an engine over a design and scan plan (plan may be nil). The
// first Update is a rebuild.
func New(d *netlist.Design, plan *scan.Plan, opts Options) *Engine {
	if opts.MaxDeltaFrac <= 0 {
		opts.MaxDeltaFrac = 0.25
	}
	return &Engine{d: d, plan: plan, opts: opts}
}

// Invalidate forces the next Update to be a rebuild.
func (e *Engine) Invalidate() { e.valid = false }

// SetTimingFeed is a no-op: the node phase is one linear sweep that needs
// no dirty-register feed. It stays until benchmark/measure.go stops
// calling it.
func (e *Engine) SetTimingFeed(*sta.Engine) {}

// SetWorkers bounds the fan-out of pairwise re-tests (engine.Retained
// convention: results identical for any value, 1 forces sequential).
func (e *Engine) SetWorkers(n int) { e.opts.Workers = n }

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// Summary reports the unified retained-engine counters (engine.Retained).
func (e *Engine) Summary() engine.Summary {
	return engine.Summary{
		Updates:  e.stats.Updates,
		Deltas:   e.stats.Deltas,
		Rebuilds: e.stats.Rebuilds,
		LastKind: string(e.stats.LastKind),
	}
}

var _ engine.Retained = (*Engine)(nil)

// Graph returns the graph materialized by the last Update (nil before the
// first one).
func (e *Engine) Graph() *compat.Graph { return e.graph }

func (e *Engine) workers() int {
	w := e.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

func (e *Engine) compatOpts() compat.Options {
	o := e.opts.Compat
	if o.SlackClamp == 0 {
		o.SlackClamp = e.d.Timing.ClockPeriod
	}
	return o
}

// nodeState is the node phase's product: the current node set with its
// data, diffed against the retained cache.
type nodeState struct {
	order []netlist.InstID
	infos []*compat.RegInfo
	sigs  []compat.StaticSig

	isDirty, sDirty []bool
	dirtyOrd        []int
	added           int
	removedIDs      []netlist.InstID

	excluded map[netlist.InstID]compat.NotComposableReason
}

// Update brings the retained graph up to date with the design and the given
// fresh STA results, and materializes it. The returned graph is exactly the
// graph compat.Build would produce on the same inputs, independent of the
// worker count and of whether the update was a delta or a rebuild.
func (e *Engine) Update(res *sta.Results) *compat.Graph {
	d := e.d
	opts := e.compatOpts()
	allowCross := e.plan == nil || e.plan.AllowCrossChain

	_, complete := d.TouchedSince(e.cursor)
	kind := KindDelta
	switch {
	case !e.valid:
		kind = KindInitial
	case !complete:
		kind = KindOverflow
	case d.Timing != e.timingSnap || allowCross != e.allowCross:
		kind = KindTimingChanged
	}

	nodeStart := time.Now()
	ns := e.nodePhase(res, opts)
	nodeNS := time.Since(nodeStart).Nanoseconds()

	removed := len(ns.removedIDs)
	if kind == KindDelta &&
		float64(len(ns.dirtyOrd)+removed) > e.opts.MaxDeltaFrac*float64(len(ns.order)) {
		kind = KindDirtyOverflow
	}

	st := &e.stats
	st.Updates++
	st.LastKind = kind
	if kind == KindOverflow {
		st.TouchedOverflows++
	}
	st.LastNodesAdded = ns.added
	st.LastNodesRemoved = removed
	st.LastNodesDirty = len(ns.dirtyOrd)
	st.LastPairsTested = 0
	st.LastEdgesRetested = 0
	st.LastRejectsByTest = [4]int{}

	edgeStart := time.Now()
	if kind == KindDelta {
		st.Deltas++
	} else {
		// A rebuild is the same sweep against an empty retained graph with
		// every node dirty.
		st.Rebuilds++
		e.nodes = make(map[netlist.InstID]*node, len(ns.order))
		ns.markAllDirty()
	}
	e.sweep(opts, allowCross, &ns)
	edgeNS := time.Since(edgeStart).Nanoseconds()

	e.excluded = ns.excluded
	e.setOrder(ns.order, ns.infos)
	e.valid = true
	e.cursor = d.Epoch()
	e.timingSnap = d.Timing
	e.allowCross = allowCross
	e.graph = e.materialize(opts)
	st.LastNodes = len(ns.order)
	st.LastEdges = e.graph.NumEdges()
	st.LastNodePhaseNS, st.LastEdgePhaseNS = nodeNS, edgeNS
	st.NodePhaseNS += nodeNS
	st.EdgePhaseNS += edgeNS
	return e.graph
}

// setOrder installs the node ordering and its aligned infos, rebuilding
// the ordinal index only when the ordering actually changed.
func (e *Engine) setOrder(order []netlist.InstID, infos []*compat.RegInfo) {
	same := e.ordOf != nil && len(order) == len(e.order)
	if same {
		for i, id := range order {
			if e.order[i] != id {
				same = false
				break
			}
		}
	}
	e.order, e.infos = order, infos
	if same {
		return
	}
	e.ordOf = make(map[netlist.InstID]int, len(order))
	for i, id := range order {
		e.ordOf[id] = i
	}
}

// nodePhase recomputes every live register's eligibility, info and
// signature and diffs them against the retained cache.
func (e *Engine) nodePhase(res *sta.Results, opts compat.Options) nodeState {
	d := e.d
	regs := d.Registers()
	ns := nodeState{
		order:    make([]netlist.InstID, 0, len(regs)),
		infos:    make([]*compat.RegInfo, 0, len(regs)),
		sigs:     make([]compat.StaticSig, 0, len(regs)),
		excluded: make(map[netlist.InstID]compat.NotComposableReason),
	}
	for _, in := range regs {
		if reason, bad := compat.Exclusion(d, in); bad {
			ns.excluded[in.ID] = reason
			continue
		}
		ns.order = append(ns.order, in.ID)
		ns.infos = append(ns.infos, compat.NewRegInfo(d, res, in, opts))
		ns.sigs = append(ns.sigs, compat.SigOf(d, e.plan, in))
	}

	ns.isDirty = make([]bool, len(ns.order))
	ns.sDirty = make([]bool, len(ns.order))
	seen := make(map[netlist.InstID]bool, len(ns.order))
	for i, id := range ns.order {
		seen[id] = true
		old, ok := e.nodes[id]
		if ok && old.sig == ns.sigs[i] && *old.info == *ns.infos[i] {
			continue // clean: every test input unchanged
		}
		if !ok {
			ns.added++
		}
		ns.isDirty[i] = true
		ns.sDirty[i] = !ok || old.sig != ns.sigs[i]
		ns.dirtyOrd = append(ns.dirtyOrd, i)
	}
	for id := range e.nodes {
		if !seen[id] {
			ns.removedIDs = append(ns.removedIDs, id)
		}
	}
	return ns
}

// markAllDirty turns the node state into a rebuild's: every node dirty
// with a changed signature, so each pair is tested in full exactly once.
func (ns *nodeState) markAllDirty() {
	n := len(ns.order)
	ns.dirtyOrd = make([]int, n)
	for i := range ns.dirtyOrd {
		ns.dirtyOrd[i] = i
		ns.isDirty[i] = true
		ns.sDirty[i] = true
	}
}

// sweepResult is one worker's verdicts for one dirty node's candidates.
type sweepResult struct {
	nbr      []int32 // ordinals of the confirmed partners
	mask     []compat.TestMask
	pairs    int // candidates tested
	retested int // candidates that were confirmed edges before
	rejects  [4]int
}

// sweep re-tests every pair with a dirty endpoint and patches the retained
// adjacency. A dirty node's candidate partners are the nodes sharing its
// compat.FuncKey — the only ones the functional test can pass — whose move
// regions fall in the grid cells its own region covers, so only same-key,
// nearby pairs are ever tested.
func (e *Engine) sweep(opts compat.Options, allowCross bool, ns *nodeState) {
	order, infos, sigs := ns.order, ns.infos, ns.sigs
	isDirty, sDirty, dirtyOrd := ns.isDirty, ns.sDirty, ns.dirtyOrd
	if len(dirtyOrd) == 0 && len(ns.removedIDs) == 0 {
		return // nothing changed: the retained adjacency is already exact
	}

	// Bucket the nodes by functional key and index the regions of every
	// bucket that holds a dirty node; clean buckets are never queried.
	n := len(order)
	bucketOf := make([]int32, n)
	keys := make(map[compat.FuncKey]int32)
	for i := range sigs {
		b, ok := keys[sigs[i].FuncKey]
		if !ok {
			b = int32(len(keys))
			keys[sigs[i].FuncKey] = b
		}
		bucketOf[i] = b
	}
	members := make([][]int32, len(keys))
	queried := make([]bool, len(keys))
	for _, i := range dirtyOrd {
		queried[bucketOf[i]] = true
	}
	for i, b := range bucketOf {
		if queried[b] {
			members[b] = append(members[b], int32(i))
		}
	}
	grids := make([]*geom.Grid, len(keys))
	for b, m := range members {
		if queried[b] {
			grids[b] = e.bucketGrid(m, infos)
		}
	}

	// Compute phase (read-only on the retained maps): each dirty node
	// gathers its candidates and tests the pairs it owns — (dirty, clean)
	// always, (dirty, dirty) only from the lower ordinal.
	results := make([]sweepResult, len(dirtyOrd))
	workers := min(e.workers(), len(dirtyOrd))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stamp := make([]int32, n)
			for k := range stamp {
				stamp[k] = -1
			}
			// Stride over the dirty nodes: in a rebuild, lower ordinals own
			// more pairs, and striding balances them.
			for di := w; di < len(dirtyOrd); di += workers {
				i := dirtyOrd[di]
				r := &results[di]
				oldA := e.nodes[order[i]]
				grids[bucketOf[i]].QueryRect(infos[i].Region, func(j int32) {
					if int(j) == i || stamp[j] == int32(di) {
						return
					}
					stamp[j] = int32(di)
					if isDirty[j] && int(j) < i {
						return // owned by the lower dirty ordinal
					}
					var hadEdge bool
					if oldA != nil {
						_, hadEdge = oldA.nbr[order[j]]
					}
					var mask compat.TestMask
					var ok bool
					if hadEdge && !sDirty[i] && !sDirty[j] {
						// Statics passed when the edge was confirmed and
						// neither signature changed: re-run dynamics only.
						mask, ok = compat.PairTestDynamic(opts, infos[i], infos[j])
						mask |= compat.TestStatic
					} else {
						mask, ok = compat.PairTest(opts, infos[i], infos[j], sigs[i], sigs[j], allowCross)
					}
					r.pairs++
					if hadEdge {
						r.retested++
					}
					if !ok {
						r.rejects[firstFailing(mask)]++
						return
					}
					r.nbr = append(r.nbr, j)
					r.mask = append(r.mask, mask)
				})
			}
		}(w)
	}
	wg.Wait()

	// Merge phase (sequential): drop edges of removed and dirty nodes,
	// refresh the dirty payloads (clean nodes already hold value-identical
	// data), then add the confirmed pairs.
	for _, id := range ns.removedIDs {
		nd, ok := e.nodes[id]
		if !ok {
			continue
		}
		for v := range nd.nbr {
			delete(e.nodes[v].nbr, id)
		}
		delete(e.nodes, id)
	}
	for _, i := range dirtyOrd {
		id := order[i]
		if nd, ok := e.nodes[id]; ok {
			for v := range nd.nbr {
				delete(e.nodes[v].nbr, id)
			}
			nd.nbr = map[netlist.InstID]compat.TestMask{}
		} else {
			e.nodes[id] = &node{nbr: map[netlist.InstID]compat.TestMask{}}
		}
		nd := e.nodes[id]
		nd.inst = infos[i].Inst
		nd.info = infos[i]
		nd.sig = sigs[i]
	}
	st := &e.stats
	for di, r := range results {
		i := dirtyOrd[di]
		a := e.nodes[order[i]]
		st.LastPairsTested += r.pairs
		st.LastEdgesRetested += r.retested
		for t, c := range r.rejects {
			st.LastRejectsByTest[t] += c
		}
		for k, j := range r.nbr {
			b := e.nodes[order[j]]
			a.nbr[order[j]] = r.mask[k]
			b.nbr[order[i]] = r.mask[k]
		}
	}
}

// bucketGrid indexes the move regions of one bucket's members over the
// core. Cell size tracks the bucket's average region: a finer grid would
// file every slack-generous region into hundreds of cells and make queries
// visit them all, degrading far below a plain scan of the bucket. With
// near-core-sized regions the dims collapse to 1x1, which IS that scan.
func (e *Engine) bucketGrid(members []int32, infos []*compat.RegInfo) *geom.Grid {
	var sumW, sumH int64
	for _, i := range members {
		sumW += infos[i].Region.W()
		sumH += infos[i].Region.H()
	}
	n := len(members)
	dimCap := min(int(math.Ceil(math.Sqrt(float64(n)))), 64)
	core := e.d.Core
	grid := geom.NewGrid(core,
		boundedDim(core.W(), sumW, n, dimCap),
		boundedDim(core.H(), sumH, n, dimCap))
	for _, i := range members {
		grid.InsertRect(i, infos[i].Region)
	}
	return grid
}

// materialize produces the compat.Graph view: nodes in ascending instance-ID
// order (the Build order) with CSR-backed, ascending-sorted adjacency rows.
func (e *Engine) materialize(opts compat.Options) *compat.Graph {
	n := len(e.order)
	ordOf := e.ordOf
	regs := make([]*compat.RegInfo, n)
	copy(regs, e.infos)
	total := 0
	for _, id := range e.order {
		total += len(e.nodes[id].nbr)
	}
	backing := make([]int, 0, total)
	adj := make([][]int, n)
	for i, id := range e.order {
		nd := e.nodes[id]
		start := len(backing)
		for v := range nd.nbr {
			backing = append(backing, ordOf[v])
		}
		row := backing[start:len(backing):len(backing)]
		sort.Ints(row)
		adj[i] = row
	}
	exc := make(map[netlist.InstID]compat.NotComposableReason, len(e.excluded))
	for id, why := range e.excluded {
		exc[id] = why
	}
	return compat.FromParts(e.d, e.plan, opts, regs, adj, exc)
}

// firstFailing returns the index, in evaluation order (functional, scan,
// placement, timing), of the first test a rejected pair did not pass.
func firstFailing(passed compat.TestMask) int {
	return bits.TrailingZeros8(uint8(^passed))
}

// boundedDim picks a grid dimension whose cell size is no smaller than the
// average region extent along that axis, capped at dimCap: regions then
// cover O(1) cells each, keeping insert and query linear in n.
func boundedDim(core, sumExtent int64, n, dimCap int) int {
	if n == 0 || core <= 0 {
		return 1
	}
	avg := sumExtent / int64(n)
	if avg <= 0 {
		return dimCap
	}
	dim := int(core / avg)
	if dim < 1 {
		dim = 1
	}
	if dim > dimCap {
		dim = dimCap
	}
	return dim
}
