// Package compatgraph builds the register compatibility graph (§2) at each
// composition site. Every Update is one sweep from scratch: a node phase
// that recomputes each live register's eligibility, RegInfo (slacks,
// feasible region, clock position) and static signature exactly as
// compat.Build does, then an edge phase that tests each candidate pair
// once. The engine keeps nothing from one Update to the next but the
// returned graph and its counters.
//
// The edge phase never scans all pairs. Only registers with equal
// compat.FuncKey can pass the functional test, and only overlapping move
// regions the placement test, so the sweep buckets the nodes by key and
// finds each node's candidate partners through a geometric grid over its
// bucket's regions. A pair is tested by its lower ordinal only, and the
// verdicts are written straight into ascending CSR rows, so the graph is
// exactly the one the dense all-pairs compat.Build (the correctness
// oracle) produces, at any worker count. The flow calls Update only at
// composition sites, under ideal clocks (the paper analyzes compatibility
// before CTS).
package compatgraph

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
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
	// Workers bounds the fan-out of pairwise tests (0 = GOMAXPROCS,
	// 1 = sequential). The result is byte-identical at any worker count.
	Workers int
	// MaxDeltaFrac is ignored: every Update builds the graph from
	// scratch. It stays until benchmark/measure.go stops setting it.
	MaxDeltaFrac float64
}

// Stats describes the engine's work; Last* fields cover the latest Update.
type Stats struct {
	// Updates counts the Update calls; each one is a build from scratch.
	Updates int

	LastNodes       int
	LastEdges       int
	LastPairsTested int // pair tests evaluated by the last Update
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

// Engine builds the compatibility graph of a design at each Update. Not
// safe for concurrent use; an Update must not run while the design is
// being edited.
type Engine struct {
	d     *netlist.Design
	plan  *scan.Plan
	opts  Options
	graph *compat.Graph // built by the last Update
	stats Stats
}

// New creates an engine over a design and scan plan (plan may be nil).
func New(d *netlist.Design, plan *scan.Plan, opts Options) *Engine {
	return &Engine{d: d, plan: plan, opts: opts}
}

// Invalidate is a no-op: the engine retains no state between updates.
func (e *Engine) Invalidate() {}

// SetTimingFeed is a no-op. It stays until benchmark/measure.go stops
// calling it.
func (e *Engine) SetTimingFeed(*sta.Engine) {}

// SetWorkers bounds the fan-out of pairwise tests (engine.Retained
// convention: results identical for any value, 1 forces sequential).
func (e *Engine) SetWorkers(n int) { e.opts.Workers = n }

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// Summary reports the unified engine counters (engine.Retained): every
// Update is a rebuild, of kind "build".
func (e *Engine) Summary() engine.Summary {
	s := engine.Summary{Updates: e.stats.Updates, Rebuilds: e.stats.Updates}
	if s.Updates > 0 {
		s.LastKind = "build"
	}
	return s
}

var _ engine.Retained = (*Engine)(nil)

// Graph returns the graph built by the last Update (nil before the first
// one).
func (e *Engine) Graph() *compat.Graph { return e.graph }

func (e *Engine) workers() int {
	w := e.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// Update builds the compatibility graph of the design under the given
// slacks, which must be up to date with the design (an sta.Engine after
// its RunEndpoints, or a Results snapshot). They are read once, on the
// calling goroutine, in the node phase. The returned graph is exactly the
// graph compat.Build would produce on the same inputs, independent of the
// worker count.
func (e *Engine) Update(slacks sta.SlackSource) *compat.Graph {
	opts := e.opts.Compat
	if opts.SlackClamp == 0 {
		opts.SlackClamp = e.d.Timing.ClockPeriod
	}

	nodeStart := time.Now()
	infos, sigs, excluded := e.nodePhase(slacks, opts)
	nodeNS := time.Since(nodeStart).Nanoseconds()

	edgeStart := time.Now()
	adj := e.sweep(opts, infos, sigs)
	edgeNS := time.Since(edgeStart).Nanoseconds()

	e.graph = compat.FromParts(e.d, e.plan, opts, infos, adj, excluded)
	st := &e.stats
	st.Updates++
	st.LastNodes = len(infos)
	st.LastEdges = e.graph.NumEdges()
	st.LastNodePhaseNS, st.LastEdgePhaseNS = nodeNS, edgeNS
	st.NodePhaseNS += nodeNS
	st.EdgePhaseNS += edgeNS
	return e.graph
}

// nodePhase computes every live register's eligibility, info and
// signature, in ascending instance-ID order (the Build order).
func (e *Engine) nodePhase(slacks sta.SlackSource, opts compat.Options) ([]*compat.RegInfo, []compat.StaticSig, map[netlist.InstID]compat.NotComposableReason) {
	d := e.d
	regs := d.Registers()
	infos := make([]*compat.RegInfo, 0, len(regs))
	sigs := make([]compat.StaticSig, 0, len(regs))
	excluded := make(map[netlist.InstID]compat.NotComposableReason)
	for _, in := range regs {
		if reason, bad := compat.Exclusion(d, in); bad {
			excluded[in.ID] = reason
			continue
		}
		infos = append(infos, compat.NewRegInfo(d, slacks, in, opts))
		sigs = append(sigs, compat.SigOf(d, e.plan, in))
	}
	return infos, sigs, excluded
}

// sweepResult is one node's verdicts over the candidate partners it owns.
type sweepResult struct {
	up      []int32 // higher ordinals confirmed as partners, ascending
	pairs   int     // candidates tested
	rejects [4]int
}

// sweep tests every candidate pair once and returns the adjacency as
// ascending CSR rows. A node's candidate partners are the nodes sharing its
// compat.FuncKey — the only ones the functional test can pass — whose move
// regions fall in the grid cells its own region covers; each pair is
// tested by its lower ordinal.
func (e *Engine) sweep(opts compat.Options, infos []*compat.RegInfo, sigs []compat.StaticSig) [][]int {
	allowCross := e.plan == nil || e.plan.AllowCrossChain
	n := len(infos)
	bucketOf := make([]int32, n)
	keys := make(map[compat.FuncKey]int32)
	var members [][]int32
	for i := range sigs {
		b, ok := keys[sigs[i].FuncKey]
		if !ok {
			b = int32(len(members))
			keys[sigs[i].FuncKey] = b
			members = append(members, nil)
		}
		bucketOf[i] = b
		members[b] = append(members[b], int32(i))
	}
	grids := make([]*geom.Grid, len(members))
	for b, m := range members {
		grids[b] = e.bucketGrid(m, infos)
	}

	results := make([]sweepResult, n)
	workers := min(e.workers(), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stamp := make([]int32, n)
			for k := range stamp {
				stamp[k] = -1
			}
			// Stride over the nodes: lower ordinals own more pairs, and
			// striding balances them.
			for i := w; i < n; i += workers {
				r := &results[i]
				grids[bucketOf[i]].QueryRect(infos[i].Region, func(j int32) {
					if int(j) <= i || stamp[j] == int32(i) {
						return // owned by the lower ordinal, or already tested
					}
					stamp[j] = int32(i)
					r.pairs++
					mask, ok := compat.PairTest(opts, infos[i], infos[j], sigs[i], sigs[j], allowCross)
					if !ok {
						r.rejects[firstFailing(mask)]++
						return
					}
					r.up = append(r.up, j)
				})
				slices.Sort(r.up)
			}
		}(w)
	}
	wg.Wait()

	// Row i holds its lower partners (written while their owners were
	// visited, in ascending order) followed by its own ascending up list.
	st := &e.stats
	st.LastPairsTested = 0
	st.LastRejectsByTest = [4]int{}
	deg := make([]int, n)
	total := 0
	for i, r := range results {
		st.LastPairsTested += r.pairs
		for t, c := range r.rejects {
			st.LastRejectsByTest[t] += c
		}
		deg[i] += len(r.up)
		for _, j := range r.up {
			deg[j]++
		}
		total += 2 * len(r.up)
	}
	backing := make([]int, total)
	adj := make([][]int, n)
	off := 0
	for i := range adj {
		adj[i] = backing[off : off : off+deg[i]]
		off += deg[i]
	}
	for i, r := range results {
		for _, j := range r.up {
			adj[i] = append(adj[i], int(j))
			adj[j] = append(adj[j], i)
		}
	}
	return adj
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
