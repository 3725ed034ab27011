package core

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/compat"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/scan"
)

// Engine is the retained compose engine: across repeated composition passes
// over an evolving design it memoizes per-subgraph solve results keyed by a
// full signature of everything solveSubgraph reads, so a pass re-solves
// only the subgraphs something actually changed under. The memo follows the
// partition.Cache discipline — exact encoding, not a hash, with entries not
// touched in a round evicted.
//
// The signature covers, per subgraph: the member list in order (instance
// ID, cell name — which pins bits, dimensions, drive and class — position,
// timing-feasible region, and scan chain/partition/order/position under the
// graph's plan), the subgraph-local adjacency, and the blocker environment
// (every register center inside the bounding box of all member footprint
// corners; any candidate's blocker polygon is contained in that box).
// Solve-relevant Options and the plan's AllowCrossChain flag are encoded
// once per round; a change drops the whole memo. The cell library is
// treated as immutable, like every other retained engine treats it.
//
// Because signatures re-encode current state every round, stale entries can
// never replay: correctness needs no invalidation feed. Clean-subgraph
// hints (from the compat engine's partition cache and dirty-node deltas)
// are consumed for accounting only — a hinted-clean subgraph whose
// signature missed is counted as a hint miss, not trusted.
//
// Engine.Compose is byte-identical to Compose at any worker count,
// Result.ILPNodes included: both run composeRound, replays restore the
// stored selection, objective and counts verbatim, and fresh solves run the
// identical pipeline. A round presenting more subgraphs than memoLimit runs
// without the memo and drops the retained state.
type Engine struct {
	d       *netlist.Design
	memo    map[string]*memoEntry
	optsSig string
	workers int
	stats   EngineStats
	sum     engine.Summary
	// ri is the blocker-environment index, retained across rounds and
	// rebuilt only when the design's edit epoch moved — a settled round
	// (multi-pass tail) pays no O(registers) re-index.
	ri      *regIndex
	riEpoch uint64
}

// memoLimit bounds the engine's memo in subgraph entries. A round
// presenting more subgraphs than this runs memo-free (an "overflow"
// round), keeping the memo's memory bounded on huge designs.
var memoLimit = 65536

// memoPick is one selected multi-member candidate in index-independent
// form: member ordinals within the subgraph's node list plus the scored
// fields commitSelected and the Result accounting read.
type memoPick struct {
	ords      []int
	totalBits int
	width     int
	weight    float64
	blockers  int
}

// memoEntry is a replayable subgraph solve: everything the ordered reduce
// consumes, so a hit contributes to the Result exactly like the solve that
// produced it did.
type memoEntry struct {
	picks      []memoPick
	objective  float64
	ilpNodes   int
	candidates int
	truncated  bool
}

// EngineStats are the retained compose engine's cumulative counters.
type EngineStats struct {
	// Rounds counts Compose calls served.
	Rounds int
	// SubgraphsSeen / SubgraphsReused / SubgraphsSolved count subgraphs
	// presented, replayed from the memo, and solved fresh.
	SubgraphsSeen   int
	SubgraphsReused int
	SubgraphsSolved int
	// ILPNodesSaved sums the stored branch & bound node counts of replayed
	// subgraphs — the search work the memo avoided re-spending.
	ILPNodesSaved int
	// HintedClean / HintMisses count subgraphs the caller hinted clean,
	// and those hints contradicted by a signature miss.
	HintedClean int
	HintMisses  int
	// Fallbacks counts overflow rounds: rounds that presented more
	// subgraphs than the memo bound and ran without the memo.
	Fallbacks int
	// SchedShards / SchedSteals accumulate the work-stealing scheduler's
	// counters across rounds: shards scheduled, and shards a worker claimed from another worker's queue. SchedSteals is
	// schedule-dependent diagnostics, not part of any identity oracle.
	SchedShards int
	SchedSteals int
	// Invalidations counts retained-state drops (Invalidate calls and
	// solve-relevant option changes).
	Invalidations int
	// MemoEntries is the live entry count after the last round.
	MemoEntries int
}

// NewEngine returns a retained compose engine bound to the design.
func NewEngine(d *netlist.Design) *Engine {
	return &Engine{d: d}
}

// Invalidate drops the memo; the next Compose re-solves everything
// (engine.Retained contract).
func (e *Engine) Invalidate() {
	e.memo = nil
	e.optsSig = ""
	e.ri = nil
	e.stats.Invalidations++
	e.stats.MemoEntries = 0
}

// regIndex returns the retained blocker index, rebuilding it only when the
// design changed since it was built. Every register add/remove/move goes
// through Design methods that bump the edit epoch, so an equal epoch proves
// the index content-fresh.
func (e *Engine) regIndex() *regIndex {
	if e.ri == nil || e.riEpoch != e.d.Epoch() {
		e.ri = newRegIndex(e.d)
		e.riEpoch = e.d.Epoch()
	}
	return e.ri
}

// SetWorkers bounds the engine's parallelism; rounds whose Options leave
// Workers at 0 inherit it. Results are identical for any value.
func (e *Engine) SetWorkers(n int) { e.workers = n }

// Summary reports the uniform update counters (engine.Retained contract).
func (e *Engine) Summary() engine.Summary { return e.sum }

// Stats reports the engine's cumulative counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Compose runs one composition pass through the retained memo. The
// arguments mirror Compose, plus subgraphs — the decomposition of g, as
// maintained by the compat engine's partition cache (nil means decompose
// here; either way it must equal partition.Decompose's) — and clean, which
// when non-nil carries per-subgraph clean hints aligned with subgraphs (see
// compatgraph.Engine.SubgraphHints) and is used for accounting only.
func (e *Engine) Compose(g *compat.Graph, plan *scan.Plan, subgraphs [][]int, clean []bool, opts Options) (*Result, error) {
	start := time.Now()
	opts = normalizeOptions(opts)
	if err := checkSubgraphBound(opts.MaxSubgraphNodes); err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = e.workers
	}
	if subgraphs == nil {
		subgraphs = partition.Decompose(len(g.Regs), g.Adj,
			func(n int) geom.Point { return g.Regs[n].ClockPos }, opts.MaxSubgraphNodes)
	}
	e.sum.Updates++
	e.stats.Rounds++
	e.stats.SubgraphsSeen += len(subgraphs)

	if os := encodeOptsSig(opts, g.Plan); os != e.optsSig {
		if e.optsSig != "" {
			e.stats.Invalidations++
		}
		e.memo = nil
		e.optsSig = os
	}

	ri := e.regIndex()
	if len(subgraphs) > memoLimit {
		// Overflow round: the memo-free pipeline, with the retained state
		// dropped — bounded memory beats stale warmth.
		e.memo = nil
		e.stats.Fallbacks++
		e.stats.MemoEntries = 0
		e.sum.Rebuilds++
		e.sum.LastKind = "overflow"
		res, _, err := composeRound(e.d, g, plan, ri, subgraphs, opts, nil)
		if err != nil {
			return nil, err
		}
		e.stats.SubgraphsSolved += len(subgraphs)
		e.stats.SchedShards += res.SchedShards
		e.stats.SchedSteals += res.SchedSteals
		res.Runtime = time.Since(start)
		return res, nil
	}

	// Memo lookups, signature encoding included, run inside the shard
	// workers; the memo is only read, never written, until the round ends.
	sigs := make([]string, len(subgraphs))
	hits := make([]*memoEntry, len(subgraphs))
	replay := func(i int) (subgraphResult, bool) {
		sigs[i] = subgraphSig(g, ri, subgraphs[i])
		ent, ok := e.memo[sigs[i]]
		if !ok {
			return subgraphResult{}, false
		}
		hits[i] = ent
		return ent.replay(subgraphs[i]), true
	}
	res, results, err := composeRound(e.d, g, plan, ri, subgraphs, opts, replay)
	if err != nil {
		e.memo = nil
		return nil, err
	}
	e.stats.SchedShards += res.SchedShards
	e.stats.SchedSteals += res.SchedSteals

	// Rotate the memo partition.Cache-style: entries this round did not
	// touch are stale — their subgraph changed or vanished — and are dropped.
	nextMemo := make(map[string]*memoEntry, len(subgraphs))
	reusedCount := 0
	for i, sr := range results {
		hinted := clean != nil && i < len(clean) && clean[i]
		if hinted {
			e.stats.HintedClean++
		}
		ent := hits[i]
		if ent != nil {
			reusedCount++
			e.stats.SubgraphsReused++
			e.stats.ILPNodesSaved += sr.ilpNodes
		} else {
			e.stats.SubgraphsSolved++
			if hinted {
				e.stats.HintMisses++
			}
			ent = entryOf(sr, subgraphs[i])
		}
		nextMemo[sigs[i]] = ent
	}
	e.memo = nextMemo
	e.stats.MemoEntries = len(nextMemo)
	switch {
	case e.sum.Updates == 1:
		e.sum.Rebuilds++
		e.sum.LastKind = "initial"
	case reusedCount > 0 || len(subgraphs) == 0:
		e.sum.Deltas++
		e.sum.LastKind = "memo-delta"
	default:
		e.sum.Rebuilds++
		e.sum.LastKind = "all-fresh"
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// replay reconstructs the subgraph's solve outcome over the current node
// list. Valid only on an exact signature hit, which pins the node list
// (members and order) the ordinals refer to.
func (ent *memoEntry) replay(nodes []int) subgraphResult {
	sr := subgraphResult{
		objective:  ent.objective,
		ilpNodes:   ent.ilpNodes,
		candidates: ent.candidates,
		truncated:  ent.truncated,
	}
	for _, p := range ent.picks {
		c := candidate{
			nodes:     make([]int, len(p.ords)),
			totalBits: p.totalBits,
			width:     p.width,
			weight:    p.weight,
			blockers:  p.blockers,
		}
		for j, o := range p.ords {
			c.nodes[j] = nodes[o]
		}
		sr.picked = append(sr.picked, c)
	}
	return sr
}

// entryOf converts a fresh solve into the index-independent memo form.
func entryOf(sr subgraphResult, nodes []int) *memoEntry {
	ord := make(map[int]int, len(nodes))
	for i, n := range nodes {
		ord[n] = i
	}
	ent := &memoEntry{
		objective:  sr.objective,
		ilpNodes:   sr.ilpNodes,
		candidates: sr.candidates,
		truncated:  sr.truncated,
	}
	for _, c := range sr.picked {
		p := memoPick{
			ords:      make([]int, len(c.nodes)),
			totalBits: c.totalBits,
			width:     c.width,
			weight:    c.weight,
			blockers:  c.blockers,
		}
		for j, n := range c.nodes {
			p.ords[j] = ord[n]
		}
		ent.picks = append(ent.picks, p)
	}
	return ent
}

// encodeOptsSig captures the solve-relevant Options plus the plan's global
// cross-chain flag — everything a subgraph solve reads that the
// per-subgraph signature does not carry. Commit-only fields (NamePrefix,
// ReleaseClocks) and the result-neutral Workers stay out: changing them
// must not drop the memo.
func encodeOptsSig(opts Options, plan *scan.Plan) string {
	buf := make([]byte, 0, 64)
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	putBool := func(b bool) {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	put(uint64(opts.Method))
	putBool(opts.AllowIncomplete)
	put(math.Float64bits(opts.IncompleteAreaOverhead))
	putBool(opts.PerBitAreaRule)
	putBool(opts.UseWeights)
	put(uint64(int64(opts.MaxCandidatesPerSubgraph)))
	put(uint64(int64(opts.ILPNodeLimit)))
	putBool(plan != nil)
	if plan != nil {
		putBool(plan.AllowCrossChain)
	}
	return string(buf)
}

// subgraphSig is the exact encoding of everything solveSubgraph reads for
// this subgraph, beyond what encodeOptsSig carries globally. Equal
// signatures imply equal solve inputs, so a memo hit replays a result the
// pipeline would reproduce verbatim.
func subgraphSig(g *compat.Graph, ri *regIndex, nodes []int) string {
	buf := make([]byte, 0, 64+96*len(nodes))
	var w [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		buf = append(buf, w[:]...)
	}
	putStr := func(s string) {
		put(int64(len(s)))
		buf = append(buf, s...)
	}

	put(int64(len(nodes)))
	local := make(map[int]int, len(nodes))
	var bb geom.Rect
	for i, n := range nodes {
		local[n] = i
		info := g.Regs[n]
		in := info.Inst
		put(int64(in.ID))
		putStr(in.RegCell.Name)
		put(in.Pos.X)
		put(in.Pos.Y)
		put(info.Region.Lo.X)
		put(info.Region.Lo.Y)
		put(info.Region.Hi.X)
		put(info.Region.Hi.Y)
		if g.Plan != nil {
			if c, pos, ok := g.Plan.ChainOf(in.ID); ok {
				buf = append(buf, 1)
				put(int64(c.ID))
				put(int64(c.Partition))
				if c.Ordered {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
				put(int64(pos))
			} else {
				buf = append(buf, 0)
			}
		}
		b := in.Bounds()
		if i == 0 {
			bb = b
		} else {
			if b.Lo.X < bb.Lo.X {
				bb.Lo.X = b.Lo.X
			}
			if b.Lo.Y < bb.Lo.Y {
				bb.Lo.Y = b.Lo.Y
			}
			if b.Hi.X > bb.Hi.X {
				bb.Hi.X = b.Hi.X
			}
			if b.Hi.Y > bb.Hi.Y {
				bb.Hi.Y = b.Hi.Y
			}
		}
	}

	// Subgraph-local adjacency, as ordinal pairs in adjacency-list order.
	for _, n := range nodes {
		marker := len(buf)
		buf = append(buf, w[:]...) // count placeholder
		cnt := int64(0)
		for _, m := range g.Adj[n] {
			if j, ok := local[m]; ok {
				put(int64(j))
				cnt++
			}
		}
		binary.LittleEndian.PutUint64(buf[marker:marker+8], uint64(cnt))
	}

	// Blocker environment: every register center inside the bounding box of
	// all member footprint corners. Any candidate's blocker query scans the
	// bounding box of a convex hull of a subset of those corners, which this
	// box contains — so registers outside it can never affect a weight.
	// Encoded in inBox iteration order, which the regIndex's (X, instance
	// ID) sort makes a pure function of the indexed content — no re-sort
	// needed, and unchanged content can never read as a change.
	marker := len(buf)
	buf = append(buf, w[:]...) // count placeholder
	cnt := int64(0)
	if len(nodes) > 0 {
		var ee [24]byte
		ri.inBox(bb, func(id netlist.InstID, p geom.Point) {
			binary.LittleEndian.PutUint64(ee[0:8], uint64(id))
			binary.LittleEndian.PutUint64(ee[8:16], uint64(p.X))
			binary.LittleEndian.PutUint64(ee[16:24], uint64(p.Y))
			buf = append(buf, ee[:]...)
			cnt++
		})
	}
	binary.LittleEndian.PutUint64(buf[marker:marker+8], uint64(cnt))
	return string(buf)
}
