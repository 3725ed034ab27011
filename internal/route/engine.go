package route

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// Stats reports how the engine's updates were satisfied and what they cost.
type Stats struct {
	// Updates counts Update calls that found the design edited; Cleans
	// counts calls with nothing to do.
	Updates int
	Cleans  int
	// Deltas counts updates served from the touched records alone;
	// Rebuilds counts from-scratch re-estimates (first update, Invalidate,
	// a cursor older than netlist.ResetTouchedLog, a changed core).
	Deltas   int
	Rebuilds int
	// NetsDelta and TilesTouched count the delta paths' actual work:
	// re-contributed nets and finalized grid edges. Last* are the most
	// recent delta's share.
	NetsDelta        int
	TilesTouched     int
	LastNetsDelta    int
	LastTilesTouched int
	// DeltaNS and RebuildNS accumulate wall time per phase; Last* are the
	// most recent update's share.
	DeltaNS       int64
	RebuildNS     int64
	LastDeltaNS   int64
	LastRebuildNS int64
	// LastKind names the most recent update's outcome: "clean", "delta" or
	// "rebuild". LastFallback names what forced the most recent rebuild
	// ("attach", "invalidate", "reset", "core-changed").
	LastKind     string
	LastFallback string
}

// Engine is the retained incremental congestion engine: it keeps the
// G-cell demand map alive across design edits and serves per-tile demand
// deltas for the nets of touched instances — subtract the net's old bbox
// contribution, add the new one — instead of re-walking every net the way
// the batch Estimate does.
//
// It consumes the netlist's per-edit-class touched records exactly like
// the other retained engines: flow-class edits (moves, resizes, merges)
// and CTS-class edits (clock-buffer churn, leaf-net rewires) both matter,
// since clock nets contribute demand; a CTS-class edit moves clock nets
// only (see delta).
//
// Because demand is held in fixed-point (see demandUnit), delta retraction
// is exact and the engine's map is bit-identical to Estimate's at every
// sync point, which the oracle suite asserts across edit storms.
type Engine struct {
	d       *netlist.Design
	opts    Options
	workers int

	valid  bool
	cursor uint64
	core   geom.Rect
	g      grid

	hDem, vDem     []int64   // fixed-point demand per edge
	hFloat, vFloat []float64 // materialized tracks, mirrors hDem/vDem
	overflow       int       // maintained OverflowEdges count

	// snaps records, per InstID, the nets the instance's pins were on at
	// the last sync; nets records, per NetID, the net's applied
	// contribution so it can be retracted exactly (the zero contrib, which
	// is inert, for nets that contribute nothing). Both grow with the
	// design's ID spaces and are reused across rebuilds: a snapshot keeps
	// its net buffer.
	snaps [][]netlist.NetID
	nets  []contrib

	// gen/stamp arrays dedupe dirty edges within one update without
	// clearing O(grid) state: an edge is dirty iff its stamp equals gen.
	gen            uint32
	hStamp, vStamp []uint32
	hDirty, vDirty []int
	// netGen/netStamp dedupe a delta's dirty nets the same way, by NetID;
	// dirtyNets and netBuf are the delta's reused buffers, flowT and ctsT
	// those of its touched reads.
	netGen      uint32
	netStamp    []uint32
	dirtyNets   []netlist.NetID
	netBuf      []netlist.NetID
	flowT, ctsT []netlist.InstID

	stats Stats
}

// NewEngine returns a retained congestion engine for the design. The first
// Update (or OverflowEdges/Map call) performs the full baseline estimate.
func NewEngine(d *netlist.Design, opts Options) *Engine {
	if opts.GCell <= 0 {
		opts = DefaultOptions()
	}
	return &Engine{d: d, opts: opts}
}

// Options returns the engine's (normalized) options.
func (e *Engine) Options() Options { return e.opts }

// Stats returns the update counters.
func (e *Engine) Stats() Stats { return e.stats }

// Invalidate drops the retained state; the next update rebuilds from
// scratch. Required after edits that bypassed the netlist API.
func (e *Engine) Invalidate() { e.valid = false }

// SetWorkers bounds the rebuild's net-walk fan-out (deltas are cheap and
// stay sequential). Results are identical for any value; n <= 0 selects
// one worker per available CPU.
func (e *Engine) SetWorkers(n int) { e.workers = n }

// Summary reports the uniform engine.Summary counters.
func (e *Engine) Summary() engine.Summary {
	return engine.Summary{
		Updates:  e.stats.Updates,
		Deltas:   e.stats.Deltas,
		Rebuilds: e.stats.Rebuilds,
		LastKind: e.stats.LastKind,
	}
}

// OverflowEdges syncs the engine and returns the maintained overflow-edge
// count in O(touched).
func (e *Engine) OverflowEdges() int {
	e.Update()
	return e.overflow
}

// Map syncs the engine and returns the congestion map. The returned Map is
// a live view of the engine's retained state: it stays valid (and bit-
// identical to Estimate) until the next design edit is folded in by a
// subsequent sync.
func (e *Engine) Map() *Map {
	e.Update()
	return &Map{
		NX: e.g.nx, NY: e.g.ny,
		HDemand: e.hFloat, VDemand: e.vFloat,
		HCap: e.opts.HCap, VCap: e.opts.VCap,
	}
}

// Update brings the retained map up to date with the design.
func (e *Engine) Update() {
	if e.valid && e.d.Epoch() == e.cursor {
		e.stats.Cleans++
		e.stats.LastKind = "clean"
		return
	}
	e.stats.Updates++
	if !e.valid {
		reason := "invalidate"
		if e.stats.Rebuilds == 0 {
			reason = "attach"
		}
		e.rebuild(reason)
		return
	}
	if e.core != e.d.Core {
		e.rebuild("core-changed")
		return
	}
	var complete bool
	if e.flowT, complete = e.d.TouchedSinceClass(e.cursor, netlist.EditClassFlow, e.flowT[:0]); !complete {
		e.rebuild("reset")
		return
	}
	// The CTS-class read at the same cursor is complete too.
	e.ctsT, _ = e.d.TouchedSinceClass(e.cursor, netlist.EditClassCTS, e.ctsT[:0])
	t0 := time.Now()
	e.delta(e.flowT, e.ctsT, e.d.StructuralEpochOf(netlist.EditClassCTS) > e.cursor)
	e.stats.LastDeltaNS = time.Since(t0).Nanoseconds()
	e.stats.DeltaNS += e.stats.LastDeltaNS
	e.stats.Deltas++
	e.stats.LastKind = "delta"
	e.cursor = e.d.Epoch()
}

// delta re-contributes exactly the nets whose geometry a touched instance
// can have changed: the nets the instance was on at the last sync plus the
// nets it is on now. A CTS-class edit only rewires clock pins and adds,
// moves or removes clock buffers, so of a CTS-class instance's nets only
// the clock nets and the nets since removed can have changed — unless
// ctsFull reports a CTS-class structural edit, which breaks that rule.
// The flow-class instances go first: an instance on both lists then has a
// current snapshot before its clock-only pass.
func (e *Engine) delta(flowT, ctsT []netlist.InstID, ctsFull bool) {
	e.grow()
	e.netGen++
	dirty := e.dirtyNets[:0]
	add := func(nets []netlist.NetID, clockOnly bool) {
		for _, nid := range nets {
			if clockOnly {
				if n := e.d.Net(nid); n != nil && !n.IsClock {
					continue
				}
			}
			if e.netStamp[nid] != e.netGen {
				e.netStamp[nid] = e.netGen
				dirty = append(dirty, nid)
			}
		}
	}
	for k, touched := range [2][]netlist.InstID{flowT, ctsT} {
		clockOnly := k == 1 && !ctsFull
		for _, id := range touched {
			add(e.snaps[id], clockOnly)
			e.netBuf = e.d.InstNets(id, false, e.netBuf[:0])
			add(e.netBuf, clockOnly)
			e.snapInst(id)
		}
	}
	e.dirtyNets = dirty
	e.gen++
	e.hDirty = e.hDirty[:0]
	e.vDirty = e.vDirty[:0]
	for _, nid := range dirty {
		old := e.nets[nid]
		old.addTo(e.hDem, e.vDem, e.g.nx, -1)
		e.markDirty(old)
		var cur contrib
		if n := e.d.Net(nid); n != nil {
			cur, _ = netContribution(e.d, n, e.g)
		}
		cur.addTo(e.hDem, e.vDem, e.g.nx, 1)
		e.markDirty(cur)
		e.nets[nid] = cur
	}
	// Finalize the dirty edges: refresh the float mirror and fold overflow
	// transitions into the maintained count.
	for _, idx := range e.hDirty {
		oldF, newF := e.hFloat[idx], toTracks(e.hDem[idx])
		if (oldF > e.opts.HCap) != (newF > e.opts.HCap) {
			if newF > e.opts.HCap {
				e.overflow++
			} else {
				e.overflow--
			}
		}
		e.hFloat[idx] = newF
	}
	for _, idx := range e.vDirty {
		oldF, newF := e.vFloat[idx], toTracks(e.vDem[idx])
		if (oldF > e.opts.VCap) != (newF > e.opts.VCap) {
			if newF > e.opts.VCap {
				e.overflow++
			} else {
				e.overflow--
			}
		}
		e.vFloat[idx] = newF
	}
	e.stats.LastNetsDelta = len(dirty)
	e.stats.NetsDelta += len(dirty)
	e.stats.LastTilesTouched = len(e.hDirty) + len(e.vDirty)
	e.stats.TilesTouched += e.stats.LastTilesTouched
}

// markDirty stamps the edges a contribution spans into the dirty lists.
func (e *Engine) markDirty(c contrib) {
	nx := e.g.nx
	if c.wh != 0 {
		for y := c.y0; y <= c.y1; y++ {
			for x := c.x0; x < c.x1; x++ {
				idx := y*(nx-1) + x
				if e.hStamp[idx] != e.gen {
					e.hStamp[idx] = e.gen
					e.hDirty = append(e.hDirty, idx)
				}
			}
		}
	}
	if c.wv != 0 {
		for x := c.x0; x <= c.x1; x++ {
			for y := c.y0; y < c.y1; y++ {
				idx := y*nx + x
				if e.vStamp[idx] != e.gen {
					e.vStamp[idx] = e.gen
					e.vDirty = append(e.vDirty, idx)
				}
			}
		}
	}
}

// snapInst replaces one instance's net snapshot in place. A dead
// instance's snapshot is empty.
func (e *Engine) snapInst(id netlist.InstID) {
	e.snaps[id] = e.d.InstNets(id, false, e.snaps[id][:0])
}

// grow extends the ID-indexed state to the design's current ID spaces.
func (e *Engine) grow() {
	if n := e.d.InstSpace(); n > len(e.snaps) {
		e.snaps = append(e.snaps, make([][]netlist.NetID, n-len(e.snaps))...)
	}
	if n := e.d.NetSpace(); n > len(e.nets) {
		e.nets = append(e.nets, make([]contrib, n-len(e.nets))...)
		e.netStamp = append(e.netStamp, make([]uint32, n-len(e.netStamp))...)
	}
}

// rebuild re-derives everything from the design with one parallel walk
// over the live nets. Per-worker fixed-point partial sums are merged by
// addition, so the result is bit-identical for any worker count.
func (e *Engine) rebuild(reason string) {
	t0 := time.Now()
	e.core = e.d.Core
	e.g = gridFor(e.core, e.opts)
	nh, nv := e.g.hEdges(), e.g.vEdges()

	var live []*netlist.Net
	e.d.Nets(func(n *netlist.Net) { live = append(live, n) })

	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(live) {
		workers = len(live)
	}
	if workers < 1 {
		workers = 1
	}
	// Dead nets' slots must read as contributing nothing.
	e.grow()
	clear(e.nets)
	// One chunk of nets per worker, each into its own partial grid; a
	// single worker is the one-chunk case, not a separate loop. Workers
	// write disjoint e.nets slots.
	hParts := make([][]int64, workers)
	vParts := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hD := make([]int64, nh)
			vD := make([]int64, nv)
			for _, n := range live[w*len(live)/workers : (w+1)*len(live)/workers] {
				if c, ok := netContribution(e.d, n, e.g); ok {
					c.addTo(hD, vD, e.g.nx, 1)
					e.nets[n.ID] = c
				}
			}
			hParts[w], vParts[w] = hD, vD
		}(w)
	}
	wg.Wait()
	// The first partial grid becomes the demand map, so one worker copies
	// nothing; the others add in.
	e.hDem, e.vDem = hParts[0], vParts[0]
	for w := 1; w < workers; w++ {
		for i, v := range hParts[w] {
			e.hDem[i] += v
		}
		for i, v := range vParts[w] {
			e.vDem[i] += v
		}
	}

	e.hFloat = make([]float64, nh)
	e.vFloat = make([]float64, nv)
	e.overflow = 0
	for i, v := range e.hDem {
		f := toTracks(v)
		e.hFloat[i] = f
		if f > e.opts.HCap {
			e.overflow++
		}
	}
	for i, v := range e.vDem {
		f := toTracks(v)
		e.vFloat[i] = f
		if f > e.opts.VCap {
			e.overflow++
		}
	}

	for i := range e.snaps {
		e.snapInst(netlist.InstID(i))
	}

	e.gen = 0
	e.hStamp = make([]uint32, nh)
	e.vStamp = make([]uint32, nv)
	e.hDirty, e.vDirty = nil, nil

	e.cursor = e.d.Epoch()
	e.valid = true
	e.stats.Rebuilds++
	e.stats.LastKind = "rebuild"
	e.stats.LastFallback = reason
	e.stats.LastRebuildNS = time.Since(t0).Nanoseconds()
	e.stats.RebuildNS += e.stats.LastRebuildNS
}
