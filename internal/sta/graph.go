package sta

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/netlist"
)

// timingGraph is the cached, slice-backed data-path timing graph: arc
// arrays with a per-pin range into them in both directions plus a
// levelized topological order. It is built once (buildGraph) and retained
// on the Engine across runs: parametric edits only rewrite arcDelay
// entries in place, and register-only rewiring is patched in (patch.go).
//
// Arcs are net arcs (driver→sink, wire delay ∝ Manhattan pin distance) and
// combinational cell arcs (input→output, intrinsic + driveRes × load).
// Registers and clock buffers have no cell arcs, clock nets no net arcs,
// and only data pins (PinData: register D pins, combinational and
// clock-gate inputs, output ports) receive net arcs. A register's clock,
// reset, enable and scan pins would receive arrivals nothing reads: their
// required time is +Inf and they are no endpoint, so their slack is +Inf
// either way. Dropping those arcs leaves every register pin with at most
// one net arc, which is what makes a merge or split a 1:1 pin
// substitution on the retained graph.
type timingGraph struct {
	nPins int

	// Out-arcs of pin u are indices outLo[u]..outHi[u] into
	// arcFrom/arcTo/arcDelay. A net's arcs share one range (netLo, netLen,
	// netCap by net ID), owned by the net's driver pin; a combinational
	// input's single cell arc has a range of its own.
	outLo, outHi []int32
	arcFrom      []int32
	arcTo        []int32
	arcDelay     []float64

	// revArc[inLo[v]..inHi[v]] are forward-arc indices of the in-arcs of
	// pin v. A net sink has at most one (its net's arc), in a slot of its
	// own; revFree holds the slots patches released.
	inLo, inHi []int32
	revArc     []int32
	revFree    []int32

	// Per-net arc ranges and, per pin, the data net the pin sat on when
	// the graph last reflected the design (NoID for none or a clock net):
	// a patch finds the nets a pin left through it.
	netLo, netLen, netCap []int32
	pinNet                []int32
	// deadArcs counts arc slots stranded by nets that outgrew their range.
	deadArcs int
	// Generation-stamped scratch of patchGraph: netMark is 2·gen for a net
	// it queued, 2·gen+1 for one whose arcs it also re-derives.
	gen     uint32
	netMark []uint32

	// Levelization of the involved pins (those touching any arc):
	// level[v] == -1 for uninvolved pins. Every arc goes from a strictly
	// lower to a strictly higher level, which is what makes the per-level
	// sweeps safely parallel. A build assigns longest-path depths; a patch
	// keeps the retained levels and only places the pins it connects.
	level     []int32
	levelOff  []int32 // len numLevels+1; offsets into levelPins
	levelPins []int32 // involved pins grouped by level, ascending pin ID
	numLevels int
	// levelsStale marks levelOff/levelPins out of date with level after a
	// patch; the full sweeps re-bucket first (bucketLevels).
	levelsStale bool
}

// carriesArc reports whether a net sink receives its net's arc: only data
// pins do (see timingGraph).
func carriesArc(p *netlist.Pin) bool { return p.Kind == netlist.PinData }

// buildGraph constructs the graph and its levelization for the current
// netlist state. A combinational cycle is an error.
func buildGraph(d *netlist.Design) (*timingGraph, error) {
	n := d.PinSpace()
	g := &timingGraph{nPins: n}
	g.outLo = make([]int32, n)
	g.outHi = make([]int32, n)
	g.pinNet = make([]int32, n)
	for i := range g.pinNet {
		g.pinNet[i] = netlist.NoID
	}
	nn := d.NetSpace()
	g.netLo = make([]int32, nn)
	g.netLen = make([]int32, nn)
	g.netCap = make([]int32, nn)

	// Pass 1: the arc count (the data sinks of driven data nets, the
	// connected inputs of combinational cells with a connected output).
	m := 0
	d.Nets(func(nt *netlist.Net) {
		if nt.IsClock || nt.Driver == netlist.NoID {
			return
		}
		for _, s := range nt.Sinks {
			if carriesArc(d.Pin(s)) {
				m++
			}
		}
	})
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindComb {
			return
		}
		if out := d.OutPin(in); out == nil || out.Net == netlist.NoID {
			return
		}
		for _, pid := range in.Pins {
			if p := d.Pin(pid); p.Dir == netlist.DirIn && p.Net != netlist.NoID {
				m++
			}
		}
	})
	g.arcFrom = make([]int32, 0, m)
	g.arcTo = make([]int32, 0, m)
	g.arcDelay = make([]float64, 0, m)

	// Pass 2: fill arcs with their delays, net by net, then the cell arcs.
	// The delay expressions are shared with the incremental recompute path
	// (wireArcDelay, cellArcDelay) so full and incremental runs produce
	// bit-identical floats.
	addArc := func(from, to netlist.PinID, delay float64) {
		g.arcFrom = append(g.arcFrom, int32(from))
		g.arcTo = append(g.arcTo, int32(to))
		g.arcDelay = append(g.arcDelay, delay)
	}
	d.Nets(func(nt *netlist.Net) {
		if nt.IsClock {
			return
		}
		for _, s := range nt.Sinks {
			g.pinNet[s] = int32(nt.ID)
		}
		if nt.Driver == netlist.NoID {
			return
		}
		g.pinNet[nt.Driver] = int32(nt.ID)
		lo := int32(len(g.arcFrom))
		dp := d.Pin(nt.Driver)
		for _, s := range nt.Sinks {
			if sp := d.Pin(s); carriesArc(sp) {
				addArc(dp.ID, s, wireArcDelay(d, dp, sp))
			}
		}
		hi := int32(len(g.arcFrom))
		g.outLo[dp.ID], g.outHi[dp.ID] = lo, hi
		g.netLo[nt.ID], g.netLen[nt.ID], g.netCap[nt.ID] = lo, hi-lo, hi-lo
	})
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindComb {
			return
		}
		out := d.OutPin(in)
		if out == nil || out.Net == netlist.NoID {
			return
		}
		delay := cellArcDelay(d, in, out)
		for _, pid := range in.Pins {
			p := d.Pin(pid)
			if p.Dir == netlist.DirIn && p.Net != netlist.NoID {
				g.outLo[pid] = int32(len(g.arcFrom))
				addArc(pid, out.ID, delay)
				g.outHi[pid] = g.outLo[pid] + 1
			}
		}
	})
	// Reverse ranges, in-arcs in forward-arc order.
	indeg := make([]int32, n)
	for k := range int32(m) {
		indeg[g.arcTo[k]]++
	}
	g.inLo = make([]int32, n)
	g.inHi = make([]int32, n)
	var r int32
	for i := 0; i < n; i++ {
		g.inLo[i], g.inHi[i] = r, r
		r += indeg[i]
	}
	g.revArc = make([]int32, m)
	for k := range int32(m) {
		v := g.arcTo[k]
		g.revArc[g.inHi[v]] = k
		g.inHi[v]++
	}

	// Levelize (Kahn over in-degrees, recording longest-path depth).
	g.level = make([]int32, n)
	involved := 0
	for v := 0; v < n; v++ {
		if g.outHi[v] > g.outLo[v] || indeg[v] > 0 {
			g.level[v] = 0
			involved++
		} else {
			g.level[v] = -1
		}
	}
	remaining := indeg
	queue := make([]int32, 0, involved)
	for v := 0; v < n; v++ {
		if g.level[v] == 0 && remaining[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	ordered := 0
	maxLevel := int32(0)
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ordered++
		lvl := g.level[u] + 1
		for k := g.outLo[u]; k < g.outHi[u]; k++ {
			v := g.arcTo[k]
			if lvl > g.level[v] {
				g.level[v] = lvl
				if lvl > maxLevel {
					maxLevel = lvl
				}
			}
			remaining[v]--
			if remaining[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if ordered != involved {
		return nil, fmt.Errorf("sta: combinational cycle detected (%d of %d pins ordered)", ordered, involved)
	}
	g.numLevels = int(maxLevel) + 1
	if involved == 0 {
		g.numLevels = 0
	}
	g.bucketLevels()
	return g, nil
}

// bucketLevels groups the involved pins by level, ascending pin ID within
// a level (counting sort keyed on level preserves pin order).
func (g *timingGraph) bucketLevels() {
	counts := make([]int32, g.numLevels+1)
	involved := int32(0)
	for _, l := range g.level {
		if l >= 0 {
			counts[l]++
			involved++
		}
	}
	g.levelOff = resize(g.levelOff, g.numLevels+1)
	var off int32
	for l := 0; l < g.numLevels; l++ {
		g.levelOff[l] = off
		off += counts[l]
	}
	g.levelOff[g.numLevels] = off
	g.levelPins = resize(g.levelPins, int(involved))
	lcur := counts[:g.numLevels]
	copy(lcur, g.levelOff[:g.numLevels])
	for v, l := range g.level {
		if l >= 0 {
			g.levelPins[lcur[l]] = int32(v)
			lcur[l]++
		}
	}
	g.levelsStale = false
}

// resize returns s with length n, reallocated (contents lost) when its
// capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// wireArcDelay is the net-arc (driver→sink) propagation delay.
func wireArcDelay(d *netlist.Design, from, to *netlist.Pin) float64 {
	return d.Timing.WireDelayPerDBU * float64(d.PinPos(from).ManhattanDist(d.PinPos(to)))
}

// cellArcDelay is the combinational cell-arc (any input→output) delay for
// the instance's current output load.
func cellArcDelay(d *netlist.Design, in *netlist.Inst, out *netlist.Pin) float64 {
	return in.Comb.Intrinsic + in.Comb.DriveRes*d.NetLoadCap(d.Net(out.Net))
}

// pullArrival recomputes the arrival at pin v from its seed and its
// in-arcs. Max is order-independent over floats, so the result does not
// depend on iteration order or on which worker computes it.
func (g *timingGraph) pullArrival(v int32, arr, seed []float64) float64 {
	best := seed[v]
	for k := g.inLo[v]; k < g.inHi[v]; k++ {
		a := g.revArc[k]
		if au := arr[g.arcFrom[a]]; au != negInf {
			if c := au + g.arcDelay[a]; c > best {
				best = c
			}
		}
	}
	return best
}

// pullRequired recomputes the required time at pin u from its endpoint
// constraint and its out-arcs.
func (g *timingGraph) pullRequired(u int32, req, endReq []float64) float64 {
	best := endReq[u]
	for k := g.outLo[u]; k < g.outHi[u]; k++ {
		if rv := req[g.arcTo[k]]; !isPosInf(rv) {
			if c := rv - g.arcDelay[k]; c < best {
				best = c
			}
		}
	}
	return best
}

// forward runs the full arrival sweep: arr must be pre-initialized to the
// seed values; levels are processed in ascending order, pins within a
// level in parallel. Every arc goes level→strictly-higher-level, so within
// one level no pin reads another's fresh value — the sweep is race-free
// and its result independent of the worker count.
func (g *timingGraph) forward(arr, seed []float64, workers int) {
	for l := 1; l < g.numLevels; l++ {
		pins := g.levelPins[g.levelOff[l]:g.levelOff[l+1]]
		parallelChunks(len(pins), workers, func(lo, hi int) {
			for _, v := range pins[lo:hi] {
				arr[v] = g.pullArrival(v, arr, seed)
			}
		})
	}
}

// backward runs the full required sweep: req must be pre-initialized to
// the endpoint required times; levels are processed in descending order.
func (g *timingGraph) backward(req, endReq []float64, workers int) {
	for l := g.numLevels - 2; l >= 0; l-- {
		pins := g.levelPins[g.levelOff[l]:g.levelOff[l+1]]
		parallelChunks(len(pins), workers, func(lo, hi int) {
			for _, u := range pins[lo:hi] {
				req[u] = g.pullRequired(u, req, endReq)
			}
		})
	}
}

const (
	// parallelLevelThreshold is the minimum level population worth fanning
	// out; below it the goroutine overhead dominates.
	parallelLevelThreshold = 512
	// minParallelChunk bounds how finely a level is split.
	minParallelChunk = 256
)

// parallelChunks splits [0,n) into contiguous chunks across the worker
// pool, following the Workers convention of the composition pipeline
// (internal/core): <=0 means one worker per available CPU, 1 the
// sequential path.
func parallelChunks(n, workers int, f func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || n < parallelLevelThreshold {
		f(0, n)
		return
	}
	if maxChunks := n / minParallelChunk; workers > maxChunks {
		workers = maxChunks
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func isPosInf(v float64) bool { return math.IsInf(v, 1) }
