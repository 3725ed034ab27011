package sta

import (
	"math"

	"repro/internal/netlist"
)

// Incremental re-analysis: after parametric edits (moves, resizes, skew
// and clock changes), and after register-only rewiring once patchGraph has
// folded it in, the retained graph topology is valid — only arc delays,
// launch seeds and endpoint constraints in the neighbourhood of the
// touched instances may differ. runIncremental
//
//  1. recomputes the clock arrivals the touched instances and skew edits
//     can have moved (clock.go), or every one on an ideal-clock flip, and
//     collects the registers whose effective arrival changed;
//  2. expands the touched instances to the pin set whose in-arc delays or
//     seeds can have changed: their own pins, the drivers of the adjacent
//     data nets (cell arcs and launch seeds see the changed net load) and
//     the sinks of the nets they drive (wire arcs see the moved driver);
//  3. rewrites the changed arc delays in place, seeding a forward and a
//     backward worklist;
//  4. re-propagates level by level — ascending for arrivals, descending
//     for required times — pushing successors/predecessors only when a
//     value actually changed, so the work is proportional to the true
//     fanout cone of the edit; or, on a flip or a huge touched set, runs
//     the two full sweeps instead.
//
// Each pin's value is recomputed by the same pull reduction the full sweep
// uses, so the arrays stay bit-identical to a from-scratch run.

// worklist is a level-bucketed pin queue with generation-stamped dedup.
type worklist struct {
	g       *timingGraph
	buckets [][]int32
	queued  []uint32
	gen     uint32
	pushes  int
}

func (w *worklist) push(v int32) {
	if w.queued[v] == w.gen {
		return
	}
	w.queued[v] = w.gen
	l := w.g.level[v]
	if l < 0 {
		l = 0 // seeded pins outside the arc graph still get re-evaluated
	}
	w.buckets[l] = append(w.buckets[l], v)
	w.pushes++
}

// prepare readies the engine's incremental scratch for a new run.
func (e *Engine) prepare() (fwd, bwd *worklist) {
	n := e.g.nPins
	e.gen++
	if len(e.pinMark) < n {
		// Stamps below the new generation read as unmarked, so grown
		// arrays keep their old entries.
		e.pinMark = extend(e.pinMark, n, 0)
		e.slackMark = extend(e.slackMark, n, 0)
		e.fwdQueued = extend(e.fwdQueued, n, 0)
		e.bwdQueued = extend(e.bwdQueued, n, 0)
	}
	nb := e.g.numLevels
	if nb == 0 {
		nb = 1
	}
	if len(e.fwdBuckets) < nb {
		e.fwdBuckets = extend(e.fwdBuckets, nb, nil)
		e.bwdBuckets = extend(e.bwdBuckets, nb, nil)
	}
	for l := range e.fwdBuckets {
		e.fwdBuckets[l] = e.fwdBuckets[l][:0]
		e.bwdBuckets[l] = e.bwdBuckets[l][:0]
	}
	e.slackDirty = e.slackDirty[:0]
	e.endAdded, e.endLost = e.endAdded[:0], false
	fwd = &worklist{g: e.g, buckets: e.fwdBuckets, queued: e.fwdQueued, gen: e.gen}
	bwd = &worklist{g: e.g, buckets: e.bwdBuckets, queued: e.bwdQueued, gen: e.gen}
	return fwd, bwd
}

func (e *Engine) markSlackDirty(v int32) {
	if e.slackMark[v] != e.gen {
		e.slackMark[v] = e.gen
		e.slackDirty = append(e.slackDirty, v)
	}
}

func (e *Engine) markDirtyReg(id netlist.InstID) {
	if e.regMark[id] != e.gen {
		e.regMark[id] = e.gen
		e.dirtyRegs = append(e.dirtyRegs, id)
	}
}

// runIncremental re-analyzes over the retained graph after the touched
// instances' edits; p is the graph patch of their rewiring, nil when
// there was none. flip re-derives every register's clock arrival (an
// ideal-clock mode change), and all replaces the cone sweeps with the two
// full levelized sweeps — which is everything runFull does but rebuild
// the graph.
func (e *Engine) runIncremental(touched []netlist.InstID, p *graphPatch, flip, all bool) error {
	d, g := e.d, e.g
	e.growValues()
	fwd, bwd := e.prepare()
	e.stats.LastSeedLoads = 0

	// 1. Registers whose effective clock arrival moved need a re-seed.
	var changed []netlist.InstID
	var err error
	if flip {
		changed, err = e.clockFull(true)
	} else {
		changed, err = e.clockIncremental(touched)
	}
	if err != nil {
		return err
	}
	if n := d.InstSpace(); len(e.regMark) < n {
		e.regMark = extend(e.regMark, n, 0)
	}
	e.dirtyRegs = e.dirtyRegs[:0]
	for _, id := range changed {
		e.markDirtyReg(id)
	}

	// 2. Touched instances → pins whose in-arc delays may have changed.
	var marked []int32
	mark := func(pid netlist.PinID) {
		if e.pinMark[pid] != e.gen {
			e.pinMark[pid] = e.gen
			marked = append(marked, int32(pid))
		}
	}
	for _, id := range touched {
		in := d.Inst(id)
		if in == nil {
			// Removed: its pins are disconnected, unseeded and
			// unconstrained, as runFull leaves any disconnected pin.
			if gone := d.RemovedInst(id); gone != nil {
				for _, pid := range gone.Pins {
					e.setSeed(pid, negInf, fwd)
					e.setEndReq(pid, math.Inf(1), bwd)
				}
			}
			continue
		}
		if in.Kind == netlist.KindReg {
			e.markDirtyReg(id)
		}
		for _, pid := range in.Pins {
			mark(pid)
			p := d.Pin(pid)
			if p.Net == netlist.NoID {
				continue
			}
			nt := d.Net(p.Net)
			if nt == nil || nt.IsClock || nt.Driver == netlist.NoID {
				continue // no data arcs: clock nets are handled by the diff above
			}
			// The net's load moved: its driver's cell arcs and launch seed.
			// A sink's wire arc reads only its own and the driver's position,
			// so the other sinks change only when the driver itself moved.
			mark(nt.Driver)
			if nt.Driver == pid {
				for _, s := range nt.Sinks {
					mark(s)
				}
			}
		}
	}
	if p != nil {
		// The nets the rewiring changed lost or gained load: their drivers'
		// cell arcs and launch seeds move. Every pin that lost or gained an
		// arc is re-evaluated both ways.
		for _, id := range p.nets {
			if nt := d.Net(id); nt != nil && nt.Driver != netlist.NoID {
				mark(nt.Driver)
			}
		}
		for _, v := range p.arcPins {
			fwd.push(v)
			bwd.push(v)
		}
	}

	// 3. Rewrite changed arc delays; queue affected endpoints of each arc.
	for _, v := range marked {
		p := d.Pin(netlist.PinID(v))
		if in := d.Inst(p.Inst); in != nil && in.Kind == netlist.KindReg && p.Kind == netlist.PinOut {
			// A register launch pin whose net geometry/caps changed: the
			// seed's load term moved even though the register itself may
			// be untouched.
			e.markDirtyReg(p.Inst)
		}
		e.recomputeInArcDelays(v, fwd, bwd)
	}
	for _, id := range e.dirtyRegs {
		if in := d.Inst(id); in != nil {
			e.seedRegister(in, e.clk.eff[id], fwd, bwd)
		}
	}
	e.fixEndpoints()

	// 4. Sweeps: everything, or the cone.
	if all {
		e.sweepAll()
		e.stats.LastConePins = 2 * len(g.levelPins)
	} else {
		e.sweepCone(fwd, bwd)
		e.stats.LastConePins = fwd.pushes + bwd.pushes
	}
	return nil
}

// sweepCone re-propagates the worklists' cones: forward ascends levels
// and pushes always target strictly higher levels, so each bucket is
// complete when reached; backward mirrors it.
func (e *Engine) sweepCone(fwd, bwd *worklist) {
	g := e.g
	for l := 0; l < len(fwd.buckets); l++ {
		for _, v := range fwd.buckets[l] {
			nv := g.pullArrival(v, e.arr, e.seedArr)
			if nv == e.arr[v] {
				continue
			}
			e.arr[v] = nv
			e.markSlackDirty(v)
			for k := g.outLo[v]; k < g.outHi[v]; k++ {
				fwd.push(g.arcTo[k])
			}
		}
	}
	for l := len(bwd.buckets) - 1; l >= 0; l-- {
		for _, u := range bwd.buckets[l] {
			nv := g.pullRequired(u, e.req, e.endReq)
			if nv == e.req[u] {
				continue
			}
			e.req[u] = nv
			e.markSlackDirty(u)
			for k := g.inLo[u]; k < g.inHi[u]; k++ {
				bwd.push(g.arcFrom[g.revArc[k]])
			}
		}
	}
	for _, v := range e.slackDirty {
		e.slack[v] = slackOf(e.arr[v], e.req[v])
	}
}

// recomputeInArcDelays refreshes the delays of every arc ending at pin v,
// queueing the arc's head (forward) and tail (backward) when a delay
// actually moved. The two delay kinds are distinguished by the head pin: a
// combinational output pin receives cell arcs (one shared delay from the
// instance's output load); every other pin receives wire arcs.
func (e *Engine) recomputeInArcDelays(v int32, fwd, bwd *worklist) {
	g, d := e.g, e.d
	lo, hi := g.inLo[v], g.inHi[v]
	if lo == hi {
		return
	}
	p := d.Pin(netlist.PinID(v))
	if in := d.Inst(p.Inst); in != nil && in.Kind == netlist.KindComb && p.Dir == netlist.DirOut {
		if p.Net == netlist.NoID {
			return // disconnection would have been structural; defensive
		}
		delay := cellArcDelay(d, in, p)
		for k := lo; k < hi; k++ {
			a := g.revArc[k]
			if g.arcDelay[a] != delay {
				g.arcDelay[a] = delay
				fwd.push(v)
				bwd.push(g.arcFrom[a])
			}
		}
		return
	}
	for k := lo; k < hi; k++ {
		a := g.revArc[k]
		delay := wireArcDelay(d, d.Pin(netlist.PinID(g.arcFrom[a])), p)
		if g.arcDelay[a] != delay {
			g.arcDelay[a] = delay
			fwd.push(v)
			bwd.push(g.arcFrom[a])
		}
	}
}
