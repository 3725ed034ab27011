package sta

import (
	"repro/internal/netlist"
)

// Incremental re-analysis: after parametric edits (moves, resizes, skew
// and clock changes) the cached graph topology is still valid — only arc
// delays, launch seeds and endpoint constraints in the neighbourhood of
// the touched instances may differ. runIncremental
//
//  1. recomputes the clock arrivals the touched instances and skew edits
//     can have moved (clock.go) and collects the registers whose effective
//     arrival changed;
//  2. expands the touched instances to the pin set whose in-arc delays or
//     seeds can have changed: their own pins plus every pin of the
//     adjacent data nets (wire arcs see the moved pin; cell arcs and
//     launch seeds see the changed net load);
//  3. rewrites the changed arc delays in place, seeding a forward and a
//     backward worklist;
//  4. re-propagates level by level — ascending for arrivals, descending
//     for required times — pushing successors/predecessors only when a
//     value actually changed, so the work is proportional to the true
//     fanout cone of the edit.
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
		e.pinMark = make([]uint32, n)
		e.slackMark = make([]uint32, n)
		e.fwdQueued = make([]uint32, n)
		e.bwdQueued = make([]uint32, n)
	}
	nb := e.g.numLevels
	if nb == 0 {
		nb = 1
	}
	if len(e.fwdBuckets) < nb {
		e.fwdBuckets = make([][]int32, nb)
		e.bwdBuckets = make([][]int32, nb)
	}
	for l := range e.fwdBuckets {
		e.fwdBuckets[l] = e.fwdBuckets[l][:0]
		e.bwdBuckets[l] = e.bwdBuckets[l][:0]
	}
	e.slackDirty = e.slackDirty[:0]
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

// runIncremental re-analyzes after the given touched instances' parametric
// edits, reusing the cached graph.
func (e *Engine) runIncremental(touched []netlist.InstID, seq uint64) error {
	d, g := e.d, e.g
	fwd, bwd := e.prepare()

	// 1. Registers whose effective clock arrival moved need a re-seed.
	changed, err := e.clockIncremental(touched)
	if err != nil {
		return err
	}
	dirtyRegs := make(map[netlist.InstID]bool, len(changed))
	for _, id := range changed {
		dirtyRegs[id] = true
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
			continue // removed without ever being connected
		}
		if in.Kind == netlist.KindReg {
			dirtyRegs[id] = true
		}
		for _, pid := range in.Pins {
			mark(pid)
			p := d.Pin(pid)
			if p.Net == netlist.NoID {
				continue
			}
			nt := d.Net(p.Net)
			if nt == nil || nt.IsClock {
				continue // clock nets carry no data arcs; handled by the diff above
			}
			if nt.Driver != netlist.NoID {
				mark(nt.Driver)
			}
			for _, s := range nt.Sinks {
				mark(s)
			}
		}
	}

	// 3. Rewrite changed arc delays; queue affected endpoints of each arc.
	for _, v := range marked {
		p := d.Pin(netlist.PinID(v))
		if in := d.Inst(p.Inst); in != nil && in.Kind == netlist.KindReg && p.Kind == netlist.PinOut {
			// A register launch pin whose net geometry/caps changed: the
			// seed's load term moved even though the register itself may
			// be untouched.
			dirtyRegs[p.Inst] = true
		}
		e.recomputeInArcDelays(v, fwd, bwd)
	}
	period := d.Timing.ClockPeriod
	for id := range dirtyRegs {
		in := d.Inst(id)
		if in == nil {
			continue
		}
		eff := e.clk.eff[id]
		e.seedRegister(in, eff, fwd)
		for b := 0; b < in.Bits(); b++ {
			dp := d.DPin(in, b)
			if dp == nil || dp.Net == netlist.NoID {
				continue
			}
			req := eff + period - in.RegCell.Setup
			if e.endReq[dp.ID] != req {
				e.endReq[dp.ID] = req
				bwd.push(int32(dp.ID))
			}
		}
	}

	// 4. Cone sweeps. Forward ascends levels; pushes always target
	// strictly higher levels, so each bucket is complete when reached.
	for l := 0; l < len(fwd.buckets); l++ {
		for _, v := range fwd.buckets[l] {
			nv := g.pullArrival(v, e.arr, e.seedArr)
			if nv == e.arr[v] {
				continue
			}
			e.arr[v] = nv
			e.markSlackDirty(v)
			for k := g.arcOff[v]; k < g.arcOff[v+1]; k++ {
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
			for k := g.revOff[u]; k < g.revOff[u+1]; k++ {
				bwd.push(g.arcFrom[g.revArc[k]])
			}
		}
	}
	for _, v := range e.slackDirty {
		nv := slackOf(e.arr[v], e.req[v])
		if nv != e.slack[v] {
			e.slack[v] = nv
			e.noteSlackPin(v, seq)
		}
	}

	e.stats.IncrementalRuns++
	e.stats.LastConePins = fwd.pushes + bwd.pushes
	e.stats.LastKind = "incremental"
	return nil
}

// recomputeInArcDelays refreshes the delays of every arc ending at pin v,
// queueing the arc's head (forward) and tail (backward) when a delay
// actually moved. The two delay kinds are distinguished by the head pin: a
// combinational output pin receives cell arcs (one shared delay from the
// instance's output load); every other pin receives wire arcs.
func (e *Engine) recomputeInArcDelays(v int32, fwd, bwd *worklist) {
	g, d := e.g, e.d
	lo, hi := g.revOff[v], g.revOff[v+1]
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
