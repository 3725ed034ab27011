package sta

import (
	"repro/internal/netlist"
)

// Structural deltas: register-only rewiring — MergeRegisters,
// SplitRegister, a register pin moved between nets — changes the timing
// graph only locally. Register pins carry at most one net arc each (see
// timingGraph), a register has no arc through itself, so a register pin
// can join or leave a net without any other pin changing level. patchGraph
// re-derives the arcs of just the nets a register pin left or joined:
//
//  1. the pins of the touched instances whose data net differs from the
//     graph's snapshot (pinNet) are found; a non-register pin among them
//     sends the run to the rebuild. The nets a D, Q or scan-out pin left
//     or joined have new arcs; the others only a new load;
//  2. each net with new arcs has its arcs released — its driver's range
//     emptied, its sinks' reverse slots freed;
//  3. each net's current arcs are written into its range (or, when the net
//     grew past the range, into a new one at the end of the arc arrays),
//     the sinks taking freed reverse slots. A register output that had no
//     level takes level 0 and a register D pin its driver's level + 1;
//     any other arc must go strictly up in the retained levels, or the
//     run falls back to the rebuild (a Q pin driving a net that had no
//     driver, whose sinks sit at level 0);
//  4. pins left with no arc drop out of the levelization, exactly as
//     buildGraph leaves a disconnected pin.
//
// The run that follows (runIncremental) re-seeds the touched registers,
// clears the removed ones and re-propagates from every pin whose arcs
// changed. The patch never reorders a level: the full sweeps re-bucket
// the levels it assigned, and worklists read them directly.

// graphPatch is what patchGraph changed, for the run that follows it.
type graphPatch struct {
	// nets are the data nets a register pin left or joined: their loads
	// changed.
	nets []netlist.NetID
	// arcPins are the pins that lost or gained an arc.
	arcPins []int32
}

// patchGraph grows the retained graph to the design's pin and net spaces
// and folds the touched instances' rewiring into it; the patch is nil when
// no pin changed nets. It returns false when the rewiring is not
// register-only or would not keep every arc going strictly up a level; the
// graph is then half patched and must be rebuilt.
func (e *Engine) patchGraph(touched []netlist.InstID) (*graphPatch, bool) {
	d, g := e.d, e.g
	if g.deadArcs > len(g.arcFrom)/2 {
		return nil, false // compact by rebuilding
	}
	g.grow(d.PinSpace(), d.NetSpace())
	p := &graphPatch{}

	// 1. Pins whose data net changed, the nets they left or joined, and
	// among those the nets whose arcs changed: a clock, reset, enable or
	// scan-in pin moves only load.
	g.gen++
	var moved []netlist.PinID
	var arcNets []netlist.NetID
	queued, withArcs := 2*g.gen, 2*g.gen+1
	addNet := func(id int32, arcs bool) {
		if id == netlist.NoID {
			return
		}
		if m := g.netMark[id]; m != queued && m != withArcs {
			g.netMark[id] = queued
			p.nets = append(p.nets, netlist.NetID(id))
		}
		if arcs && g.netMark[id] != withArcs {
			g.netMark[id] = withArcs
			arcNets = append(arcNets, netlist.NetID(id))
		}
	}
	for _, id := range touched {
		in := d.Inst(id)
		if in == nil {
			in = d.RemovedInst(id)
		}
		if in == nil {
			continue
		}
		for _, pid := range in.Pins {
			pin := d.Pin(pid)
			prev, cur := g.pinNet[pid], dataNet(d, pin)
			if prev == cur {
				continue
			}
			if in.Kind != netlist.KindReg {
				return nil, false
			}
			moved = append(moved, pid)
			arcs := carriesArc(pin) || pin.Dir == netlist.DirOut
			addNet(prev, arcs)
			addNet(cur, arcs)
		}
	}
	if len(moved) == 0 {
		return nil, true
	}

	// 2. Release the nets' arcs.
	for _, id := range arcNets {
		lo, n := g.netLo[id], g.netLen[id]
		if n == 0 {
			continue
		}
		u := g.arcFrom[lo]
		g.outLo[u], g.outHi[u] = 0, 0
		p.arcPins = append(p.arcPins, u)
		for k := lo; k < lo+n; k++ {
			v := g.arcTo[k]
			g.revFree = append(g.revFree, g.inLo[v])
			g.inLo[v], g.inHi[v] = 0, 0
			p.arcPins = append(p.arcPins, v)
		}
		g.netLen[id] = 0
	}

	// 3. Write their current arcs.
	for _, id := range arcNets {
		nt := d.Net(id)
		if nt == nil || nt.IsClock || nt.Driver == netlist.NoID {
			continue
		}
		dp := d.Pin(nt.Driver)
		u := int32(dp.ID)
		c := int32(0)
		for _, s := range nt.Sinks {
			if carriesArc(d.Pin(s)) {
				c++
			}
		}
		if c > g.netCap[id] {
			g.deadArcs += int(g.netCap[id])
			g.netLo[id], g.netCap[id] = int32(len(g.arcFrom)), c
			g.arcFrom = append(g.arcFrom, make([]int32, c)...)
			g.arcTo = append(g.arcTo, make([]int32, c)...)
			g.arcDelay = append(g.arcDelay, make([]float64, c)...)
		}
		lo := g.netLo[id]
		g.netLen[id] = c
		g.outLo[u], g.outHi[u] = lo, lo+c
		if c > 0 && g.level[u] < 0 {
			if g.inHi[u] > g.inLo[u] {
				return nil, false
			}
			g.setLevel(u, 0) // a driver with no in-arc: a register output or a port
		}
		p.arcPins = append(p.arcPins, u)
		k := lo
		for _, s := range nt.Sinks {
			sp := d.Pin(s)
			if !carriesArc(sp) {
				continue
			}
			v := int32(s)
			if g.level[v] <= g.level[u] {
				if in := d.Inst(sp.Inst); in == nil || in.Kind != netlist.KindReg {
					return nil, false
				}
				g.setLevel(v, g.level[u]+1) // a register D pin has no out-arc
			}
			g.arcFrom[k], g.arcTo[k] = u, v
			g.arcDelay[k] = wireArcDelay(d, dp, sp)
			var slot int32
			if n := len(g.revFree); n > 0 {
				slot = g.revFree[n-1]
				g.revFree = g.revFree[:n-1]
			} else {
				slot = int32(len(g.revArc))
				g.revArc = append(g.revArc, 0)
			}
			g.revArc[slot] = k
			g.inLo[v], g.inHi[v] = slot, slot+1
			p.arcPins = append(p.arcPins, v)
			k++
		}
	}

	// 4. Snapshot the moved pins' nets; pins left with no arc leave the
	// levelization.
	for _, pid := range moved {
		g.pinNet[pid] = dataNet(d, d.Pin(pid))
		if g.outHi[pid] == g.outLo[pid] && g.inHi[pid] == g.inLo[pid] {
			g.setLevel(int32(pid), -1)
		}
	}
	return p, true
}

// dataNet is the data net a pin sits on (NoID for none or a clock net).
func dataNet(d *netlist.Design, p *netlist.Pin) int32 {
	if p.Net == netlist.NoID || d.Net(p.Net).IsClock {
		return netlist.NoID
	}
	return int32(p.Net)
}

// setLevel moves a pin to another level, marking the level buckets stale.
func (g *timingGraph) setLevel(v, l int32) {
	if g.level[v] == l {
		return
	}
	g.level[v] = l
	if int(l) >= g.numLevels {
		g.numLevels = int(l) + 1
	}
	g.levelsStale = true
}

// grow extends the per-pin and per-net arrays to the design's pin and net
// spaces; a new pin has no arc, no level and no net.
func (g *timingGraph) grow(nPins, nNets int) {
	if nPins > g.nPins {
		g.outLo = extend(g.outLo, nPins, 0)
		g.outHi = extend(g.outHi, nPins, 0)
		g.inLo = extend(g.inLo, nPins, 0)
		g.inHi = extend(g.inHi, nPins, 0)
		g.level = extend(g.level, nPins, -1)
		g.pinNet = extend(g.pinNet, nPins, netlist.NoID)
		g.nPins = nPins
	}
	if nNets > len(g.netLo) {
		g.netLo = extend(g.netLo, nNets, 0)
		g.netLen = extend(g.netLen, nNets, 0)
		g.netCap = extend(g.netCap, nNets, 0)
	}
	if nNets > len(g.netMark) {
		g.netMark = extend(g.netMark, nNets, 0)
	}
}

// extend lengthens s to n, filling the new elements. It reallocates to
// exactly n when s is too short: the engine holds pin-sized arrays for a
// design's life, so headroom would stay live while a grow only happens
// after composition's merges and the clock tree's new buffers.
func extend[T any](s []T, n int, fill T) []T {
	old := len(s)
	if cap(s) < n {
		t := make([]T, n)
		copy(t, s)
		s = t
	}
	s = s[:n]
	for i := old; i < n; i++ {
		s[i] = fill
	}
	return s
}
