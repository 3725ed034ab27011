package sta

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Clock arrivals propagate from clock sources (ports or undriven clock
// nets, which are treated as ideal) through clock buffers and gates —
// chains of gates compose — to every register's clock pin. They are kept
// between runs in slices indexed by instance and net ID: a full run
// computes every register's; an incremental run recomputes only what the
// edits since the last run can have moved (clockIncremental).
//
// A net's arrival at its driver output depends on the driver's position
// and cell, on every pin of the net (its load is the pins' capacitance
// plus HPWL wire capacitance), and on the arrival of the driver's input
// net. Each of those changes through an edit that touches an instance
// with a pin on the net: a move or resize touches the instance, and a
// connect or disconnect touches the pin's instance. So an incremental run
// starts from the clock nets the touched instances' pins sit on — and the
// ones they sat on at the last run, which a disconnect leaves no other
// trace of — and follows changed arrivals downstream through buffers and
// gates to the registers they clock; the touched registers and the
// registers whose skew changed are recomputed too.

// clockState is the engine's retained clock-arrival state.
type clockState struct {
	// eff is the propagated arrival at each register's clock pin plus the
	// register's useful skew, by instance ID. Entries of non-registers and
	// removed registers are stale.
	eff []float64
	// netArr is the arrival at each net's driver output, current where
	// netOK is set; drvPin and drvPos are the driver pin it was computed
	// with and that pin's position, which every sink's wire delay reads.
	netArr []float64
	netOK  []bool
	drvPin []netlist.PinID
	drvPos []geom.Point
	// pinNet is the clock net each pin sat on at the last run (NoID when
	// none), so a pin that left a net still invalidates it.
	pinNet []netlist.NetID
	// dataDep records that an arrival was read from a non-clock net (a
	// register clocked from, or a buffer or gate fed by, a data net).
	// Incremental runs trace clock nets only, so while it is set they
	// recompute every arrival.
	dataDep bool
	// skewDirty holds the registers whose skew SetSkew changed since the
	// last run.
	skewDirty []netlist.InstID
	// Generation-stamped scratch of clockIncremental: the registers to
	// recompute, the nets queued, and each net's depth below its clock
	// source.
	gen               uint32
	regMark           []uint32
	netMark, depthGen []uint32
	depth             []int32
	buckets           [][]netlist.NetID
	regs              []netlist.InstID
}

// grow sizes the per-ID slices to the design's ID spaces.
func (c *clockState) grow(d *netlist.Design) {
	if n := d.InstSpace(); len(c.eff) < n {
		c.eff = extend(c.eff, n, 0)
		c.regMark = extend(c.regMark, n, 0)
	}
	if n := d.NetSpace(); len(c.netArr) < n {
		c.netArr = extend(c.netArr, n, 0)
		c.netOK = extend(c.netOK, n, false)
		c.drvPin = extend(c.drvPin, n, 0)
		c.drvPos = extend(c.drvPos, n, geom.Point{})
		c.netMark = extend(c.netMark, n, 0)
		c.depthGen = extend(c.depthGen, n, 0)
		c.depth = extend(c.depth, n, 0)
	}
	if n := d.PinSpace(); len(c.pinNet) < n {
		c.pinNet = extend(c.pinNet, n, netlist.NoID)
	}
}

// clockFull recomputes every register's clock arrival, forgetting all
// retained net arrivals. It returns the live registers whose effective
// arrival differs from the retained one when diff is set (nil otherwise).
func (e *Engine) clockFull(diff bool) ([]netlist.InstID, error) {
	d, c := e.d, &e.clk
	c.grow(d)
	clear(c.netOK)
	c.dataDep = false
	c.skewDirty = c.skewDirty[:0]
	if !e.ideal {
		for i := range c.pinNet {
			c.pinNet[i] = netlist.NoID
		}
		d.Nets(func(n *netlist.Net) {
			if !n.IsClock {
				return
			}
			if n.Driver != netlist.NoID {
				c.pinNet[n.Driver] = n.ID
			}
			for _, s := range n.Sinks {
				c.pinNet[s] = n.ID
			}
		})
	}
	var changed []netlist.InstID
	var firstErr error
	regs := 0
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || firstErr != nil {
			return
		}
		regs++
		eff, err := e.regClock(in)
		if err != nil {
			firstErr = err
			return
		}
		if diff && c.eff[in.ID] != eff {
			changed = append(changed, in.ID)
		}
		c.eff[in.ID] = eff
	})
	e.noteClockRegs(regs)
	return changed, firstErr
}

// clockIncremental recomputes the clock arrivals the edits since the last
// run can have moved, given the flow-class touched instances, and returns
// the registers whose effective arrival changed. An incomplete CTS-class
// record or an arrival read from a data net sends it to the full
// recompute.
//
// The nets the touched instances' pins sit on (or sat on) are recomputed
// in order of depth below their clock source, so every net's input net is
// final before the net is. A net passes the edit on — to the nets its
// buffers and gates drive and to the registers it clocks — only when its
// arrival or its driver pin's position changed: every sink's wire delay
// reads the latter. A buffer moved away and back between two runs (the
// CTS engine's centroid and legalization round trip) passes nothing on.
func (e *Engine) clockIncremental(flowT []netlist.InstID) ([]netlist.InstID, error) {
	d, c := e.d, &e.clk
	ctsT, ok := d.TouchedSinceClass(e.cursor, netlist.EditClassCTS)
	if !ok || c.dataDep {
		return e.clockFull(true)
	}
	c.grow(d)
	c.gen++
	c.regs = c.regs[:0]
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	for _, ids := range [2][]netlist.InstID{flowT, ctsT} {
		for _, id := range ids {
			in := d.Inst(id)
			if in == nil {
				// Removed: its pins are disconnected, and pinNet names the
				// clock nets they left.
				if in = d.RemovedInst(id); in == nil {
					continue
				}
			} else if in.Kind == netlist.KindReg {
				e.markClockReg(id)
			}
			if e.ideal {
				continue
			}
			for _, pid := range in.Pins {
				cur, prev := d.Pin(pid).Net, c.pinNet[pid]
				c.pinNet[pid] = netlist.NoID
				if n := d.Net(cur); n != nil && n.IsClock {
					c.pinNet[pid] = cur
					if err := e.queueClockNet(cur); err != nil {
						return nil, err
					}
				}
				if prev != netlist.NoID && prev != cur {
					if err := e.queueClockNet(prev); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for _, id := range c.skewDirty {
		if in := d.Inst(id); in != nil && in.Kind == netlist.KindReg {
			e.markClockReg(id)
		}
	}
	c.skewDirty = c.skewDirty[:0]
	for k := 0; k < len(c.buckets); k++ {
		for _, id := range c.buckets[k] {
			old, wasOK, oldPin, oldPos := c.netArr[id], c.netOK[id], c.drvPin[id], c.drvPos[id]
			c.netOK[id] = false
			v, err := e.netArrival(id, 0)
			if err != nil {
				return nil, err
			}
			if wasOK && v == old && c.drvPin[id] == oldPin && c.drvPos[id] == oldPos {
				continue
			}
			n := d.Net(id)
			if n == nil {
				continue
			}
			for _, pid := range n.Sinks {
				p := d.Pin(pid)
				in := d.Inst(p.Inst)
				switch {
				case in.Kind == netlist.KindClockBuf || in.Kind == netlist.KindClockGate:
					if out := d.OutPin(in); out != nil && out.Net != netlist.NoID && clockInputNet(d, in) == id {
						if err := e.queueClockNet(out.Net); err != nil {
							return nil, err
						}
					}
				case in.Kind == netlist.KindReg && p.Kind == netlist.PinClock:
					e.markClockReg(in.ID)
				}
			}
		}
	}
	var changed []netlist.InstID
	for _, id := range c.regs {
		eff, err := e.regClock(d.Inst(id))
		if err != nil {
			return nil, err
		}
		if c.eff[id] != eff {
			changed = append(changed, id)
		}
		c.eff[id] = eff
	}
	e.noteClockRegs(len(c.regs))
	return changed, nil
}

func (e *Engine) markClockReg(id netlist.InstID) {
	if c := &e.clk; c.regMark[id] != c.gen {
		c.regMark[id] = c.gen
		c.regs = append(c.regs, id)
	}
}

// queueClockNet queues a net for recomputation in its depth bucket.
func (e *Engine) queueClockNet(id netlist.NetID) error {
	c := &e.clk
	if c.netMark[id] == c.gen {
		return nil
	}
	c.netMark[id] = c.gen
	k, err := e.netDepth(id, 0)
	if err != nil {
		return err
	}
	for len(c.buckets) <= k {
		c.buckets = append(c.buckets, nil)
	}
	c.buckets[k] = append(c.buckets[k], id)
	return nil
}

// netDepth returns how many buffers and gates separate a net from its
// clock source, following netArrival's recursion.
func (e *Engine) netDepth(id netlist.NetID, guard int) (int, error) {
	d, c := e.d, &e.clk
	if c.depthGen[id] == c.gen {
		return int(c.depth[id]), nil
	}
	if guard > 10000 {
		return 0, fmt.Errorf("sta: clock network loop on net %d", id)
	}
	k := 0
	if n := d.Net(id); n != nil && n.Driver != netlist.NoID {
		in := d.Inst(d.Pin(n.Driver).Inst)
		if in != nil && (in.Kind == netlist.KindClockBuf || in.Kind == netlist.KindClockGate) {
			if inNet := clockInputNet(d, in); inNet != netlist.NoID {
				up, err := e.netDepth(inNet, guard+1)
				if err != nil {
					return 0, err
				}
				k = up + 1
			}
		}
	}
	c.depth[id], c.depthGen[id] = int32(k), c.gen
	return k, nil
}

func (e *Engine) noteClockRegs(n int) {
	e.stats.LastClockRegs = n
	e.stats.ClockRegs += n
}

// regClock returns the register's effective clock arrival: the propagated
// arrival at its clock pin (0 under ideal clocks) plus its useful skew.
func (e *Engine) regClock(in *netlist.Inst) (float64, error) {
	d := e.d
	arr := 0.0
	if cp := d.ClockPin(in); !e.ideal && cp != nil && cp.Net != netlist.NoID {
		base, err := e.netArrival(cp.Net, 0)
		if err != nil {
			return 0, err
		}
		n := d.Net(cp.Net)
		e.clk.dataDep = e.clk.dataDep || !n.IsClock
		wire := 0.0
		if n.Driver != netlist.NoID {
			wire = d.Timing.WireDelayPerDBU *
				float64(d.PinPos(d.Pin(n.Driver)).ManhattanDist(d.PinPos(cp)))
		}
		arr = base + wire
	}
	return arr + e.skew[in.ID], nil
}

// netArrival returns the clock arrival at a net's driver output, memoized
// in the retained state; ideal (0) at roots.
func (e *Engine) netArrival(id netlist.NetID, depth int) (float64, error) {
	d, c := e.d, &e.clk
	if c.netOK[id] {
		return c.netArr[id], nil
	}
	if depth > 10000 {
		return 0, fmt.Errorf("sta: clock network loop on net %d", id)
	}
	v := 0.0 // ideal clock root, port-driven or driven by a non-clock cell
	c.drvPin[id], c.drvPos[id] = netlist.NoID, geom.Point{}
	if n := d.Net(id); n != nil && n.Driver != netlist.NoID {
		c.drvPin[id], c.drvPos[id] = n.Driver, d.PinPos(d.Pin(n.Driver))
		in := d.Inst(d.Pin(n.Driver).Inst)
		if in != nil && (in.Kind == netlist.KindClockBuf || in.Kind == netlist.KindClockGate) {
			// Arrival at the buffer input net + buffer delay.
			inNet := clockInputNet(d, in)
			base := 0.0
			if inNet != netlist.NoID {
				b, err := e.netArrival(inNet, depth+1)
				if err != nil {
					return 0, err
				}
				// Wire delay from upstream driver to this buffer's input
				// pin. When the netlist is inconsistent and the buffer has
				// no sink pin on its own input net, the distance is
				// explicitly zero rather than measured to a made-up pin.
				up := d.Net(inNet)
				c.dataDep = c.dataDep || !up.IsClock
				if up.Driver != netlist.NoID {
					if spos, ok := netSinkPosOnInst(d, up, in); ok {
						b += d.Timing.WireDelayPerDBU *
							float64(d.PinPos(d.Pin(up.Driver)).ManhattanDist(spos))
					}
				}
				base = b
			}
			v = base + in.Comb.Intrinsic + in.Comb.DriveRes*d.NetLoadCap(n)
		}
	}
	c.netArr[id], c.netOK[id] = v, true
	return v, nil
}

// clockInputNet returns the net a clock buffer or gate propagates from:
// its first connected input pin on a clock net or of data kind.
func clockInputNet(d *netlist.Design, in *netlist.Inst) netlist.NetID {
	for _, pid := range in.Pins {
		p := d.Pin(pid)
		if p.Dir == netlist.DirIn && p.Net != netlist.NoID {
			if d.Net(p.Net).IsClock || p.Kind == netlist.PinData {
				return p.Net
			}
		}
	}
	return netlist.NoID
}

// netSinkPosOnInst returns the position of the net's sink pin on the given
// instance. ok is false when the net has no sink there — a broken
// cross-reference; callers must treat the associated wire distance as zero
// instead of inventing a pin position (the old fallback fabricated a
// zero-offset pin at the instance origin, silently measuring a wrong wire
// delay).
func netSinkPosOnInst(d *netlist.Design, n *netlist.Net, in *netlist.Inst) (geom.Point, bool) {
	for _, s := range n.Sinks {
		p := d.Pin(s)
		if p.Inst == in.ID {
			return d.PinPos(p), true
		}
	}
	return geom.Point{}, false
}
