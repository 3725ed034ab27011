// Package netlist is the design database the composition flow operates on:
// instances (registers, combinational cells, clock buffers, ports), pins,
// nets, placement coordinates, clock domains and gating groups, plus the
// editing operations MBR composition needs (merging registers into a
// multi-bit register instance and rewiring its nets).
//
// Electrical units follow the library: picoseconds, femtofarads, kilo-ohms
// (conveniently, kΩ × fF = ps) and integer database units (DBU) for
// geometry.
//
// Concurrency: the read methods (lookups, iteration, NetBBox/NetHPWL/
// NetContrib, InstNets, TouchedSinceClass) write nothing, not even a
// reused buffer, so any number of goroutines may read one Design at once
// (flow's measure syncs its retained engines that way). No read may
// overlap an edit.
package netlist

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/lib"
)

// InstID identifies an instance within a Design. IDs are stable for the
// lifetime of the design; deleted instances leave holes.
type InstID int

// NetID identifies a net within a Design.
type NetID int

// PinID identifies a pin within a Design.
type PinID int

// NoID marks an absent instance/net/pin reference.
const NoID = -1

// InstKind classifies instances.
type InstKind int

// Instance kinds.
const (
	KindComb InstKind = iota
	KindReg
	KindPort
	KindClockBuf
	KindClockGate
)

func (k InstKind) String() string {
	switch k {
	case KindComb:
		return "comb"
	case KindReg:
		return "reg"
	case KindPort:
		return "port"
	case KindClockBuf:
		return "clkbuf"
	case KindClockGate:
		return "clkgate"
	}
	return "?"
}

// PinDir is the signal direction of a pin.
type PinDir int

// Pin directions.
const (
	DirIn PinDir = iota
	DirOut
)

// PinKind classifies pins for timing and compatibility analysis.
type PinKind int

// Pin kinds.
const (
	PinData PinKind = iota // comb input, or register D
	PinOut                 // comb output, or register Q
	PinClock
	PinReset
	PinEnable
	PinScanIn
	PinScanOut
	PinScanEnable
)

func (k PinKind) String() string {
	switch k {
	case PinData:
		return "D"
	case PinOut:
		return "Q"
	case PinClock:
		return "CK"
	case PinReset:
		return "RST"
	case PinEnable:
		return "EN"
	case PinScanIn:
		return "SI"
	case PinScanOut:
		return "SO"
	case PinScanEnable:
		return "SE"
	}
	return "?"
}

// CombSpec is the electrical/physical model of a combinational cell type
// (or clock buffer). Delay from any input to the output is
// Intrinsic + DriveRes × load.
type CombSpec struct {
	Name      string
	NumInputs int
	DriveRes  float64 // kΩ
	Intrinsic float64 // ps
	InCap     float64 // fF per input pin
	Width     int64
	Height    int64
}

// Area returns the footprint area of the spec.
func (c *CombSpec) Area() int64 { return c.Width * c.Height }

// Pin is one connection point of an instance.
type Pin struct {
	ID     PinID
	Inst   InstID
	Net    NetID // NoID when unconnected
	Dir    PinDir
	Kind   PinKind
	Offset lib.PinOffset
	// Bit is the D/Q pair index for register data pins, else 0.
	Bit int
	// Cap is the input capacitance contributed to the net (0 for outputs).
	Cap float64
}

// Inst is a placed instance.
type Inst struct {
	ID   InstID
	Name string
	Kind InstKind
	// RegCell is the library register cell; non-nil iff Kind == KindReg.
	RegCell *lib.Cell
	// Comb is the combinational/buffer model; non-nil for KindComb,
	// KindClockBuf and KindClockGate.
	Comb *CombSpec
	// Pos is the lower-left corner of the footprint.
	Pos geom.Point
	// Fixed instances may not be moved or modified (designer constraint).
	Fixed bool
	// SizeOnly instances may be resized but not merged or moved.
	SizeOnly bool
	// Pins of the instance, in creation order.
	Pins []PinID

	// Register-only attributes:

	// GateGroup identifies the clock-gating enable condition this register
	// is behind; two registers are functionally compatible only when their
	// GateGroup matches. -1 means ungated.
	GateGroup int
	// ScanPartition is the scan chain partition; -1 means unscanned.
	ScanPartition int

	dead bool
}

// Width returns the instance footprint width.
func (i *Inst) Width() int64 {
	switch {
	case i.RegCell != nil:
		return i.RegCell.Width
	case i.Comb != nil:
		return i.Comb.Width
	}
	return 0
}

// Height returns the instance footprint height.
func (i *Inst) Height() int64 {
	switch {
	case i.RegCell != nil:
		return i.RegCell.Height
	case i.Comb != nil:
		return i.Comb.Height
	}
	return 0
}

// Area returns the instance footprint area.
func (i *Inst) Area() int64 { return i.Width() * i.Height() }

// Bounds returns the placed footprint rectangle.
func (i *Inst) Bounds() geom.Rect {
	return geom.RectWH(i.Pos.X, i.Pos.Y, i.Width(), i.Height())
}

// Center returns the footprint center.
func (i *Inst) Center() geom.Point { return i.Bounds().Center() }

// Bits returns the number of register bits (0 for non-registers).
func (i *Inst) Bits() int {
	if i.RegCell == nil {
		return 0
	}
	return i.RegCell.Bits
}

// Net is a signal net.
type Net struct {
	ID     NetID
	Name   string
	Driver PinID // NoID for undriven (e.g. constant/floating) nets
	Sinks  []PinID
	// IsClock marks clock-distribution nets.
	IsClock bool
	dead    bool
	// regDQ counts the register D/Q pins attached to the net, so edits on
	// nets without any (reset, enable, scan-enable stars) skip the member
	// walk in noteNetMembers. An int32 beside the bools keeps Net in the
	// 64-byte size class.
	regDQ int32
}

// TimingSpec carries the design-level timing environment.
type TimingSpec struct {
	// ClockPeriod in picoseconds.
	ClockPeriod float64
	// WireCapPerDBU is routing capacitance per database unit (fF/DBU).
	WireCapPerDBU float64
	// WireDelayPerDBU is the propagation delay per database unit (ps/DBU);
	// the linearized wire-delay abstraction that makes "slack as distance"
	// (§2, placement compatibility) well defined.
	WireDelayPerDBU float64
	// InputDelay / OutputDelay model the external timing at ports (ps).
	InputDelay, OutputDelay float64
}

// MarginalDelayPerDBU is the worst-case extra path delay caused by moving a
// pin one DBU away from its net: the wire propagation component plus the
// capacitance seen by a typical driver.
func (t TimingSpec) MarginalDelayPerDBU(driverRes float64) float64 {
	return t.WireDelayPerDBU + t.WireCapPerDBU*driverRes
}

// Design is a complete placed design.
type Design struct {
	Name string
	// Core is the placeable area.
	Core geom.Rect
	// SiteW and RowH are the legalization grid pitch.
	SiteW, RowH int64
	// Lib is the register library the design is mapped to.
	Lib *lib.Library
	// Timing is the timing environment.
	Timing TimingSpec

	insts []*Inst
	nets  []*Net
	pins  []*Pin
	// live counts the instances not removed, so NumInsts is O(1);
	// Validate recounts it.
	live int

	nameToInst map[string]InstID

	edits editLog
}

// NewDesign returns an empty design.
func NewDesign(name string, core geom.Rect, library *lib.Library) *Design {
	return &Design{
		Name:       name,
		Core:       core,
		SiteW:      100,
		RowH:       1200,
		Lib:        library,
		nameToInst: map[string]InstID{},
	}
}

// NumInsts returns the number of live instances.
func (d *Design) NumInsts() int { return d.live }

// NumNets returns the number of live nets.
func (d *Design) NumNets() int {
	n := 0
	for _, nt := range d.nets {
		if !nt.dead {
			n++
		}
	}
	return n
}

// Inst returns the instance with the given ID, or nil when it was removed
// or never existed.
func (d *Design) Inst(id InstID) *Inst {
	if id < 0 || int(id) >= len(d.insts) || d.insts[id].dead {
		return nil
	}
	return d.insts[id]
}

// RemovedInst returns the record of a removed instance (its kind and its
// pins, all disconnected), or nil when the ID is live or was never issued.
// A retained consumer looks up in its own snapshot what those pins were
// connected to; the design no longer knows.
func (d *Design) RemovedInst(id InstID) *Inst {
	if id < 0 || int(id) >= len(d.insts) || !d.insts[id].dead {
		return nil
	}
	return d.insts[id]
}

// InstByName returns the live instance with the given name, or nil.
func (d *Design) InstByName(name string) *Inst {
	if id, ok := d.nameToInst[name]; ok {
		return d.Inst(id)
	}
	return nil
}

// Net returns the net with the given ID, or nil.
func (d *Design) Net(id NetID) *Net {
	if id < 0 || int(id) >= len(d.nets) || d.nets[id].dead {
		return nil
	}
	return d.nets[id]
}

// Pin returns the pin with the given ID, or nil. Pins of removed instances
// remain addressable but have Inst set to a dead instance; callers
// iterating live structure should go through Insts/Nets.
func (d *Design) Pin(id PinID) *Pin {
	if id < 0 || int(id) >= len(d.pins) {
		return nil
	}
	return d.pins[id]
}

// Insts calls f for every live instance.
func (d *Design) Insts(f func(*Inst)) {
	for _, in := range d.insts {
		if !in.dead {
			f(in)
		}
	}
}

// Nets calls f for every live net.
func (d *Design) Nets(f func(*Net)) {
	for _, n := range d.nets {
		if !n.dead {
			f(n)
		}
	}
}

// Registers returns the live register instances.
func (d *Design) Registers() []*Inst {
	var out []*Inst
	for _, in := range d.insts {
		if !in.dead && in.Kind == KindReg {
			out = append(out, in)
		}
	}
	return out
}

// AddNet creates a net.
func (d *Design) AddNet(name string, isClock bool) *Net {
	n := &Net{ID: NetID(len(d.nets)), Name: name, Driver: NoID, IsClock: isClock}
	d.nets = append(d.nets, n)
	return n
}

// addPin creates a pin on an instance.
func (d *Design) addPin(in *Inst, dir PinDir, kind PinKind, off lib.PinOffset, bit int, cap float64) *Pin {
	p := &Pin{
		ID: PinID(len(d.pins)), Inst: in.ID, Net: NoID,
		Dir: dir, Kind: kind, Offset: off, Bit: bit, Cap: cap,
	}
	d.pins = append(d.pins, p)
	in.Pins = append(in.Pins, p.ID)
	return p
}

// Connect attaches pin p to net n, detaching it from any previous net.
func (d *Design) Connect(p *Pin, n *Net) {
	if p.Net != NoID {
		d.Disconnect(p)
	}
	p.Net = n.ID
	if p.Dir == DirOut {
		if n.Driver != NoID {
			panic(fmt.Sprintf("netlist: net %q already driven", n.Name))
		}
		n.Driver = p.ID
	} else {
		n.Sinks = append(n.Sinks, p.ID)
	}
	if d.isRegDQ(p) {
		n.regDQ++
	}
	if n.IsClock {
		d.noteTouch(p.Inst)
	} else {
		d.noteStructural(p.Inst)
		d.noteNetMembers(n, p.ID)
	}
}

// Disconnect removes pin p from its net, if any.
func (d *Design) Disconnect(p *Pin) {
	if p.Net == NoID {
		return
	}
	n := d.nets[p.Net]
	if n.Driver == p.ID {
		n.Driver = NoID
	} else {
		for i, s := range n.Sinks {
			if s == p.ID {
				n.Sinks = append(n.Sinks[:i], n.Sinks[i+1:]...)
				break
			}
		}
	}
	p.Net = NoID
	if d.isRegDQ(p) {
		n.regDQ--
	}
	if n.IsClock {
		d.noteTouch(p.Inst)
	} else {
		d.noteStructural(p.Inst)
		d.noteNetMembers(n, p.ID)
	}
}

// noteNetMembers records the registers whose D or Q pins sit on the net
// (other than the pin driving the edit) as touched. Data-net membership is
// itself an input to derived per-register state — a register's feasible
// region can be bounded by the positions of the *other* pins of its D/Q
// nets — so a pin joining or leaving a net dirties those registers. The
// record must be made here rather than reconstructed by consumers: the
// editing instance is often removed right after disconnecting, at which
// point its former neighbors are unreachable from the edit log alone.
// Only register data pins are noted: nothing position-derived is cached
// for other members, and high-fanout control stars (reset, enable,
// scan-enable) would flood the ring. Clock nets are exempt for the same
// reason (a clock-net edit records only the editing instance).
func (d *Design) noteNetMembers(n *Net, excl PinID) {
	if n.regDQ == 0 {
		return
	}
	note := func(pid PinID) {
		if pid != excl && d.isRegDQ(d.pins[pid]) {
			d.noteTouch(d.pins[pid].Inst)
		}
	}
	if n.Driver != NoID {
		note(n.Driver)
	}
	for _, s := range n.Sinks {
		note(s)
	}
}

// isRegDQ reports whether p is a register's D or Q pin: the pins
// noteNetMembers notes and Net.regDQ counts.
func (d *Design) isRegDQ(p *Pin) bool {
	if p.Kind != PinData && p.Kind != PinOut {
		return false
	}
	in := d.insts[p.Inst]
	return in != nil && in.Kind == KindReg
}

// InstNets returns the deduplicated live nets the instance's pins are
// connected to, appended to buf; signalOnly skips clock nets. A nil or
// removed instance has none. Incremental consumers (metrics.Tracker,
// route.Engine) snapshot this per instance so an edit can be mapped to
// exactly the nets whose geometry it may have changed — the nets the
// instance was on at the last sync plus the nets it is on now.
func (d *Design) InstNets(id InstID, signalOnly bool, buf []NetID) []NetID {
	in := d.Inst(id)
	if in == nil {
		return buf
	}
	for _, pid := range in.Pins {
		p := d.pins[pid]
		if p.Net == NoID {
			continue
		}
		n := d.nets[p.Net]
		if n.dead || (signalOnly && n.IsClock) {
			continue
		}
		dup := false
		for _, have := range buf {
			if have == n.ID {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, n.ID)
		}
	}
	return buf
}

// PinPos returns the absolute position of a pin.
func (d *Design) PinPos(p *Pin) geom.Point {
	in := d.insts[p.Inst]
	return geom.Point{X: in.Pos.X + p.Offset.DX, Y: in.Pos.Y + p.Offset.DY}
}

// NetBBox returns the bounding box over all connected pins of n; ok is
// false for nets with no connected pins. It folds min/max in one pass over
// the pins and allocates nothing, so the per-net helpers built on it
// (NetHPWL, NetContrib, NetLoadCap) are allocation-free too.
func (d *Design) NetBBox(n *Net) (geom.Rect, bool) {
	first, sinks := n.Driver, n.Sinks
	if first == NoID {
		if len(sinks) == 0 {
			return geom.Rect{}, false
		}
		first, sinks = sinks[0], sinks[1:]
	}
	p := d.PinPos(d.pins[first])
	r := geom.Rect{Lo: p, Hi: p}
	for _, s := range sinks {
		p := d.PinPos(d.pins[s])
		r.Lo.X = min(r.Lo.X, p.X)
		r.Lo.Y = min(r.Lo.Y, p.Y)
		r.Hi.X = max(r.Hi.X, p.X)
		r.Hi.Y = max(r.Hi.Y, p.Y)
	}
	return r, true
}

// NetHPWL returns the half-perimeter wirelength of n in DBU.
func (d *Design) NetHPWL(n *Net) int64 {
	bb, ok := d.NetBBox(n)
	if !ok {
		return 0
	}
	return bb.HalfPerimeter()
}

// Wirelength sums HPWL over live nets, split into clock and signal
// components.
func (d *Design) Wirelength() (clock, signal int64) {
	for _, n := range d.nets {
		if n.dead {
			continue
		}
		wl := d.NetHPWL(n)
		if n.IsClock {
			clock += wl
		} else {
			signal += wl
		}
	}
	return clock, signal
}

// NetContrib returns one net's contribution to the design-level metrics:
// its load capacitance (connected sink pin caps plus routing capacitance
// estimated from HPWL) and its HPWL, computing the bounding box once. It is
// the single per-net helper both the batch measurers (cts.Measure,
// Wirelength) and the retained metric caches (cts.Engine, metrics.Tracker)
// share, so cached and recomputed values agree bit-for-bit by construction.
func (d *Design) NetContrib(n *Net) (capFF float64, hpwl int64) {
	for _, s := range n.Sinks {
		capFF += d.pins[s].Cap
	}
	hpwl = d.NetHPWL(n)
	return capFF + d.Timing.WireCapPerDBU*float64(hpwl), hpwl
}

// NetLoadCap returns the total capacitance the net's driver sees: connected
// sink pin caps plus routing capacitance estimated from HPWL.
func (d *Design) NetLoadCap(n *Net) float64 {
	c, _ := d.NetContrib(n)
	return c
}

// TotalArea sums footprint area over live instances.
func (d *Design) TotalArea() int64 {
	var a int64
	for _, in := range d.insts {
		if !in.dead {
			a += in.Area()
		}
	}
	return a
}

// Validate checks structural invariants: pin/net cross references, driver
// uniqueness, each net's kept register D/Q pin count, the kept live
// instance count, live instances inside the core, register pin counts
// matching their library cell. It returns the first problem found.
func (d *Design) Validate() error {
	for _, n := range d.nets {
		if n.dead {
			continue
		}
		if n.Driver != NoID {
			p := d.Pin(n.Driver)
			if p == nil || p.Net != n.ID || p.Dir != DirOut {
				return fmt.Errorf("net %q: bad driver pin", n.Name)
			}
			if d.insts[p.Inst].dead {
				return fmt.Errorf("net %q: driver on dead instance", n.Name)
			}
		}
		regDQ := int32(0)
		if n.Driver != NoID && d.isRegDQ(d.pins[n.Driver]) {
			regDQ++
		}
		for _, s := range n.Sinks {
			p := d.Pin(s)
			if p == nil || p.Net != n.ID || p.Dir != DirIn {
				return fmt.Errorf("net %q: bad sink pin %d", n.Name, s)
			}
			if d.insts[p.Inst].dead {
				return fmt.Errorf("net %q: sink on dead instance", n.Name)
			}
			if d.isRegDQ(p) {
				regDQ++
			}
		}
		if regDQ != n.regDQ {
			return fmt.Errorf("net %q: %d register D/Q pins, count kept %d", n.Name, regDQ, n.regDQ)
		}
	}
	live := 0
	for _, in := range d.insts {
		if in.dead {
			continue
		}
		live++
		if in.Kind == KindReg {
			if in.RegCell == nil {
				return fmt.Errorf("inst %q: register without cell", in.Name)
			}
			nd, nq := 0, 0
			for _, pid := range in.Pins {
				switch d.pins[pid].Kind {
				case PinData:
					nd++
				case PinOut:
					nq++
				}
			}
			if nd != in.RegCell.Bits || nq != in.RegCell.Bits {
				return fmt.Errorf("inst %q: %d D / %d Q pins for %d-bit cell",
					in.Name, nd, nq, in.RegCell.Bits)
			}
		}
		for _, pid := range in.Pins {
			if d.pins[pid].Inst != in.ID {
				return fmt.Errorf("inst %q: pin %d back-reference broken", in.Name, pid)
			}
		}
	}
	if live != d.live {
		return fmt.Errorf("%d live instances, count kept %d", live, d.live)
	}
	return nil
}
