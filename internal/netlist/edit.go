package netlist

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/lib"
)

// RemoveInst disconnects every pin of the instance and deletes it from the
// design. Its nets survive (possibly driverless or sinkless).
func (d *Design) RemoveInst(in *Inst) {
	if in.dead {
		return
	}
	for _, pid := range in.Pins {
		d.Disconnect(d.pins[pid])
	}
	in.dead = true
	d.live--
	delete(d.nameToInst, in.Name)
	d.noteTouch(in.ID)
}

// RemoveNet deletes a net; it must have no connected pins.
func (d *Design) RemoveNet(n *Net) error {
	if n.Driver != NoID || len(n.Sinks) > 0 {
		return fmt.Errorf("netlist: RemoveNet(%q): net still connected", n.Name)
	}
	n.dead = true
	return nil
}

// MoveInst repositions an instance. All position edits must go through
// this method (never assign Inst.Pos directly): it records the move in the
// edit log so incremental timing can invalidate the instance's
// neighbourhood.
func (d *Design) MoveInst(in *Inst, pos geom.Point) {
	if in.Pos == pos {
		// A no-op move changes nothing an engine could observe; noting it
		// would still send every retained reader over the instance (the
		// legalizer calls MoveInst for every settled instance, displaced
		// or not).
		return
	}
	in.Pos = pos
	d.noteTouch(in.ID)
}

// SetFixed sets the placement-fixed flag through the edit log: the flag
// feeds composability analysis, so flipping it must dirty the instance.
func (d *Design) SetFixed(in *Inst, v bool) {
	if in.Fixed != v {
		in.Fixed = v
		d.noteTouch(in.ID)
	}
}

// SetSizeOnly sets the size-only optimization restriction; epoch-logged
// like SetFixed.
func (d *Design) SetSizeOnly(in *Inst, v bool) {
	if in.SizeOnly != v {
		in.SizeOnly = v
		d.noteTouch(in.ID)
	}
}

// SetGateGroup assigns the clock-gating group; epoch-logged (the group is
// part of functional compatibility).
func (d *Design) SetGateGroup(in *Inst, g int) {
	if in.GateGroup != g {
		in.GateGroup = g
		d.noteTouch(in.ID)
	}
}

// SetScanPartition assigns the scan partition; epoch-logged.
func (d *Design) SetScanPartition(in *Inst, p int) {
	if in.ScanPartition != p {
		in.ScanPartition = p
		d.noteTouch(in.ID)
	}
}

// BitAssignment records where one original register bit landed in a merged
// MBR.
type BitAssignment struct {
	// Src is the original register instance (dead after the merge).
	Src InstID
	// SrcBit is the bit index within the original register.
	SrcBit int
	// DstBit is the bit index within the new MBR.
	DstBit int
}

// MergeResult describes a completed register merge.
type MergeResult struct {
	MBR *Inst
	// Assignment maps every original bit to its slot in the MBR, in
	// ascending DstBit order.
	Assignment []BitAssignment
	// UnusedBits counts tied-off D/Q pairs (incomplete MBR slots).
	UnusedBits int
}

// CheckMerge returns why MergeRegisters would reject merging group into
// one instance of cell named name once every member's clock pin hangs on
// its clock root, and nil when it would accept. The rules are structural (semantic compatibility —
// timing, placement, scan ordering — is the caller's concern, see
// internal/compat): every member is a live, movable register of cell's
// functional class, listed once; the bits fit the cell; the name is free,
// a member's own name excepted, since the member dies in the merge; and
// the members agree on their clock root (Design.ClockRootNet) and on their
// reset, enable and scan-enable nets, so the MBR's shared control pins can
// be connected. It only reads the design.
func (d *Design) CheckMerge(group []*Inst, cell *lib.Cell, name string) error {
	if len(group) == 0 {
		return fmt.Errorf("netlist: merge with empty group")
	}
	totalBits := 0
	members := make(map[InstID]bool, len(group))
	for _, in := range group {
		switch {
		case in == nil || in.dead:
			return fmt.Errorf("netlist: merge: dead instance in group")
		case in.Kind != KindReg:
			return fmt.Errorf("netlist: merge: %q is not a register", in.Name)
		case in.Fixed || in.SizeOnly:
			return fmt.Errorf("netlist: merge: %q is fixed/size-only", in.Name)
		case members[in.ID]:
			return fmt.Errorf("netlist: merge: %q listed twice", in.Name)
		case in.RegCell.Class != cell.Class:
			return fmt.Errorf("netlist: merge: %q is not of cell %q's class %s", in.Name, cell.Name, cell.Class.Key())
		}
		members[in.ID] = true
		totalBits += in.Bits()
	}
	if ex := d.InstByName(name); ex != nil && !members[ex.ID] {
		return fmt.Errorf("netlist: merge: instance %q already exists", name)
	}
	if totalBits > cell.Bits {
		return fmt.Errorf("netlist: merge: %d bits exceed %d-bit cell", totalBits, cell.Bits)
	}
	root := d.ClockRootNet(d.ClockNet(group[0]))
	for _, in := range group[1:] {
		if d.ClockRootNet(d.ClockNet(in)) != root {
			return fmt.Errorf("netlist: merge: %q disagrees on clock root", in.Name)
		}
	}
	for _, kind := range controlKinds[1:] { // the clock is compared by root above
		ref := d.ControlNet(group[0], kind)
		for _, in := range group[1:] {
			if d.ControlNet(in, kind) != ref {
				return fmt.Errorf("netlist: merge: %q disagrees on %v net", in.Name, kind)
			}
		}
	}
	return nil
}

// MergeRegisters replaces the register instances in group with one new
// instance of cell placed at pos. The group's bits are packed into the
// MBR's low bits in group order; remaining bits (for incomplete MBRs) stay
// unconnected. It runs every check before it tears anything down, so a
// rejected merge leaves the design untouched: the CheckMerge rules, and the
// members' clock pins on one net (the MBR has one clock pin; members under
// different leaves of a clock tree must be released to their root first).
func (d *Design) MergeRegisters(group []*Inst, cell *lib.Cell, name string, pos geom.Point) (*MergeResult, error) {
	if err := d.CheckMerge(group, cell, name); err != nil {
		return nil, err
	}
	clockNet := d.ClockNet(group[0])
	for _, in := range group[1:] {
		if d.ClockNet(in) != clockNet {
			return nil, fmt.Errorf("netlist: merge: %q disagrees on %v net", in.Name, PinClock)
		}
	}
	// Record original connectivity before tearing anything down.
	type bitConn struct {
		src    InstID
		srcBit int
		dNet   NetID
		qNet   NetID
	}
	var conns []bitConn
	for _, in := range group {
		for b := 0; b < in.Bits(); b++ {
			conns = append(conns, bitConn{
				src: in.ID, srcBit: b,
				dNet: pinNet(d.DPin(in, b)), qNet: pinNet(d.QPin(in, b)),
			})
		}
	}
	controls := d.controlNets(group[0])
	gateGroup := group[0].GateGroup
	scanPart := group[0].ScanPartition

	for _, in := range group {
		d.RemoveInst(in)
	}

	mbr, err := d.AddRegister(name, cell, pos)
	if err != nil {
		return nil, err
	}
	mbr.GateGroup = gateGroup
	mbr.ScanPartition = scanPart

	res := &MergeResult{MBR: mbr, UnusedBits: cell.Bits - len(conns)}
	for k, bc := range conns {
		if bc.dNet != NoID {
			d.Connect(d.DPin(mbr, k), d.nets[bc.dNet])
		}
		if bc.qNet != NoID {
			d.Connect(d.QPin(mbr, k), d.nets[bc.qNet])
		}
		res.Assignment = append(res.Assignment, BitAssignment{Src: bc.src, SrcBit: bc.srcBit, DstBit: k})
	}
	d.connectControls(mbr, controls)
	return res, nil
}

// controlKinds are the shared control pins a merge or a split carries
// over from the registers it replaces, in connection order.
var controlKinds = [...]PinKind{PinClock, PinReset, PinEnable, PinScanEnable}

// controlNets returns the nets on in's controlKinds pins.
func (d *Design) controlNets(in *Inst) (nets [len(controlKinds)]NetID) {
	for i, kind := range controlKinds {
		nets[i] = d.ControlNet(in, kind)
	}
	return nets
}

// connectControls connects in's controlKinds pins to nets (controlNets'
// order), skipping absent pins and nets.
func (d *Design) connectControls(in *Inst, nets [len(controlKinds)]NetID) {
	for i, kind := range controlKinds {
		if p := d.FindPin(in, kind, 0); p != nil && nets[i] != NoID {
			d.Connect(p, d.nets[nets[i]])
		}
	}
}

func pinNet(p *Pin) NetID {
	if p == nil {
		return NoID
	}
	return p.Net
}

// ResizeRegister swaps a register's library cell for another of the same
// functional class and bit width (MBR sizing, Fig. 4 "MBR optimization").
// Pin offsets and capacitances are updated in place; connectivity is
// preserved.
func (d *Design) ResizeRegister(in *Inst, cell *lib.Cell) error {
	if in.Kind != KindReg || in.RegCell == nil {
		return fmt.Errorf("netlist: ResizeRegister(%q): not a register", in.Name)
	}
	if in.Fixed {
		return fmt.Errorf("netlist: ResizeRegister(%q): instance fixed", in.Name)
	}
	if cell.Class != in.RegCell.Class || cell.Bits != in.RegCell.Bits {
		return fmt.Errorf("netlist: ResizeRegister(%q): %s incompatible with %s",
			in.Name, cell.Name, in.RegCell.Name)
	}
	in.RegCell = cell
	for _, pid := range in.Pins {
		p := d.pins[pid]
		switch p.Kind {
		case PinData:
			p.Offset = cell.DPins[p.Bit]
			p.Cap = cell.DPinCap
		case PinOut:
			p.Offset = cell.QPins[p.Bit]
		case PinClock:
			p.Offset = cell.ClkPin
			p.Cap = cell.ClkCap
		}
	}
	d.noteTouch(in.ID)
	return nil
}
