package netlist

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/lib"
)

func (d *Design) newInst(name string, kind InstKind, pos geom.Point) (*Inst, error) {
	if _, dup := d.nameToInst[name]; dup {
		if old := d.InstByName(name); old != nil {
			return nil, fmt.Errorf("netlist: duplicate instance name %q", name)
		}
	}
	in := &Inst{
		ID: InstID(len(d.insts)), Name: name, Kind: kind, Pos: pos,
		GateGroup: -1, ScanPartition: -1,
	}
	d.insts = append(d.insts, in)
	d.live++
	d.nameToInst[name] = in.ID
	// Creation is an edit too: without this, an instance that is added but
	// never connected (or whose creation-time parameters matter, like the
	// position) would be invisible to touched-record consumers.
	d.noteTouch(in.ID)
	return in, nil
}

// AddComb adds a combinational instance of the given spec. Its input pins
// (kind PinData) and single output pin (PinOut) are created immediately and
// may be connected afterwards.
func (d *Design) AddComb(name string, spec *CombSpec, pos geom.Point) (*Inst, error) {
	in, err := d.newInst(name, KindComb, pos)
	if err != nil {
		return nil, err
	}
	in.Comb = spec
	d.addCombPins(in, spec)
	return in, nil
}

// AddClockBuf adds a clock buffer (1 input, 1 output) instance.
func (d *Design) AddClockBuf(name string, spec *CombSpec, pos geom.Point) (*Inst, error) {
	in, err := d.newInst(name, KindClockBuf, pos)
	if err != nil {
		return nil, err
	}
	in.Comb = spec
	d.addCombPins(in, spec)
	return in, nil
}

// AddClockGate adds an integrated clock gate (clock input, enable input,
// gated clock output).
func (d *Design) AddClockGate(name string, spec *CombSpec, pos geom.Point) (*Inst, error) {
	in, err := d.newInst(name, KindClockGate, pos)
	if err != nil {
		return nil, err
	}
	in.Comb = spec
	d.addCombPins(in, spec)
	return in, nil
}

func (d *Design) addCombPins(in *Inst, spec *CombSpec) {
	for i := 0; i < spec.NumInputs; i++ {
		off := lib.PinOffset{DX: spec.Width * int64(2*i+1) / int64(2*spec.NumInputs+2), DY: spec.Height / 4}
		d.addPin(in, DirIn, PinData, off, i, spec.InCap)
	}
	d.addPin(in, DirOut, PinOut, lib.PinOffset{DX: spec.Width, DY: spec.Height / 2}, 0, 0)
}

// AddPort adds a fixed I/O port instance with a single pin of the given
// direction ("in" port drives the net, so its pin direction is DirOut).
func (d *Design) AddPort(name string, isInput bool, pos geom.Point) (*Inst, error) {
	in, err := d.newInst(name, KindPort, pos)
	if err != nil {
		return nil, err
	}
	in.Fixed = true
	dir := DirIn
	if isInput {
		dir = DirOut
	}
	d.addPin(in, dir, PinData, lib.PinOffset{}, 0, 1.0)
	return in, nil
}

// AddRegister adds a register instance of the given library cell at pos.
// Pins are created according to the cell: one D and one Q per bit, a clock
// pin, plus reset/enable/scan pins as the functional class requires.
func (d *Design) AddRegister(name string, cell *lib.Cell, pos geom.Point) (*Inst, error) {
	if cell == nil {
		return nil, fmt.Errorf("netlist: AddRegister(%q) with nil cell", name)
	}
	in, err := d.newInst(name, KindReg, pos)
	if err != nil {
		return nil, err
	}
	in.RegCell = cell
	for b := 0; b < cell.Bits; b++ {
		d.addPin(in, DirIn, PinData, cell.DPins[b], b, cell.DPinCap)
	}
	for b := 0; b < cell.Bits; b++ {
		d.addPin(in, DirOut, PinOut, cell.QPins[b], b, 0)
	}
	d.addPin(in, DirIn, PinClock, cell.ClkPin, 0, cell.ClkCap)
	if cell.Class.Reset != lib.NoReset {
		d.addPin(in, DirIn, PinReset, lib.PinOffset{DX: 0, DY: cell.Height / 2}, 0, cell.DPinCap)
	}
	if cell.Class.HasEnable {
		d.addPin(in, DirIn, PinEnable, lib.PinOffset{DX: 0, DY: cell.Height / 3}, 0, cell.DPinCap)
	}
	switch cell.Class.Scan {
	case lib.InternalScan:
		d.addPin(in, DirIn, PinScanIn, cell.DPins[0], 0, cell.DPinCap)
		d.addPin(in, DirOut, PinScanOut, cell.QPins[cell.Bits-1], cell.Bits-1, 0)
		d.addPin(in, DirIn, PinScanEnable, lib.PinOffset{DX: 0, DY: cell.Height / 5}, 0, cell.DPinCap)
	case lib.ExternalScan:
		for b := 0; b < cell.Bits; b++ {
			d.addPin(in, DirIn, PinScanIn, cell.DPins[b], b, cell.DPinCap)
			d.addPin(in, DirOut, PinScanOut, cell.QPins[b], b, 0)
		}
		d.addPin(in, DirIn, PinScanEnable, lib.PinOffset{DX: 0, DY: cell.Height / 5}, 0, cell.DPinCap)
	}
	return in, nil
}

// FindPin returns the first pin of the instance with the given kind and
// bit, or nil.
func (d *Design) FindPin(in *Inst, kind PinKind, bit int) *Pin {
	for _, pid := range in.Pins {
		p := d.pins[pid]
		if p.Kind == kind && p.Bit == bit {
			return p
		}
	}
	return nil
}

// DPin returns the D pin for the given bit of a register.
func (d *Design) DPin(in *Inst, bit int) *Pin { return d.FindPin(in, PinData, bit) }

// QPin returns the Q pin for the given bit of a register.
func (d *Design) QPin(in *Inst, bit int) *Pin { return d.FindPin(in, PinOut, bit) }

// ClockPin returns the clock pin of a register/buffer, or nil.
func (d *Design) ClockPin(in *Inst) *Pin { return d.FindPin(in, PinClock, 0) }

// ControlNet returns the net driving the first pin of the given kind on the
// instance, or NoID. Used by functional-compatibility checks (same reset
// net, same enable net, ...).
func (d *Design) ControlNet(in *Inst, kind PinKind) NetID {
	if p := d.FindPin(in, kind, 0); p != nil {
		return p.Net
	}
	return NoID
}

// ClockNet returns the net on the register's clock pin, or NoID.
func (d *Design) ClockNet(in *Inst) NetID { return d.ControlNet(in, PinClock) }

// ClockRootNet resolves a clock net to its distribution root: it walks up
// through clock-buffer drivers (KindClockBuf) to the net the buffer chain
// is fed from, stopping at clock gates, ports or undriven nets. With no
// buffered tree present it is the identity, so consumers that key on the
// root (compatibility signatures) are invariant to whether a retained
// clock tree is currently attached and to which leaf a sink is parented.
func (d *Design) ClockRootNet(id NetID) NetID {
	for depth := 0; depth < 256; depth++ {
		n := d.Net(id)
		if n == nil || n.Driver == NoID {
			return id
		}
		drv := d.pins[n.Driver]
		in := d.Inst(drv.Inst)
		if in == nil || in.Kind != KindClockBuf {
			return id
		}
		up := NetID(NoID)
		for _, pid := range in.Pins {
			p := d.pins[pid]
			if p.Dir == DirIn && p.Net != NoID {
				up = p.Net
				break
			}
		}
		if up == NoID {
			return id
		}
		id = up
	}
	return id
}

// OutPin returns the output pin of a comb/buffer/port instance, or nil.
func (d *Design) OutPin(in *Inst) *Pin {
	for _, pid := range in.Pins {
		p := d.pins[pid]
		if p.Dir == DirOut {
			return p
		}
	}
	return nil
}
