package netlist

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/lib"
)

// SplitRegister replaces a multi-bit register with per-bit instances of
// cell (which must be a 1-bit cell of the same functional class). It is the
// inverse of MergeRegisters and enables the paper's future-work idea:
// decomposing the 8-bit MBRs that composition would otherwise skip, so
// recomposition can regroup their bits with neighbours.
//
// The new registers take the original's control connections, gating group
// and scan partition, and are placed side by side on the original footprint
// (legalization may spread them). Unconnected bits of an incomplete MBR
// produce no instance. Names are <orig>_b<bit>.
func (d *Design) SplitRegister(in *Inst, cell *lib.Cell) ([]*Inst, error) {
	if in == nil || in.dead {
		return nil, fmt.Errorf("netlist: SplitRegister: dead instance")
	}
	if in.Kind != KindReg || in.RegCell == nil {
		return nil, fmt.Errorf("netlist: SplitRegister(%q): not a register", in.Name)
	}
	if in.Fixed || in.SizeOnly {
		return nil, fmt.Errorf("netlist: SplitRegister(%q): fixed/size-only", in.Name)
	}
	if in.Bits() < 2 {
		return nil, fmt.Errorf("netlist: SplitRegister(%q): already single-bit", in.Name)
	}
	if cell.Bits != 1 {
		return nil, fmt.Errorf("netlist: SplitRegister(%q): target cell %q is not 1-bit", in.Name, cell.Name)
	}
	if cell.Class != in.RegCell.Class {
		return nil, fmt.Errorf("netlist: SplitRegister(%q): class mismatch with %q", in.Name, cell.Name)
	}

	type bitConn struct {
		bit  int
		dNet NetID
		qNet NetID
	}
	var conns []bitConn
	for b := 0; b < in.Bits(); b++ {
		dn, qn := pinNet(d.DPin(in, b)), pinNet(d.QPin(in, b))
		if dn == NoID && qn == NoID {
			continue // tied-off bit of an incomplete MBR
		}
		conns = append(conns, bitConn{b, dn, qn})
	}
	if len(conns) == 0 {
		return nil, fmt.Errorf("netlist: SplitRegister(%q): no connected bits", in.Name)
	}
	// Every part name must be free before anything is torn down. AddRegister's
	// only failure mode below is a name collision, so checking here makes the
	// commit phase infallible: a rejected split leaves the design untouched
	// (MergeRegisters gives the same validate-then-commit guarantee, and the
	// serve journal depends on it — failed edits are not journaled, so a
	// surviving mutation would break snapshot replay).
	for _, bc := range conns {
		if ex := d.InstByName(fmt.Sprintf("%s_b%d", in.Name, bc.bit)); ex != nil {
			return nil, fmt.Errorf("netlist: SplitRegister(%q): instance %q already exists", in.Name, ex.Name)
		}
	}
	controls := d.controlNets(in)
	gate, scanPart := in.GateGroup, in.ScanPartition
	origName, origPos := in.Name, in.Pos

	d.RemoveInst(in)

	var out []*Inst
	for i, bc := range conns {
		pos := geom.Point{X: origPos.X + int64(i)*cell.Width, Y: origPos.Y}
		if pos.X+cell.Width > d.Core.Hi.X {
			pos.X = d.Core.Hi.X - cell.Width
		}
		nr, err := d.AddRegister(fmt.Sprintf("%s_b%d", origName, bc.bit), cell, pos)
		if err != nil {
			return nil, err
		}
		nr.GateGroup = gate
		nr.ScanPartition = scanPart
		if bc.dNet != NoID {
			d.Connect(d.DPin(nr, 0), d.nets[bc.dNet])
		}
		if bc.qNet != NoID {
			d.Connect(d.QPin(nr, 0), d.nets[bc.qNet])
		}
		d.connectControls(nr, controls)
		out = append(out, nr)
	}
	return out, nil
}
