package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// Bank merges group into one MBR of cell named name at pos. It is the one
// bank step: composition's commit, the merge edit and the restore pass all
// call it. Every check runs before the first mutation — the netlist's merge
// rules with the members' clock roots compared (Design.CheckMerge), and the
// scan group rule when plan is set — so a rejected bank leaves the design
// and the plan untouched. Bank then packs the members in scan order
// (Plan.MergeOrder; the given order when unscanned), releases their clock
// pins to the domain root (release may be nil when no clock tree is
// attached), merges them and hands their scan-chain slot to the MBR.
//
// release must land each member's clock pin on its clock root, as
// cts.Engine.ReleaseClocks does for the trees it built; the merge then
// sees one clock net.
func Bank(
	d *netlist.Design,
	plan *scan.Plan,
	release func([]*netlist.Inst),
	group []*netlist.Inst,
	cell *lib.Cell,
	name string,
	pos geom.Point,
) (*netlist.MergeResult, error) {
	if err := d.CheckMerge(group, cell, name); err != nil {
		return nil, err
	}
	if plan != nil {
		if !plan.GroupCompatible(netlist.IDs(group)) {
			return nil, fmt.Errorf("core: bank %q: group is not scan-compatible", name)
		}
		group = mergeOrder(d, plan, group)
	}
	if release != nil {
		release(group)
	}
	mr, err := d.MergeRegisters(group, cell, name, pos)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		if err := plan.ApplyMerge(netlist.IDs(group), mr.MBR.ID); err != nil {
			return nil, err
		}
	}
	return mr, nil
}

// Debank splits the multi-bit register in into single-bit registers of
// cell (nil: the 1-bit cell of its class at its drive strength) and hands
// its scan-chain slot to the parts. It is the one debank step: the split
// edit and the decompose pass call it. SplitRegister checks everything
// before it mutates, and the parts are new instances no chain holds, so a
// rejected debank leaves no trace.
func Debank(d *netlist.Design, plan *scan.Plan, in *netlist.Inst, cell *lib.Cell) ([]*netlist.Inst, error) {
	if cell == nil && in.RegCell != nil {
		if cell = d.Lib.SelectCell(in.RegCell.Class, 1, in.RegCell.DriveRes); cell == nil {
			return nil, fmt.Errorf("core: no 1-bit cell for class %s", in.RegCell.Class.Key())
		}
	}
	parts, err := d.SplitRegister(in, cell)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		if err := plan.ApplySplit(in.ID, netlist.IDs(parts)); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// mergeOrder returns group in the order Plan.MergeOrder packs it: chain
// order when scanned, so the MBR's internal chain keeps the scan order.
func mergeOrder(d *netlist.Design, plan *scan.Plan, group []*netlist.Inst) []*netlist.Inst {
	ids := plan.MergeOrder(netlist.IDs(group))
	out := make([]*netlist.Inst, len(ids))
	for i, id := range ids {
		out[i] = d.Inst(id)
	}
	return out
}
