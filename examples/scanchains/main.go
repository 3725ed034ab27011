// Scanchains: demonstrate how scan organization constrains MBR composition
// (§2). The same register bank is composed three times:
//
//  1. unordered chains, cross-chain movement allowed — full freedom;
//  2. one ordered scan section — only contiguous runs may merge, and the
//     merge order inside each MBR preserves the scan order;
//  3. two partitions — registers never merge across the partition line.
//
// After each composition the chains are re-stitched and validated.
//
//	go run ./examples/scanchains
package main

import (
	"fmt"
	"log"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sta"
)

// buildBank creates a 12-register internal-scan bank and a scan plan shaped
// by the given configurator.
func buildBank(makeChains func(p *scan.Plan, ids []netlist.InstID) error) (*netlist.Design, *scan.Plan, error) {
	library := lib.MustGenerateDefault()
	class := lib.FuncClass{Kind: lib.FlipFlop, Reset: lib.AsyncReset, Scan: lib.InternalScan}
	cell := library.CellsOfWidth(class, 1)[0]
	d := netlist.NewDesign("scandemo", geom.RectWH(0, 0, 100000, 100000), library)
	d.Timing = netlist.TimingSpec{
		ClockPeriod: 1500, WireCapPerDBU: 0.0002, WireDelayPerDBU: 0.004,
		InputDelay: 100, OutputDelay: 100,
	}
	clk := d.AddNet("clk", true)
	rst := d.AddNet("rst", false)
	se := d.AddNet("se", false)
	for i, n := range []*netlist.Net{rst, se} {
		p, err := d.AddPort(fmt.Sprintf("ctrl_%d", i), true, geom.Point{X: 0, Y: int64(i) * 1200})
		if err != nil {
			return nil, nil, err
		}
		d.Connect(d.OutPin(p), n)
	}

	var ids []netlist.InstID
	for i := 0; i < 12; i++ {
		r, err := d.AddRegister(fmt.Sprintf("sr_%d", i), cell,
			geom.Point{X: 40000 + int64(i)*1600, Y: 48000})
		if err != nil {
			return nil, nil, err
		}
		d.Connect(d.ClockPin(r), clk)
		d.Connect(d.FindPin(r, netlist.PinReset, 0), rst)
		d.Connect(d.FindPin(r, netlist.PinScanEnable, 0), se)
		ip, _ := d.AddPort(fmt.Sprintf("in_%d", i), true, geom.Point{X: 35000, Y: 48000 + int64(i)*100})
		op, _ := d.AddPort(fmt.Sprintf("out_%d", i), false, geom.Point{X: 62000, Y: 48000 + int64(i)*100})
		dn := d.AddNet(fmt.Sprintf("d%d", i), false)
		qn := d.AddNet(fmt.Sprintf("q%d", i), false)
		d.Connect(d.OutPin(ip), dn)
		d.Connect(d.DPin(r, 0), dn)
		d.Connect(d.QPin(r, 0), qn)
		d.Connect(d.FindPin(op, netlist.PinData, 0), qn)
		ids = append(ids, r.ID)
	}
	plan := scan.NewPlan()
	if err := makeChains(plan, ids); err != nil {
		return nil, nil, err
	}
	return d, plan, nil
}

func compose(d *netlist.Design, plan *scan.Plan) (*core.Result, error) {
	eng := sta.New(d)
	if _, err := eng.RunEndpoints(); err != nil {
		return nil, err
	}
	g := compat.Build(d, eng, plan, compat.DefaultOptions())
	return core.Compose(d, g, plan, core.DefaultOptions())
}

func run(label string, makeChains func(p *scan.Plan, ids []netlist.InstID) error) {
	d, plan, err := buildBank(makeChains)
	if err != nil {
		log.Fatal(err)
	}
	cres, err := compose(d, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-38s registers 12 -> %d, MBR widths:", label, cres.RegsAfter)
	for _, m := range cres.MBRs {
		fmt.Printf(" %d", m.Cell.Bits)
	}
	fmt.Println()
	// Chains survive the merge and can still be stitched in order.
	if err := plan.Validate(d); err != nil {
		log.Fatal(err)
	}
	if err := plan.Stitch(d, "demo"); err != nil {
		log.Fatal(err)
	}
	for _, c := range plan.Chains() {
		fmt.Printf("    chain %d (partition %d, ordered=%v): %d elements\n",
			c.ID, c.Partition, c.Ordered, len(c.Regs))
	}
}

func main() {
	run("unordered, one partition:", func(p *scan.Plan, ids []netlist.InstID) error {
		_, err := p.AddChain(0, false, ids)
		return err
	})
	run("ordered scan section:", func(p *scan.Plan, ids []netlist.InstID) error {
		_, err := p.AddChain(0, true, ids)
		return err
	})
	run("two partitions (6+6):", func(p *scan.Plan, ids []netlist.InstID) error {
		if _, err := p.AddChain(0, false, ids[:6]); err != nil {
			return err
		}
		_, err := p.AddChain(1, false, ids[6:])
		return err
	})
}
