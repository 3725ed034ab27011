// Quickstart: build a tiny placed design by hand, run timing-driven MBR
// composition on it, and print what was merged.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/sta"
)

func main() {
	// A 28nm-like register library with 1/2/4/8-bit MBRs.
	library := lib.MustGenerateDefault()
	class := lib.FuncClass{Kind: lib.FlipFlop, Reset: lib.AsyncReset}
	cell1 := library.CellsOfWidth(class, 1)[0]

	// An empty 100µm × 100µm core (1 DBU = 1 nm).
	d := netlist.NewDesign("quickstart", geom.RectWH(0, 0, 100000, 100000), library)
	d.Timing = netlist.TimingSpec{
		ClockPeriod:     1500,   // ps
		WireCapPerDBU:   0.0002, // fF/nm
		WireDelayPerDBU: 0.004,  // ps/nm
		InputDelay:      100,
		OutputDelay:     100,
	}

	// Eight 1-bit registers in a row, sharing clock and reset — a register
	// bank as logic synthesis would leave it.
	clk := d.AddNet("clk", true)
	rst := d.AddNet("rst", false)
	rstPort, _ := d.AddPort("rst_in", true, geom.Point{X: 0, Y: 0})
	d.Connect(d.OutPin(rstPort), rst)

	var regs []*netlist.Inst
	for i := 0; i < 8; i++ {
		r, err := d.AddRegister(fmt.Sprintf("bank_%d", i), cell1,
			geom.Point{X: 40000 + int64(i)*1500, Y: 48000})
		if err != nil {
			log.Fatal(err)
		}
		d.Connect(d.ClockPin(r), clk)
		d.Connect(d.FindPin(r, netlist.PinReset, 0), rst)
		regs = append(regs, r)
	}

	// Give every bit a driver and a load so it has real timing.
	for i, r := range regs {
		in, _ := d.AddPort(fmt.Sprintf("in_%d", i), true, geom.Point{X: 35000, Y: 48000 + int64(i)*100})
		out, _ := d.AddPort(fmt.Sprintf("out_%d", i), false, geom.Point{X: 60000, Y: 48000 + int64(i)*100})
		dn := d.AddNet(fmt.Sprintf("d%d", i), false)
		qn := d.AddNet(fmt.Sprintf("q%d", i), false)
		d.Connect(d.OutPin(in), dn)
		d.Connect(d.DPin(r, 0), dn)
		d.Connect(d.QPin(r, 0), qn)
		d.Connect(d.FindPin(out, netlist.PinData, 0), qn)
	}

	// Timing analysis → compatibility graph → placement-aware ILP.
	eng := sta.New(d)
	if _, err := eng.RunEndpoints(); err != nil {
		log.Fatal(err)
	}
	g := compat.Build(d, eng, nil, compat.DefaultOptions())
	fmt.Printf("compatibility graph: %d composable registers, %d edges\n",
		len(g.Regs), g.NumEdges())

	cres, err := core.Compose(d, g, nil, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registers: %d -> %d (ILP objective %.3f, %d candidates)\n",
		cres.RegsBefore, cres.RegsAfter, cres.ObjectiveSum, cres.Candidates)
	for _, m := range cres.MBRs {
		fmt.Printf("  new MBR %s: %s (%d bits) at %v\n",
			m.Inst.Name, m.Cell.Name, m.Bits, m.Inst.Pos)
	}
}
