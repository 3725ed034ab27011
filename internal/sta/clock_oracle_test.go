package sta

import (
	"fmt"

	"repro/internal/netlist"
)

// clockArrivals is the oracle of the engine's retained clock arrivals:
// it propagates clock delay from clock sources (ports or undriven clock
// nets, which are treated as ideal) through clock buffers and gates —
// chains of gates compose — to every register's clock pin, from the live
// netlist alone, with a memo that lives for one call. The engine computed
// every run's arrivals this way before it kept them between runs.
func (e *Engine) clockArrivals() (map[netlist.InstID]float64, error) {
	d := e.d
	arr := map[netlist.InstID]float64{}
	if e.ideal {
		d.Insts(func(in *netlist.Inst) {
			if in.Kind == netlist.KindReg {
				arr[in.ID] = 0
			}
		})
		return arr, nil
	}

	// netArrival computes arrival at a clock net's driver output,
	// memoized; ideal (0) at roots.
	memo := map[netlist.NetID]float64{}
	var netArrival func(id netlist.NetID, depth int) (float64, error)
	netArrival = func(id netlist.NetID, depth int) (float64, error) {
		if v, ok := memo[id]; ok {
			return v, nil
		}
		if depth > 10000 {
			return 0, fmt.Errorf("sta: clock network loop on net %d", id)
		}
		n := d.Net(id)
		if n == nil || n.Driver == netlist.NoID {
			memo[id] = 0 // ideal clock root
			return 0, nil
		}
		drv := d.Pin(n.Driver)
		in := d.Inst(drv.Inst)
		if in == nil {
			memo[id] = 0
			return 0, nil
		}
		switch in.Kind {
		case netlist.KindPort:
			memo[id] = 0
			return 0, nil
		case netlist.KindClockBuf, netlist.KindClockGate:
			// Arrival at the buffer input net + buffer delay.
			var inNet netlist.NetID = netlist.NoID
			for _, pid := range in.Pins {
				p := d.Pin(pid)
				if p.Dir == netlist.DirIn && p.Net != netlist.NoID {
					pn := d.Net(p.Net)
					if pn.IsClock || p.Kind == netlist.PinData {
						inNet = p.Net
						break
					}
				}
			}
			base := 0.0
			if inNet != netlist.NoID {
				b, err := netArrival(inNet, depth+1)
				if err != nil {
					return 0, err
				}
				// Wire delay from upstream driver to this buffer's input
				// pin. When the netlist is inconsistent and the buffer has
				// no sink pin on its own input net, the distance is
				// explicitly zero rather than measured to a made-up pin.
				up := d.Net(inNet)
				if up.Driver != netlist.NoID {
					if spos, ok := netSinkPosOnInst(d, up, in); ok {
						b += d.Timing.WireDelayPerDBU *
							float64(d.PinPos(d.Pin(up.Driver)).ManhattanDist(spos))
					}
				}
				base = b
			}
			load := d.NetLoadCap(n)
			v := base + in.Comb.Intrinsic + in.Comb.DriveRes*load
			memo[id] = v
			return v, nil
		default:
			memo[id] = 0
			return 0, nil
		}
	}

	var firstErr error
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || firstErr != nil {
			return
		}
		cp := d.ClockPin(in)
		if cp == nil || cp.Net == netlist.NoID {
			arr[in.ID] = 0
			return
		}
		base, err := netArrival(cp.Net, 0)
		if err != nil {
			firstErr = err
			return
		}
		n := d.Net(cp.Net)
		wire := 0.0
		if n.Driver != netlist.NoID {
			wire = d.Timing.WireDelayPerDBU *
				float64(d.PinPos(d.Pin(n.Driver)).ManhattanDist(d.PinPos(cp)))
		}
		arr[in.ID] = base + wire
	})
	return arr, firstErr
}
