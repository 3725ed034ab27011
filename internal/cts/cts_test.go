package cts

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

var testLib = lib.MustGenerateDefault()

// sinkDesign builds a design with n 1-bit registers on one clock net.
func sinkDesign(t testing.TB, n int, seed int64) (*netlist.Design, *netlist.Net) {
	t.Helper()
	d := netlist.NewDesign("c", geom.RectWH(0, 0, 200000, 200000), testLib)
	d.Timing.WireCapPerDBU = 0.0002
	clk := d.AddNet("clk", true)
	cell := testLib.CellsOfWidth(lib.FuncClass{Kind: lib.FlipFlop}, 1)[0]
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		r, err := d.AddRegister(fmt.Sprintf("r%d", i), cell,
			geom.Point{X: int64(rng.Intn(190000)), Y: int64(rng.Intn(190000))})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), clk)
	}
	return d, clk
}

func TestBuildSmallTree(t *testing.T) {
	d, clk := sinkDesign(t, 10, 1)
	tree, err := Build(d, clk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root == nil || len(tree.Buffers) == 0 {
		t.Fatal("tree must have a root buffer")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Root net now drives exactly the root buffer.
	if len(clk.Sinks) != 1 {
		t.Fatalf("root net sinks = %d want 1", len(clk.Sinks))
	}
	// Every register clock pin is connected to some clock net.
	d.Insts(func(in *netlist.Inst) {
		if in.Kind == netlist.KindReg {
			cp := d.ClockPin(in)
			if cp.Net == netlist.NoID || !d.Net(cp.Net).IsClock {
				t.Errorf("register %s lost its clock", in.Name)
			}
		}
	})
}

func TestFanoutLimitRespected(t *testing.T) {
	d, clk := sinkDesign(t, 200, 2)
	opts := DefaultOptions()
	opts.MaxFanout = 8
	opts.MaxCap = 1e9 // disable cap limit
	tree, err := Build(d, clk, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Nets(func(n *netlist.Net) {
		if n.IsClock && len(n.Sinks) > opts.MaxFanout {
			t.Errorf("net %q fanout %d exceeds %d", n.Name, len(n.Sinks), opts.MaxFanout)
		}
	})
	if tree.Levels < 2 {
		t.Fatalf("200 sinks at fanout 8 need ≥2 levels, got %d", tree.Levels)
	}
}

func TestCapLimitRespected(t *testing.T) {
	d, clk := sinkDesign(t, 100, 3)
	opts := DefaultOptions()
	opts.MaxFanout = 1000
	opts.MaxCap = 10 // a handful of sinks per buffer
	_, err := Build(d, clk, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Nets(func(n *netlist.Net) {
		if !n.IsClock || len(n.Sinks) == 0 {
			return
		}
		var pinCap float64
		for _, s := range n.Sinks {
			pinCap += d.Pin(s).Cap
		}
		// The clustering limit applies to pin caps it saw at cluster time.
		if pinCap > opts.MaxCap+1e-9 {
			t.Errorf("net %q pin cap %g exceeds %g", n.Name, pinCap, opts.MaxCap)
		}
	})
}

func TestFewerSinksFewerBuffers(t *testing.T) {
	d1, clk1 := sinkDesign(t, 400, 4)
	tree1, err := Build(d1, clk1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d2, clk2 := sinkDesign(t, 100, 4)
	tree2, err := Build(d2, clk2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tree2.Buffers) >= len(tree1.Buffers) {
		t.Fatalf("fewer sinks must need fewer buffers: %d vs %d",
			len(tree2.Buffers), len(tree1.Buffers))
	}
}

func TestMeasure(t *testing.T) {
	d, clk := sinkDesign(t, 50, 5)
	before := Measure(d)
	if before.Sinks != 50 || before.Buffers != 0 {
		t.Fatalf("before: %+v", before)
	}
	if before.TotalCapFF <= 0 || before.WirelengthDBU <= 0 {
		t.Fatalf("before metrics empty: %+v", before)
	}
	if _, err := Build(d, clk, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	after := Measure(d)
	if after.Buffers == 0 {
		t.Fatal("buffers not counted")
	}
	if after.Sinks != 50 {
		t.Fatalf("sinks must be unchanged, got %d", after.Sinks)
	}
	// The summed HPWL of the many small buffered nets is not comparable to
	// the single star net's HPWL (which underestimates a 50-sink route), so
	// only sanity-check the buffered wirelength.
	if after.WirelengthDBU <= 0 {
		t.Fatal("buffered clock wirelength must be positive")
	}
	maxNetSpan := int64(0)
	d.Nets(func(n *netlist.Net) {
		if n.IsClock {
			if wl := d.NetHPWL(n); wl > maxNetSpan {
				maxNetSpan = wl
			}
		}
	})
	if maxNetSpan >= before.WirelengthDBU {
		t.Fatalf("CTS should shorten the longest clock net: %d vs star %d",
			maxNetSpan, before.WirelengthDBU)
	}
}

func TestRemoveRestoresPreCTSState(t *testing.T) {
	d, clk := sinkDesign(t, 60, 6)
	instsBefore := d.NumInsts()
	netsBefore := d.NumNets()
	sinksBefore := len(clk.Sinks)

	tree, err := Build(d, clk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tree.Remove()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumInsts() != instsBefore {
		t.Fatalf("instances: %d want %d", d.NumInsts(), instsBefore)
	}
	if d.NumNets() != netsBefore {
		t.Fatalf("nets: %d want %d", d.NumNets(), netsBefore)
	}
	if len(clk.Sinks) != sinksBefore {
		t.Fatalf("root sinks: %d want %d", len(clk.Sinks), sinksBefore)
	}
}

func TestRebuildAfterComposition(t *testing.T) {
	d, clk := sinkDesign(t, 64, 7)
	tree, err := Build(d, clk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cap1 := Measure(d).TotalCapFF
	bufs1 := len(tree.Buffers)
	tree.Remove()

	// Merge pairs of registers into 2-bit MBRs (halves the sink count).
	regs := d.Registers()
	cell2 := testLib.CellsOfWidth(lib.FuncClass{Kind: lib.FlipFlop}, 2)[0]
	for i := 0; i+1 < len(regs); i += 2 {
		mid := geom.Point{
			X: (regs[i].Pos.X + regs[i+1].Pos.X) / 2,
			Y: (regs[i].Pos.Y + regs[i+1].Pos.Y) / 2,
		}
		if _, err := d.MergeRegisters([]*netlist.Inst{regs[i], regs[i+1]}, cell2,
			fmt.Sprintf("m%d", i), mid); err != nil {
			t.Fatal(err)
		}
	}
	tree2, err := Build(d, clk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cap2 := Measure(d).TotalCapFF
	if cap2 >= cap1 {
		t.Fatalf("composition must cut clock capacitance: %.1f → %.1f", cap1, cap2)
	}
	if len(tree2.Buffers) > bufs1 {
		t.Fatalf("composition must not grow the tree: %d → %d", bufs1, len(tree2.Buffers))
	}
}

func TestBuildValidation(t *testing.T) {
	d, clk := sinkDesign(t, 5, 8)
	if _, err := Build(d, clk, Options{MaxFanout: 1}); err == nil {
		t.Fatal("fanout 1 must be rejected")
	}
	sig := d.AddNet("sig", false)
	if _, err := Build(d, sig, DefaultOptions()); err == nil {
		t.Fatal("non-clock net must be rejected")
	}
}

func TestEmptyClockNet(t *testing.T) {
	d := netlist.NewDesign("e", geom.RectWH(0, 0, 1000, 1000), testLib)
	clk := d.AddNet("clk", true)
	tree, err := Build(d, clk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != nil || len(tree.Buffers) != 0 {
		t.Fatal("empty clock must produce empty tree")
	}
}

// TestTreeConnectivity: every register clock pin must be reachable from the
// root net through the buffer tree (no orphaned subtrees).
func TestTreeConnectivity(t *testing.T) {
	d, clk := sinkDesign(t, 150, 9)
	if _, err := Build(d, clk, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	reach := map[netlist.NetID]bool{clk.ID: true}
	queue := []*netlist.Net{clk}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, s := range n.Sinks {
			p := d.Pin(s)
			in := d.Inst(p.Inst)
			if in == nil || in.Kind != netlist.KindClockBuf {
				continue
			}
			out := d.OutPin(in)
			if out.Net == netlist.NoID || reach[out.Net] {
				continue
			}
			on := d.Net(out.Net)
			reach[on.ID] = true
			queue = append(queue, on)
		}
	}
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg {
			return
		}
		cp := d.ClockPin(in)
		if cp.Net == netlist.NoID || !reach[cp.Net] {
			t.Errorf("register %s unreachable from clock root", in.Name)
		}
	})
}

// TestDeterministicBuild: identical inputs give identical trees.
func TestDeterministicBuild(t *testing.T) {
	build := func() (int, int) {
		d, clk := sinkDesign(t, 120, 10)
		tr, err := Build(d, clk, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return len(tr.Buffers), tr.Levels
	}
	b1, l1 := build()
	b2, l2 := build()
	if b1 != b2 || l1 != l2 {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", b1, l1, b2, l2)
	}
}

// TestSetWorkersZeroMeansPerCPU pins the engine.Retained worker convention:
// 0 (or a negative count) selects one worker per available CPU, like every
// other retained engine, and a positive count is taken literally.
func TestSetWorkersZeroMeansPerCPU(t *testing.T) {
	// Three is neither 1 nor the host's count, so a clamp to the sequential
	// path cannot pass by coincidence.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	d, _ := sinkDesign(t, 8, 1)
	e := NewEngine(d, DefaultOptions())
	for _, c := range []struct{ set, want int }{{0, 3}, {-1, 3}, {1, 1}, {5, 5}} {
		e.SetWorkers(c.set)
		if e.workers != c.want {
			t.Fatalf("SetWorkers(%d): workers = %d, want %d", c.set, e.workers, c.want)
		}
	}
}
