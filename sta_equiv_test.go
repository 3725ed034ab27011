package repro

// Equivalence oracle for the incremental STA engine: on every bench
// profile, a retained engine re-run after random register edits must be
// byte-identical — exact float equality, no tolerance — to a fresh
// from-scratch analysis of the same design state, at every worker count.
// Parametric rounds (moves, resizes, skews) exercise the cone
// re-propagation path, merge and split rounds the structural patch, and
// ideal-clock flips the full re-seed over the retained graph.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/cts"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/sta"
)

func sameSTAResults(t *testing.T, ctx string, got, want *sta.Results) {
	t.Helper()
	if len(got.Arrival) != len(want.Arrival) {
		t.Fatalf("%s: pin space differs: %d vs %d", ctx, len(got.Arrival), len(want.Arrival))
	}
	for i := range got.Arrival {
		if got.Arrival[i] != want.Arrival[i] {
			t.Fatalf("%s: arrival[%d] = %v want %v", ctx, i, got.Arrival[i], want.Arrival[i])
		}
		if got.Required[i] != want.Required[i] {
			t.Fatalf("%s: required[%d] = %v want %v", ctx, i, got.Required[i], want.Required[i])
		}
		if got.Slack[i] != want.Slack[i] {
			t.Fatalf("%s: slack[%d] = %v want %v", ctx, i, got.Slack[i], want.Slack[i])
		}
	}
	if got.WNS != want.WNS || got.TNS != want.TNS ||
		got.FailingEndpoints != want.FailingEndpoints ||
		got.TotalEndpoints != want.TotalEndpoints {
		t.Fatalf("%s: summary differs: got WNS=%v TNS=%v fail=%d/%d, want WNS=%v TNS=%v fail=%d/%d",
			ctx, got.WNS, got.TNS, got.FailingEndpoints, got.TotalEndpoints,
			want.WNS, want.TNS, want.FailingEndpoints, want.TotalEndpoints)
	}
	if len(got.ClockArrival) != len(want.ClockArrival) {
		t.Fatalf("%s: clock arrival count differs: %d vs %d",
			ctx, len(got.ClockArrival), len(want.ClockArrival))
	}
	for id, v := range want.ClockArrival {
		if got.ClockArrival[id] != v {
			t.Fatalf("%s: clock arrival[%d] = %v want %v", ctx, id, got.ClockArrival[id], v)
		}
	}
}

// equivRounds are the edit rounds of TestSTAIncrementalEquivalence: the
// operations each may draw from. A flip toggles ideal clocks once, before
// the round's register edits.
var equivRounds = []struct {
	ops  []string
	flip bool
}{
	{ops: []string{"move", "resize", "skew"}},
	{ops: []string{"move", "resize", "skew"}},
	{ops: []string{"move", "resize", "skew", "merge"}},
	{ops: []string{"merge"}},
	{ops: []string{"split"}},
	{ops: []string{"move", "skew"}, flip: true},
	{ops: []string{"move", "resize", "skew", "merge", "split"}, flip: true},
}

// mergePartner returns the first live register from regs[start:] (then
// from the front) that MergeRegisters accepts beside r — same class, same
// control nets, a cell for the combined width — and that cell.
func mergePartner(d *netlist.Design, r *netlist.Inst, regs []*netlist.Inst, start int) (*netlist.Inst, *lib.Cell) {
	for i := range regs {
		o := regs[(start+i)%len(regs)]
		if o == r || d.Inst(o.ID) == nil || o.Fixed || o.SizeOnly || o.RegCell.Class != r.RegCell.Class {
			continue
		}
		same := true
		for _, k := range []netlist.PinKind{netlist.PinClock, netlist.PinReset, netlist.PinEnable, netlist.PinScanEnable} {
			same = same && d.ControlNet(o, k) == d.ControlNet(r, k)
		}
		if cs := d.Lib.CellsOfWidth(r.RegCell.Class, r.Bits()+o.Bits()); same && len(cs) > 0 {
			return o, cs[0]
		}
	}
	return nil, nil
}

func TestSTAIncrementalEquivalence(t *testing.T) {
	workerCounts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		workerCounts = append(workerCounts, n)
	}
	for _, name := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				spec, _ := bench.ProfileByName(name, bench.ProfileOpts{Scale: 40})
				gen, err := bench.Generate(spec)
				if err != nil {
					t.Fatal(err)
				}
				d := gen.Design
				eng := sta.New(d)
				eng.SetWorkers(workers)
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}

				rng := rand.New(rand.NewSource(int64(len(name)*1000 + workers)))
				skews := map[netlist.InstID]float64{}
				ideal := false
				for round, rd := range equivRounds {
					if rd.flip {
						ideal = !ideal
						eng.SetIdealClocks(ideal)
					}
					regs := d.Registers()
					if len(regs) == 0 {
						t.Fatal("no registers")
					}
					nEdit := len(regs) / 100
					if nEdit < 1 {
						nEdit = 1
					}
					for i := 0; i < nEdit; i++ {
						r := regs[rng.Intn(len(regs))]
						if d.Inst(r.ID) == nil || r.Fixed || r.SizeOnly {
							continue // merged or split away earlier this round
						}
						switch rd.ops[rng.Intn(len(rd.ops))] {
						case "move":
							d.MoveInst(r, geom.Point{
								X: r.Pos.X + int64(rng.Intn(4001)) - 2000,
								Y: r.Pos.Y + int64(rng.Intn(4001)) - 2000,
							})
						case "resize":
							cs := d.Lib.CellsOfWidth(r.RegCell.Class, r.RegCell.Bits)
							if len(cs) > 1 {
								if err := d.ResizeRegister(r, cs[rng.Intn(len(cs))]); err != nil {
									t.Fatal(err)
								}
							}
						case "skew":
							s := float64(rng.Intn(41) - 20)
							eng.SetSkew(r.ID, s)
							if s == 0 {
								delete(skews, r.ID)
							} else {
								skews[r.ID] = s
							}
						case "merge":
							o, cell := mergePartner(d, r, regs, rng.Intn(len(regs)))
							if o == nil {
								continue
							}
							mergeName := fmt.Sprintf("eqm_%s_%d_%d_%d", name, workers, round, i)
							if _, err := d.MergeRegisters([]*netlist.Inst{r, o}, cell, mergeName, r.Pos); err != nil {
								t.Fatal(err)
							}
						case "split":
							cs := d.Lib.CellsOfWidth(r.RegCell.Class, 1)
							if r.Bits() < 2 || len(cs) == 0 {
								continue
							}
							// A name collision with an earlier split's parts
							// rejects the split and edits nothing.
							d.SplitRegister(r, cs[0])
						}
					}

					got, err := eng.Run()
					if err != nil {
						t.Fatal(err)
					}
					oracle := sta.New(d)
					oracle.SetWorkers(workers)
					oracle.SetIdealClocks(ideal)
					for id, s := range skews {
						oracle.SetSkew(id, s)
					}
					want, err := oracle.Run()
					if err != nil {
						t.Fatal(err)
					}
					ctx := fmt.Sprintf("round %d (%s)", round, eng.Stats().LastKind)
					sameSTAResults(t, ctx, got, want)
				}
				s := eng.Stats()
				if s.FullBuilds != 1 || s.IncrementalRuns == 0 || s.StructuralDeltas == 0 || s.Reseeds == 0 {
					t.Fatalf("want one build and every retained path engaged: %+v", s)
				}
			})
		}
	}
}

// TestSTAIncrementalEquivalenceUnderCTS runs the same oracle with the
// retained clock-tree engine attached, so incremental runs see buffered,
// gated clock trees change under them: register moves and resizes re-plan
// and re-legalize the trees (CTS-class rewires and buffer moves), a few
// buffers are nudged directly, and skews change. Every run must equal a
// fresh analysis, clock arrivals included, and most must recompute fewer
// clock arrivals than there are registers.
func TestSTAIncrementalEquivalenceUnderCTS(t *testing.T) {
	for _, name := range []string{"D1", "D2", "D3", "D4", "D5"} {
		t.Run(name, func(t *testing.T) {
			spec, _ := bench.ProfileByName(name, bench.ProfileOpts{Scale: 40})
			gen, err := bench.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			d := gen.Design
			ce := cts.NewEngine(d, cts.DefaultOptions())
			if err := ce.Attach(); err != nil {
				t.Fatal(err)
			}
			eng := sta.New(d)
			eng.SetWorkers(1)
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(name) * 31)))
			skews := map[netlist.InstID]float64{}
			local := 0
			for round := 0; round < 6; round++ {
				regs := d.Registers()
				for i := 0; i < 3; i++ {
					r := regs[rng.Intn(len(regs))]
					if r.Fixed || r.SizeOnly {
						continue
					}
					switch rng.Intn(3) {
					case 0:
						d.MoveInst(r, geom.Point{
							X: r.Pos.X + int64(rng.Intn(2001)) - 1000,
							Y: r.Pos.Y + int64(rng.Intn(2001)) - 1000,
						})
					case 1:
						cs := d.Lib.CellsOfWidth(r.RegCell.Class, r.RegCell.Bits)
						if err := d.ResizeRegister(r, cs[rng.Intn(len(cs))]); err != nil {
							t.Fatal(err)
						}
					case 2:
						s := float64(rng.Intn(41) - 20)
						eng.SetSkew(r.ID, s)
						skews[r.ID] = s
					}
				}
				if err := ce.Update(); err != nil {
					t.Fatal(err)
				}
				bufs := ce.Buffers()
				d.WithEditClass(netlist.EditClassCTS, func() {
					for i := 0; i < 2; i++ {
						b := bufs[rng.Intn(len(bufs))]
						d.MoveInst(b, geom.Point{X: b.Pos.X + d.SiteW, Y: b.Pos.Y})
					}
				})

				got, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if s := eng.Stats(); s.LastKind == "incremental" && s.LastClockRegs < len(d.Registers()) {
					local++
				}
				oracle := sta.New(d)
				for id, s := range skews {
					oracle.SetSkew(id, s)
				}
				want, err := oracle.Run()
				if err != nil {
					t.Fatal(err)
				}
				sameSTAResults(t, fmt.Sprintf("round %d", round), got, want)
			}
			if local == 0 {
				t.Fatalf("no run recomputed fewer clock arrivals than there are registers: %+v", eng.Stats())
			}
		})
	}
}
