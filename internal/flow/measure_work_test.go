package flow

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
)

// mortonKey interleaves the position's ~1µm-granular bits, so sorting by
// it walks the core along a locality-preserving curve.
func mortonKey(p [2]int64) uint64 {
	x, y := uint64(p[0])>>10, uint64(p[1])>>10
	var m uint64
	for b := 0; b < 32; b++ {
		m |= (x>>b&1)<<(2*b) | (y>>b&1)<<(2*b+1)
	}
	return m
}

// measureWork is what the served measures of one parametric stream cost in
// the engines' deterministic work counters.
type measureWork struct {
	measures, clockRegs int
}

// runParametricStream drives the load harness's parametric stream shape
// on a fresh D1 session at the given scale: CTS re-center hysteresis of
// 4000 DBU, two streams over the first two 10-register Morton windows, 150
// batches each of 10 edits with at most one move or resize (the rest
// skews), a measure after each batch. It checks each steady-state
// measure's CTS and STA counters as it goes.
func runParametricStream(t *testing.T, scale int) measureWork {
	t.Helper()
	gen, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: scale}))
	if err != nil {
		t.Fatal(err)
	}
	d := gen.Design
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.CTS.Tree.RecenterThresholdDBU = 4000
	s, err := NewSession(d, gen.Plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type reg struct {
		name  string
		pos   [2]int64
		cells []string
	}
	var regs []reg
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || in.Fixed || in.RegCell == nil {
			return
		}
		r := reg{name: in.Name, pos: [2]int64{in.Pos.X, in.Pos.Y}}
		for _, c := range d.Lib.CellsOfWidth(in.RegCell.Class, in.RegCell.Bits) {
			if c.Name == in.RegCell.Name {
				r.cells = append([]string{c.Name}, r.cells...)
			} else {
				r.cells = append(r.cells, c.Name)
			}
		}
		regs = append(regs, r)
	})
	slices.SortFunc(regs, func(a, b reg) int {
		return cmp.Or(cmp.Compare(mortonKey(a.pos), mortonKey(b.pos)), strings.Compare(a.name, b.name))
	})
	if _, err := s.Measure(); err != nil { // warmup
		t.Fatal(err)
	}
	var w measureWork
	for idx := 0; idx < 2; idx++ {
		// The load harness's per-stream window and edit mix.
		window := regs[idx*10 : idx*10+10]
		rng := rand.New(rand.NewSource(1 + 7919*int64(idx)))
		for b := 0; b < 150; b++ {
			var batch []Edit
			kind := 0 // 0: skews only, 1: a move, 2: a resize
			structural := rng.Intn(10)
			for e := 0; e < 10; e++ {
				r := window[rng.Intn(len(window))]
				switch {
				case e == structural && rng.Intn(2) == 0:
					kind = 1
					batch = append(batch, MoveTo(r.name,
						r.pos[0]+int64(rng.Intn(801)-400), r.pos[1]+int64(rng.Intn(801)-400)))
				case e == structural && len(r.cells) > 1:
					kind = 2
					batch = append(batch, Resize(r.name, r.cells[rng.Intn(len(r.cells))]))
				default:
					batch = append(batch, Skew(r.name, float64(rng.Intn(81)-40)))
				}
			}
			if _, err := s.Apply(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Measure(); err != nil {
				t.Fatal(err)
			}
			cs, ss := s.engs.cts.Stats(), s.engs.sta.Stats()
			if cs.LastKind != "delta" && cs.LastKind != "clean" {
				t.Fatalf("scale %d batch %d: CTS update kind %q, want delta or clean", scale, b, cs.LastKind)
			}
			if cs.LastRootSetNetsWalked != 0 {
				t.Fatalf("scale %d batch %d: root-set check walked %d nets, want 0",
					scale, b, cs.LastRootSetNetsWalked)
			}
			maxReplans := 1
			if kind == 0 {
				maxReplans = 0
			}
			if cs.LastDomainsReplanned > maxReplans {
				t.Fatalf("scale %d batch %d (kind %d): %d domains re-planned, want <= %d",
					scale, b, kind, cs.LastDomainsReplanned, maxReplans)
			}
			if ss.LastKind != "incremental" {
				t.Fatalf("scale %d batch %d: STA run kind %q, want incremental", scale, b, ss.LastKind)
			}
			w.measures++
			w.clockRegs += ss.LastClockRegs
		}
	}
	return w
}

// TestMeasureWorkDoesNotGrowWithDesign pins that a served measure costs
// what the edits touched: on D1@20 and on D1@5 (about 4× the registers
// and clock-domain size) the same stream shape walks no root-set nets,
// re-plans at most the one domain a move or resize reached (none after a
// skew-only batch), and recomputes about as many clock arrivals per
// measure.
func TestMeasureWorkDoesNotGrowWithDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("generates D1@5")
	}
	small := runParametricStream(t, 20)
	large := runParametricStream(t, 5)
	meanSmall := float64(small.clockRegs) / float64(small.measures)
	meanLarge := float64(large.clockRegs) / float64(large.measures)
	t.Logf("clock-arrival registers per measure: D1@20 %.1f, D1@5 %.1f", meanSmall, meanLarge)
	if meanLarge > 1.5*meanSmall {
		t.Fatalf("clock-arrival registers per measure grew with the design: D1@20 %.1f, D1@5 %.1f",
			meanSmall, meanLarge)
	}
}
