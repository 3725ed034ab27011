package flow

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
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
	// splitConePins is the STA cone of the measure after the stream's
	// closing split, and pins the design's pin space at that measure.
	splitConePins, pins int
}

// runParametricStream drives the load harness's parametric stream shape
// on a fresh D1 harness session at the given scale: two streams over the
// first two 10-register Morton windows, 150 batches each of 10 edits with
// at most one move or resize (the rest skews), a measure after each
// batch. It checks each steady-state measure's CTS and STA counters as it
// goes.
func runParametricStream(t *testing.T, scale int) measureWork {
	t.Helper()
	s := harnessSession(t, scale)
	defer s.Close()
	d := s.Design()

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

	// Close with a split of the first multi-bit register in Morton order:
	// the measure patches the STA graph and re-propagates the cone.
	for _, r := range regs {
		if in := d.InstByName(r.name); in == nil || in.Bits() < 2 || in.SizeOnly {
			continue
		}
		if _, err := s.Apply([]Edit{SplitInst(r.name)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Measure(); err != nil {
			t.Fatal(err)
		}
		ss := s.engs.sta.Stats()
		if ss.LastKind != "structural" || ss.FullBuilds != 1 {
			t.Fatalf("scale %d: measure after a split: STA run kind %q, %d builds; want structural, 1",
				scale, ss.LastKind, ss.FullBuilds)
		}
		w.splitConePins, w.pins = ss.LastConePins, d.PinSpace()
		break
	}
	return w
}

// TestMeasureWorkDoesNotGrowWithDesign pins that a served measure costs
// what the edits touched: on D1@20 and on D1@5 (about 4× the registers
// and clock-domain size) the same stream shape walks no root-set nets,
// re-plans at most the one domain a move or resize reached (none after a
// skew-only batch), and recomputes about as many clock arrivals per
// measure. A measure after a split patches the STA graph and
// re-evaluates fewer pins than the design has (the two full sweeps
// evaluate nearly twice that); the clock-tree repair the split triggers
// moves the clock arrival of a whole subtree of registers, so that cone,
// unlike the rest, scales with the domain.
func TestMeasureWorkDoesNotGrowWithDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("generates D1@5")
	}
	small := runParametricStream(t, 20)
	large := runParametricStream(t, 5)
	meanSmall := float64(small.clockRegs) / float64(small.measures)
	meanLarge := float64(large.clockRegs) / float64(large.measures)
	t.Logf("clock-arrival registers per measure: D1@20 %.1f, D1@5 %.1f", meanSmall, meanLarge)
	t.Logf("STA cone pins after a split: D1@20 %d of %d pins, D1@5 %d of %d",
		small.splitConePins, small.pins, large.splitConePins, large.pins)
	if meanLarge > 1.5*meanSmall {
		t.Fatalf("clock-arrival registers per measure grew with the design: D1@20 %.1f, D1@5 %.1f",
			meanSmall, meanLarge)
	}
	for _, w := range []measureWork{small, large} {
		if w.splitConePins == 0 || w.splitConePins >= w.pins {
			t.Fatalf("STA cone after a split re-evaluated %d pins of %d, want some and fewer than the pins",
				w.splitConePins, w.pins)
		}
	}
}

// harnessSession opens a session on a fresh D1 design at the given scale
// as the load harness runs it: one worker, CTS re-center hysteresis of
// 4000 DBU.
func harnessSession(tb testing.TB, scale int) *Session {
	tb.Helper()
	gen, err := bench.Generate(bench.D1(bench.ProfileOpts{Scale: scale}))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.CTS.Tree.RecenterThresholdDBU = 4000
	s, err := NewSession(gen.Design, gen.Plan, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// splitMeasureSession opens a D1@20 harness session, measures once and
// returns it with the names of its multi-bit registers, sorted.
func splitMeasureSession(tb testing.TB) (*Session, []string) {
	tb.Helper()
	s := harnessSession(tb, 20)
	var mbrs []string
	s.Design().Insts(func(in *netlist.Inst) {
		if in.Kind == netlist.KindReg && in.Bits() >= 2 && !in.Fixed && !in.SizeOnly {
			mbrs = append(mbrs, in.Name)
		}
	})
	slices.Sort(mbrs)
	if _, err := s.Measure(); err != nil {
		tb.Fatal(err)
	}
	return s, mbrs
}

// splitAndMeasure splits the named register and measures; it reports the
// bytes the measure allocated.
func splitAndMeasure(tb testing.TB, s *Session, name string) uint64 {
	tb.Helper()
	if _, err := s.Apply([]Edit{SplitInst(name)}); err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Measure(); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSplitMeasureAllocatesLessThanPinSpace pins that a measure after a
// split pays for what the split reached, not for the design's size: after
// one warm-up split measure (the first grow past the build's exact sizes),
// the mean bytes allocated per split measure stay below one float64 per
// pin. Regrowing every pin-sized STA array to its exact new size cost
// about twelve times that.
func TestSplitMeasureAllocatesLessThanPinSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("generates D1@20")
	}
	s, mbrs := splitMeasureSession(t)
	defer s.Close()
	const splits = 12
	if len(mbrs) < splits+1 {
		t.Fatalf("D1@20 has %d multi-bit registers, want at least %d", len(mbrs), splits+1)
	}
	splitAndMeasure(t, s, mbrs[0]) // warm-up
	var total uint64
	for _, name := range mbrs[1 : splits+1] {
		total += splitAndMeasure(t, s, name)
		if kind := s.engs.sta.Stats().LastKind; kind != "structural" {
			t.Fatalf("measure after splitting %s: STA run kind %q, want structural", name, kind)
		}
	}
	mean, pins := total/splits, uint64(s.Design().PinSpace())
	t.Logf("bytes allocated per split measure: mean %d, %.1f per pin (%d pins)", mean, float64(mean)/float64(pins), pins)
	if mean >= 8*pins {
		t.Fatalf("a split measure allocates %d bytes on average, want < 8 × %d pins", mean, pins)
	}
}

// BenchmarkMeasureAfterSplit times the measure after a split edit on
// D1@20 as the load harness serves it. Each iteration splits the next
// multi-bit register, measures (timed) and merges the bits back under the
// register's name and measures (untimed), so the design keeps its size.
// One untimed iteration first grows the engines past the build's sizes.
func BenchmarkMeasureAfterSplit(b *testing.B) {
	s, mbrs := splitMeasureSession(b)
	defer s.Close()
	d := s.Design()
	b.ReportAllocs()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		b.StopTimer()
		name := mbrs[(i+1)%len(mbrs)]
		bits := d.InstByName(name).Bits()
		if _, err := s.Apply([]Edit{SplitInst(name)}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Measure(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		group := make([]string, bits)
		for k := range group {
			group[k] = fmt.Sprintf("%s_b%d", name, k)
		}
		if _, err := s.Apply([]Edit{MergeGroup(name, group...)}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Measure(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestFlipAfterComposeReusesQLoads pins that the ideal-clock flips around
// a compose pass re-seed every register from stored Q-net loads except
// those the pass reloaded: the pass's own flip, right after a measure,
// recomputes none, and the measure that flips back after a steady-state
// pass (the session's second) recomputes far fewer than there are
// registers.
func TestFlipAfterComposeReusesQLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("generates D1@20")
	}
	s, _ := splitMeasureSession(t)
	defer s.Close()
	for pass := 1; pass <= 2; pass++ {
		if _, err := s.ComposePass(); err != nil {
			t.Fatal(err)
		}
		if st := s.engs.sta.Stats(); st.LastSeedLoads != 0 {
			t.Fatalf("pass %d: the flip to ideal clocks after a measure recomputed %d Q-net loads, want 0",
				pass, st.LastSeedLoads)
		}
		if _, err := s.Measure(); err != nil {
			t.Fatal(err)
		}
		st, regs := s.engs.sta.Stats(), len(s.Design().Registers())
		t.Logf("pass %d: the measure after it recomputed %d Q-net loads (%d registers)", pass, st.LastSeedLoads, regs)
		if pass == 2 && st.LastSeedLoads*4 >= regs {
			t.Fatalf("the measure after a second compose pass recomputed %d Q-net loads, want far fewer than the %d registers",
				st.LastSeedLoads, regs)
		}
	}
}
